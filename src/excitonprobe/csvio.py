"""Spectrum CSV serialization.

Format: `#`-prefixed metadata lines, then the header
`E_cm1,T,R,A_total,A_sink,A_dephasing,A_ohmic`, one row per grid point.
Values carry 12 decimal digits in scientific notation, UTF-8, LF endings.
Writes are deterministic: identical inputs give byte-identical files.
"""

from __future__ import annotations

import math
import os
import warnings

import numpy as np

from .model import LOSS_CHANNELS, ProbeGrid
from .scattering import Spectrum

# Loss channels in the order of their A_<channel> columns, after E, T, R and A_total.
_CSV_CHANNELS = ("sink", "dephasing", "ohmic")
_CSV_COLUMNS = ("E_cm1", "T", "R", "A_total", *(f"A_{name}" for name in _CSV_CHANNELS))
CSV_HEADER = ",".join(_CSV_COLUMNS)
_CSV_ROW = ",".join(["%.12e"] * len(_CSV_COLUMNS)) + "\n"
_CSV_BLOCK_ROWS = 4096

# The FanoFit fields a Fano table row writes as floats, between its label and converged.
_FANO_FLOATS = ("q", "e_res", "gamma_w", "t_bg", "residual")
FANO_CSV_HEADER = ",".join(("label", *_FANO_FLOATS, "converged"))


def _site_pairs(raw: str):
    """`1:10.0;6:0.1` -> ((1, 10.0), (6, 0.1)), the form _pairs_text writes."""
    return tuple((int(s), float(v)) for s, _, v in
                 (item.partition(":") for item in raw.split(";") if item))


def _pairs_text(pairs):
    return ";".join(f"{site}:{float(g)!r}" for site, g in pairs)


# Known metadata keys in write order -> (write, read); other keys follow, sorted, as text.
_META = {
    "solver": (str, str),
    "network_hash": (str, str),
    "v_g": (lambda v: repr(float(v)), float),  # a numpy float's own repr names its type
    "reference_energy_cm1": (lambda v: repr(float(v)), float),
    "ports": (_pairs_text, _site_pairs),
    "port_widths": (lambda w: _pairs_text(sorted(dict(w).items())), lambda r: dict(_site_pairs(r))),
}


def _meta_line(key, value):
    """The `# key = value` line; ValueError naming a key whose line would not read back."""
    name, (write, read) = str(key), _META.get(key, (str, str))
    try:
        text = write(value)
        read(text)
    except (AttributeError, OverflowError, TypeError, ValueError) as exc:
        raise ValueError(f"metadata key {key!r}: {value!r} would not read back: {exc}") from None
    line = f"# {name} = {text}"
    if name != key or _split_meta(line) != (name, text) or any(c in line for c in "\r\n"):
        raise ValueError(f"metadata key {key!r}: {line!r} would not read back as written")
    return line


def write_spectrum_csv(path, spec: Spectrum):
    keys = [key for key in _META if key in spec.metadata]
    keys += sorted((key for key in spec.metadata if key not in _META), key=str)
    lines = [_meta_line(key, spec.metadata[key]) for key in keys]
    lines.append(CSV_HEADER)
    columns = (spec.energies, spec.T, spec.R, spec.A_total,
               *(spec.A_channels[name] for name in _CSV_CHANNELS))
    with _open_text(path) as fh:
        fh.write("\n".join(lines) + "\n")
        fh.writelines(format_rows(_CSV_ROW, [col[rows] for col in columns])
                      for rows in _row_blocks(len(columns[0])))


def _row_blocks(n_rows):
    """Yield the slices that cover n_rows rows, _CSV_BLOCK_ROWS rows each.

    A writer that formats one block at a time never holds all its row text
    and floats at once.
    """
    for start in range(0, n_rows, _CSV_BLOCK_ROWS):
        yield slice(start, start + _CSV_BLOCK_ROWS)


def format_rows(row_format, columns):
    """The text of row_format % row for each row of the equal-length 1-D columns.

    One % call formats every row, so a caller passes a block of rows at a time.
    """
    rows = np.column_stack(columns)
    return (row_format * len(rows)) % tuple(rows.ravel().tolist())


def read_spectrum_csv(path) -> Spectrum:
    """Rebuild a Spectrum from a file written by write_spectrum_csv.

    The energy column must form a uniform grid and every other value must be
    finite; metadata lines come back as a dict, each value read by the reader
    _META gives its key (as text for a key it does not list).

    The rows after the header go to numpy's C parser. Where it fails or
    yields anything but a finite 7-column array, the line parser reads the
    whole file again: it accepts what Python's float() accepts, skips `#`
    lines, and names the line of any error.
    """
    with open(path, "r", encoding="utf-8") as fh:
        metadata, _ = _read_preamble(fh, path)
        try:
            # an empty body warns; the line parser reports it
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                data = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2)
        except ValueError:
            data = None
    if data is None or data.shape[1] != len(_CSV_COLUMNS) or not np.isfinite(data).all():
        metadata, data = _parse_lines(path)
    return _spectrum_from_rows(path, metadata, data)


def _split_meta(line):
    key, _, raw = line[1:].partition("=")
    return key.strip(), raw.strip()


def _read_metadata_line(metadata, line, path, lineno):
    if "=" in line:
        key, raw = _split_meta(line)
        try:
            metadata[key] = _META.get(key, (str, str))[1](raw)
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: metadata {key!r}: {exc}") from None


def _content_lines(lines, metadata, path, start=1):
    """Yield (line number, line) for each line that is not blank; `#` lines go to metadata."""
    for lineno, line in enumerate(lines, start=start):
        line = line.rstrip("\n")
        if line.startswith("#"):
            _read_metadata_line(metadata, line, path, lineno)
        elif line:
            yield lineno, line


def _read_preamble(fh, path):
    """Read fh up to and including the header: (metadata, header line number)."""
    metadata = {}
    for lineno, line in _content_lines(iter(fh.readline, ""), metadata, path):
        if line != CSV_HEADER:
            raise ValueError(f"{path}:{lineno}: expected header {CSV_HEADER!r}, got {line!r}")
        return metadata, lineno
    raise ValueError(f"{path}: missing header line {CSV_HEADER!r}")


def _parse_lines(path):
    """The line parser: (metadata, rows), raising an error that names a bad line."""
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        metadata, header_lineno = _read_preamble(fh, path)
        for lineno, line in _content_lines(fh, metadata, path, header_lineno + 1):
            parts = line.split(",")
            if len(parts) != len(_CSV_COLUMNS):
                raise ValueError(f"{path}:{lineno}: expected {len(_CSV_COLUMNS)} columns, "
                                 f"got {len(parts)}")
            try:
                row = [float(p) for p in parts]
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: non-numeric value ({exc})") from None
            for name, value in zip(_CSV_COLUMNS[1:], row[1:]):
                if not math.isfinite(value):
                    raise ValueError(f"{path}:{lineno}: non-finite value in column {name}")
            rows.append(row)
    return metadata, np.array(rows)


def _spectrum_from_rows(path, metadata, data) -> Spectrum:
    if len(data) < 2:
        raise ValueError(f"{path}: needs at least 2 data rows, got {len(data)}")
    energies = data[:, 0]
    spacing = np.diff(energies)
    if (not np.isfinite(energies).all() or spacing.min() <= 0
            or (spacing.max() - spacing.min()) > 1e-6 * abs(spacing.mean())):
        raise ValueError(f"{path}: energy column is not a uniform increasing grid")
    grid = ProbeGrid(e_min=float(energies[0]), e_max=float(energies[-1]),
                     n_points=len(data))

    # columns are views of the parsed table, read-only as it is
    data.flags.writeable = False
    _, T, R, A_total, *absorbed = data.T
    by_channel = dict(zip(_CSV_CHANNELS, absorbed))
    channels = {name: by_channel[name] for name in LOSS_CHANNELS}
    return Spectrum(grid=grid, T=T, R=R, A_total=A_total, A_channels=channels,
                    metadata=metadata)


def format_fano_table(rows) -> str:
    """Fano table text: the header, then one line per (label, FanoFit) pair.

    A label is one field of one line, so one with a comma or a line break
    is a ValueError.
    """
    lines = [FANO_CSV_HEADER]
    for label, fit in rows:
        if "," in label or "".join(label.splitlines()) != label:
            raise ValueError(f"Fano table label {label!r} must not contain "
                             f"a comma or a line break")
        values = ",".join(f"{getattr(fit, name):.12e}" for name in _FANO_FLOATS)
        lines.append(f"{label},{values},{str(fit.converged).lower()}")
    return "\n".join(lines) + "\n"


def _open_text(path):
    """Open path for UTF-8 text with LF line ends, creating parent directories."""
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    return open(path, "w", encoding="utf-8", newline="\n")


def write_text(path, text):
    """Write text as UTF-8 with LF line ends, creating parent directories."""
    with _open_text(path) as fh:
        fh.write(text)
