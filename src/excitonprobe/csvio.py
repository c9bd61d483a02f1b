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
    """`1:10.0;6:0.1` -> ((1, 10.0), (6, 0.1)), the form _fmt_meta writes."""
    return tuple((int(s), float(v)) for s, _, v in
                 (item.partition(":") for item in raw.split(";") if item))


# Metadata keys, in the fixed order they are written when present, each with
# the type it is read back as. Keys not listed here are written after them,
# sorted by name, and read back as str.
_META_TYPES = {
    "solver": str,
    "network_hash": str,
    "v_g": float,
    "reference_energy_cm1": float,
    "ports": _site_pairs,
    "port_widths": lambda raw: dict(_site_pairs(raw)),
}


def _fmt_meta(value):
    if isinstance(value, dict):
        value = tuple(sorted(value.items()))
    if isinstance(value, tuple):
        return ";".join(f"{s}:{_fmt_meta(g)}" for s, g in value)
    if isinstance(value, float):
        return repr(float(value))  # a numpy float's repr names its type
    return str(value)


def _meta_line(key, value):
    """The `# key = value` line; ValueError naming a key whose line would not read back."""
    text = _fmt_meta(value)
    if "=" in str(key) or any(c in f"{key}{text}" for c in "\r\n"):
        raise ValueError(f"metadata key {key!r}: a key must not hold '=', and neither "
                         f"a key nor its value may hold a line break")
    return f"# {key} = {text}"


def write_spectrum_csv(path, spec: Spectrum):
    keys = [key for key in _META_TYPES if key in spec.metadata]
    keys += sorted(key for key in spec.metadata if key not in _META_TYPES)
    lines = [_meta_line(key, spec.metadata[key]) for key in keys]
    lines.append(CSV_HEADER)
    data = np.column_stack((spec.energies, spec.T, spec.R, spec.A_total,
                            *(spec.A_channels[name] for name in _CSV_CHANNELS)))
    with _open_text(path) as fh:
        fh.write("\n".join(lines) + "\n")
        fh.writelines(format_rows(_CSV_ROW, data))


def format_rows(row_format, data):
    """Yield the text of row_format % row for each row of the 2-D array data.

    Each block of _CSV_BLOCK_ROWS rows is formatted by one % call, so a long
    array never holds all its row text and floats at once.
    """
    for start in range(0, len(data), _CSV_BLOCK_ROWS):
        block = data[start:start + _CSV_BLOCK_ROWS]
        yield (row_format * len(block)) % tuple(block.ravel().tolist())


def read_spectrum_csv(path) -> Spectrum:
    """Rebuild a Spectrum from a file written by write_spectrum_csv.

    The energy column must form a uniform grid and every other value must be
    finite; metadata lines come back as a dict, each value read as the type
    _META_TYPES gives its key (str for a key it does not list).

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


def _read_metadata_line(metadata, line, path, lineno):
    body = line[1:].strip()
    if "=" in body:
        key, _, raw = body.partition("=")
        key = key.strip()
        try:
            metadata[key] = _META_TYPES.get(key, str)(raw.strip())
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

    _, T, R, A_total, *absorbed = (np.ascontiguousarray(col) for col in data.T)
    by_channel = dict(zip(_CSV_CHANNELS, absorbed))
    channels = {name: by_channel[name] for name in LOSS_CHANNELS}
    for arr in (T, R, A_total, *channels.values()):
        arr.flags.writeable = False
    return Spectrum(grid=grid, T=T, R=R, A_total=A_total, A_channels=channels,
                    metadata=metadata)


def format_fano_table(rows) -> str:
    """Fano table text: the header, then one line per (label, FanoFit) pair."""
    lines = [FANO_CSV_HEADER]
    for label, fit in rows:
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
