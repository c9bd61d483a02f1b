"""Spectrum CSV serialization.

Format: `#`-prefixed metadata lines, then the header
`E_cm1,T,R,A_total,A_sink,A_dephasing,A_ohmic`, one row per grid point.
Values carry 12 decimal digits in scientific notation, UTF-8, LF endings.
Writes are deterministic: identical inputs give byte-identical files.
"""

from __future__ import annotations

import itertools
import math
import os
import warnings
from typing import NamedTuple

import numpy as np

from .model import LOSS_CHANNELS, ProbeGrid
from .scattering import Spectrum, _flux_chunks, _sweep_metadata

# Loss channels in the order of their A_<channel> columns, after E, T, R and A_total.
_CSV_CHANNELS = ("sink", "dephasing", "ohmic")
_CSV_COLUMNS = ("E_cm1", "T", "R", "A_total", *(f"A_{name}" for name in _CSV_CHANNELS))
CSV_HEADER = ",".join(_CSV_COLUMNS)
_CSV_ROW = ",".join(["%.12e"] * len(_CSV_COLUMNS)) + "\n"
# Rows per % call of the writer. At 1024 instead of 4096, writing the 2001-row
# preset spectrum allocates at most 0.51 MB instead of 0.99 MB.
_CSV_FORMAT_ROWS = 1024
# Lines per numpy parse of the reader. A smaller block would not lower the peak
# of `fano` on a fine grid: the Fano fit's arrays over its window set it.
_CSV_BLOCK_ROWS = 4096
# Bytes per read when the reader counts a file's lines.
_COUNT_BYTES = 2 ** 16

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
    preamble = _preamble(spec.metadata)
    columns = (spec.T, spec.R, spec.A_total, *(spec.A_channels[name] for name in _CSV_CHANNELS))
    chunks = ((rows, [col[rows] for col in columns]) for rows in _row_blocks(spec.grid.n_points))
    with _open_text(path) as fh:
        _write_rows(fh, preamble, spec.grid, chunks)


def _write_sweep_csv(path, net, wg, grid, solver):
    """Write the CSV that write_spectrum_csv writes for sweep_spectrum(net, wg,
    grid, solver), each chunk as soon as it is solved.

    Returns the grid and T, the one column kept, as a _Transmission. Where the
    sweep fails, the file goes: cut at a row boundary, it would read back as a
    spectrum on a shorter grid.
    """
    T = np.empty(grid.n_points)

    def chunks():
        for rows, T_rows, R, A_total, per_channel in _flux_chunks(net, wg, grid, solver):
            T[rows] = T_rows
            yield rows, [T_rows, R, A_total, *(per_channel[name] for name in _CSV_CHANNELS)]

    preamble = _preamble(_sweep_metadata(net, wg, solver))
    with _open_text(path) as fh:
        try:
            _write_rows(fh, preamble, grid, chunks())
        except BaseException:
            fh.close()
            os.remove(path)
            raise
    T.flags.writeable = False
    return _Transmission(grid, T)


def _preamble(metadata):
    """The metadata lines and the header of a spectrum CSV, as one text."""
    keys = [key for key in _META if key in metadata]
    keys += sorted((key for key in metadata if key not in _META), key=str)
    lines = [_meta_line(key, metadata[key]) for key in keys]
    lines.append(CSV_HEADER)
    return "\n".join(lines) + "\n"


def _write_rows(fh, preamble, grid, chunks):
    """Write a spectrum CSV to fh: the preamble, then the rows.

    chunks yields (rows, columns): a slice of the grid and its values in CSV
    column order after E_cm1. Each chunk is formatted _CSV_FORMAT_ROWS rows at a
    time.
    """
    fh.write(preamble)
    for rows, columns in chunks:
        columns = [grid.energies(rows), *columns]
        fh.writelines(format_rows(_CSV_ROW, [col[block] for col in columns])
                      for block in _row_blocks(len(columns[0])))


def _row_blocks(n_rows):
    """Yield the slices that cover n_rows rows, _CSV_FORMAT_ROWS rows each.

    A writer that formats one block at a time never holds all its row text
    and floats at once.
    """
    for start in range(0, n_rows, _CSV_FORMAT_ROWS):
        yield slice(start, start + _CSV_FORMAT_ROWS)


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

    The rows after the header go to numpy's C parser, one block of
    _CSV_BLOCK_ROWS rows at a time, into six float columns sized from the
    file's line count; the energy column is checked block by block and not
    kept; blank lines are skipped. Where a block fails or yields anything but
    a finite 7-column table, the line parser reads the whole file again: it
    accepts what Python's float() accepts, skips blank and `#` lines, and
    names the line of any error.
    """
    metadata, grid, (T, R, A_total, *absorbed) = _read_columns(path, _CSV_COLUMNS[1:])
    by_channel = dict(zip(_CSV_CHANNELS, absorbed))
    channels = {name: by_channel[name] for name in LOSS_CHANNELS}
    return Spectrum(grid=grid, T=T, R=R, A_total=A_total, A_channels=channels,
                    metadata=metadata)


class _Transmission(NamedTuple):
    """The grid and T of a spectrum: all that fit_fano and write_overlay read."""

    grid: ProbeGrid
    T: np.ndarray


def _read_transmission(path) -> _Transmission:
    """The grid and T of a spectrum CSV; every column is checked as read_spectrum_csv does."""
    _, grid, (T,) = _read_columns(path, ("T",))
    return _Transmission(grid, T)


def _read_columns(path, names):
    """(metadata, grid, table) of a spectrum CSV: one read-only row of table per
    column in names, all of them checked."""
    keep = [_CSV_COLUMNS.index(name) for name in names]
    read = _read_blocks(path, keep)
    if read is None:
        metadata, data = _parse_lines(path)
        check = _GridCheck()
        check.add(data[:, 0])
        table = data[:, keep].T.copy()
        table.flags.writeable = False
        read = metadata, check.grid(path), table
    return read


def _read_blocks(path, keep):
    """The block parser's (metadata, grid, table), or None where it cannot read the body."""
    with open(path, "r", encoding="utf-8") as fh:
        metadata, header_lineno = _read_preamble(fh, path)
        # one column per line after the header: blank lines leave a few unused
        table = np.empty((len(keep), max(0, _line_count(path) - header_lineno)))
        check = _GridCheck()
        while True:
            lines, data = _parse_block(fh)
            if not lines:
                break
            if data is None or check.rows + len(data) > table.shape[1]:
                return None
            for row, column in enumerate(keep):
                table[row, check.rows:check.rows + len(data)] = data[:, column]
            check.add(data[:, 0])
    table = table[:, :check.rows]
    table.flags.writeable = False
    return metadata, check.grid(path), table


def _line_count(path):
    """Lines in the file at path, a last one without a line end included."""
    count, last = 0, b"\n"
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(_COUNT_BYTES), b""):
            count += block.count(b"\n")
            last = block[-1:]
    return count + (last != b"\n")


def _parse_block(fh):
    """(lines, table): how many of fh's next lines it read, _CSV_BLOCK_ROWS at
    most, and numpy's C parse of those that are not blank as a finite
    (rows, 7) table, or None.

    The parser pulls the lines one at a time, so the block's text is never held.
    """
    lines = rows = 0

    def body():
        nonlocal lines, rows
        for lines, line in enumerate(itertools.islice(fh, _CSV_BLOCK_ROWS), 1):
            if line != "\n":  # the line parser skips a blank line too
                rows += 1
                yield line

    try:
        # an empty block warns
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            data = np.loadtxt(body(), delimiter=",", comments=None, ndmin=2)
    except ValueError:  # a field numpy cannot parse, or text that is not UTF-8
        return lines, None
    if not rows:  # numpy reads no lines as a (0, 1) table
        data = np.empty((0, len(_CSV_COLUMNS)))
    if data.shape != (rows, len(_CSV_COLUMNS)) or not np.isfinite(data).all():
        return lines, None
    return lines, data


class _GridCheck:
    """Whether an energy column, fed in blocks, forms a uniform increasing grid."""

    def __init__(self):
        self.rows = 0
        self.finite = True
        self.first = self.last = None
        self.step_min, self.step_max = math.inf, -math.inf

    def add(self, energies):
        if not np.isfinite(energies).all():
            self.finite = False
        elif energies.size:
            if self.last is None:
                self.first, steps = energies[0], np.diff(energies)
            else:  # the step into a block starts from the energy the last one ended at
                steps = np.diff(energies, prepend=self.last)
            if steps.size:
                self.step_min = min(self.step_min, float(steps.min()))
                self.step_max = max(self.step_max, float(steps.max()))
            self.last = energies[-1]
        self.rows += energies.size

    def grid(self, path) -> ProbeGrid:
        """The grid the column forms; ValueError naming path where it forms none."""
        if self.rows < 2:
            raise ValueError(f"{path}: needs at least 2 data rows, got {self.rows}")
        if not self.finite or self.step_min <= 0 or (
                self.step_max - self.step_min > 1e-6 * (self.last - self.first) / (self.rows - 1)):
            raise ValueError(f"{path}: energy column is not a uniform increasing grid")
        return ProbeGrid(e_min=float(self.first), e_max=float(self.last), n_points=self.rows)


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
    return metadata, np.array(rows).reshape(-1, len(_CSV_COLUMNS))


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
