import dataclasses
import hashlib
import json
import re
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from randnets import single_emitter

from excitonprobe import csvio, scattering
from excitonprobe.cli import main
from excitonprobe.csvio import (
    _CSV_BLOCK_ROWS,
    _CSV_COLUMNS,
    _CSV_FORMAT_ROWS,
    CSV_HEADER,
    FANO_CSV_HEADER,
    format_fano_table,
    read_spectrum_csv,
    write_spectrum_csv,
    write_text,
)
from excitonprobe.fano import FanoFit
from excitonprobe.model import ProbeGrid
from excitonprobe.scattering import PoleError, Spectrum, default_grid, sweep_spectrum
from excitonprobe.scenarios import dip_count
from excitonprobe.svgplot import write_overlay


@pytest.fixture()
def csv_path(baseline_spectrum, tmp_path):
    path = tmp_path / "baseline.csv"
    write_spectrum_csv(str(path), baseline_spectrum)
    return str(path)


class TestRoundTrip:
    def test_grid_survives(self, baseline_spectrum, csv_path):
        back = read_spectrum_csv(csv_path)
        g0, g1 = baseline_spectrum.grid, back.grid
        assert g1.n_points == g0.n_points
        assert g1.e_min == pytest.approx(g0.e_min, abs=1e-9)
        assert g1.e_max == pytest.approx(g0.e_max, abs=1e-9)

    def test_columns_survive(self, baseline_spectrum, csv_path):
        back = read_spectrum_csv(csv_path)
        assert np.allclose(back.T, baseline_spectrum.T, rtol=0, atol=5e-12)
        assert np.allclose(back.R, baseline_spectrum.R, rtol=0, atol=5e-12)
        assert np.allclose(back.A_total, baseline_spectrum.A_total, rtol=0, atol=5e-12)
        for name in ("sink", "dephasing", "ohmic"):
            assert np.allclose(
                back.A_channels[name], baseline_spectrum.A_channels[name],
                rtol=0, atol=5e-12,
            )

    def test_metadata_survives(self, baseline_spectrum, csv_path):
        back = read_spectrum_csv(csv_path)
        md = back.metadata
        assert md["solver"] == "closed_form"
        assert md["v_g"] == 1.0
        assert md["ports"] == ((1, 10.0), (6, 10.0))
        assert md["port_widths"] == {1: 200.0, 6: 200.0}
        assert md["network_hash"] == baseline_spectrum.metadata["network_hash"]
        assert md == baseline_spectrum.metadata

    @pytest.mark.parametrize("network_hash", ["12e4567890123456", "0012345678901234"])
    def test_hash_reads_back_as_written(self, baseline_spectrum, tmp_path, network_hash):
        # a hex hash can look like a float or an int with leading zeros
        spec = dataclasses.replace(baseline_spectrum, metadata=dict(
            baseline_spectrum.metadata, network_hash=network_hash))
        path = str(tmp_path / "hash.csv")
        write_spectrum_csv(path, spec)
        assert read_spectrum_csv(path).metadata["network_hash"] == network_hash

    def test_unknown_metadata_key_reads_as_text(self, csv_path, tmp_path):
        path = tmp_path / "legacy.csv"
        path.write_text("# g1 = 10.0\n" + Path(csv_path).read_text())
        assert read_spectrum_csv(str(path)).metadata["g1"] == "10.0"

    def test_unknown_metadata_keys_survive_a_rewrite(self, csv_path, tmp_path):
        path = tmp_path / "note.csv"
        path.write_text("# note = hello\n# alpha = 1\n" + Path(csv_path).read_text())
        again = tmp_path / "again.csv"
        write_spectrum_csv(str(again), read_spectrum_csv(str(path)))
        # after the known keys, in name order
        assert "# port_widths = 1:200.0;6:200.0\n# alpha = 1\n# note = hello\n" + CSV_HEADER \
            in again.read_text()
        assert read_spectrum_csv(str(again)).metadata["note"] == "hello"

    @pytest.mark.parametrize("key, value", [
        ("a=b", "c"), ("a\nb", "c"), ("note", "one\ntwo"), ("note", "one\rtwo"),
    ], ids=["equals-in-key", "newline-in-key", "newline-in-value", "return-in-value"])
    def test_metadata_that_would_not_read_back_is_refused(self, baseline_spectrum, tmp_path,
                                                          key, value):
        spec = dataclasses.replace(baseline_spectrum, metadata=dict(
            baseline_spectrum.metadata, **{key: value}))
        path = tmp_path / "meta.csv"
        with pytest.raises(ValueError, match=re.escape(f"metadata key {key!r}:")):
            write_spectrum_csv(str(path), spec)
        assert not path.exists()

    @pytest.mark.parametrize("key, value", [
        ("v_g", "fast"), ("ports", "x"), ("ports", ((1.5, 2.0),)), ("port_widths", "x"),
        ("note", " padded "), ("note", "tail\t"), (" a", "b"), (3, "v"),
    ], ids=["text-as-float", "text-as-ports", "float-site", "text-as-widths",
            "padded-value", "trailing-tab", "padded-key", "int-key"])
    def test_metadata_its_reader_would_not_give_back_is_refused(
            self, baseline_spectrum, tmp_path, key, value):
        spec = dataclasses.replace(baseline_spectrum, metadata={
            **baseline_spectrum.metadata, "note": "x", key: value})
        path = tmp_path / "meta.csv"
        with pytest.raises(ValueError, match="^" + re.escape(f"metadata key {key!r}:")):
            write_spectrum_csv(str(path), spec)
        assert not path.exists()

    def test_unknown_key_is_written_as_text(self, baseline_spectrum, tmp_path):
        spec = dataclasses.replace(baseline_spectrum, metadata=dict(
            baseline_spectrum.metadata, note=(1, 2.0), v_g=2))
        path = tmp_path / "meta.csv"
        write_spectrum_csv(str(path), spec)
        assert "# v_g = 2.0\n" in path.read_text()
        md = read_spectrum_csv(str(path)).metadata
        assert md["note"] == "(1, 2.0)" and md["v_g"] == 2.0

    def test_equals_sign_in_value_round_trips(self, baseline_spectrum, tmp_path):
        spec = dataclasses.replace(baseline_spectrum, metadata=dict(
            baseline_spectrum.metadata, note="b = c"))
        path = str(tmp_path / "meta.csv")
        write_spectrum_csv(path, spec)
        assert read_spectrum_csv(path).metadata == spec.metadata

    def test_numpy_float_metadata_round_trips(self, baseline_spectrum, tmp_path):
        md = baseline_spectrum.metadata
        spec = dataclasses.replace(baseline_spectrum, metadata=dict(
            md, v_g=np.float64(md["v_g"]),
            ports=tuple((s, np.float64(g)) for s, g in md["ports"]),
            port_widths={s: np.float64(w) for s, w in md["port_widths"].items()}))
        path = str(tmp_path / "np.csv")
        write_spectrum_csv(path, spec)
        assert read_spectrum_csv(path).metadata == md

    def test_numpy_float_reference_energy_round_trips(self, preset, preset_grid, tmp_path):
        net, wg = preset
        net = dataclasses.replace(net, reference_energy=np.float64(12000.0))
        path = tmp_path / "np.csv"
        write_spectrum_csv(str(path), sweep_spectrum(net, wg, preset_grid))
        assert "# reference_energy_cm1 = 12000.0\n" in path.read_text()
        assert read_spectrum_csv(str(path)).metadata["reference_energy_cm1"] == 12000.0

    def test_read_arrays_are_read_only(self, csv_path):
        back = read_spectrum_csv(csv_path)
        with pytest.raises(ValueError):
            back.T[0] = 2.0


class TestDeterminism:
    def test_identical_bytes_on_rewrite(self, baseline_spectrum, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        write_spectrum_csv(str(a), baseline_spectrum)
        write_spectrum_csv(str(b), baseline_spectrum)
        assert a.read_bytes() == b.read_bytes()

    def test_unix_newlines(self, csv_path):
        raw = Path(csv_path).read_bytes()
        assert b"\r" not in raw

    def test_fine_preset_spectrum_bytes_pinned(self, preset, tmp_path):
        # `excitonprobe spectrum` on the preset's default span at 120001 points
        grid = default_grid(preset[0], n_points=120001)
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "grid": {"e_min": grid.e_min, "e_max": grid.e_max, "n_points": grid.n_points},
            "output_dir": str(tmp_path / "out")}))
        assert main(["spectrum", "--config", str(cfg)]) == 0
        raw = (tmp_path / "out" / "baseline.csv").read_bytes()
        assert len(raw) == 15979622
        assert hashlib.sha256(raw).hexdigest() == (
            "c8654d55b49e78395b604cc91dbdca851cde4c2348c135053862e65feba5c5db")


def per_row_text(spec):
    """Data rows formatted one f-string per row: the reference for the writer."""
    energies = spec.energies
    sink = spec.A_channels["sink"]
    deph = spec.A_channels["dephasing"]
    ohm = spec.A_channels["ohmic"]
    return "".join(
        f"{energies[i]:.12e},{spec.T[i]:.12e},{spec.R[i]:.12e},"
        f"{spec.A_total[i]:.12e},{sink[i]:.12e},{deph[i]:.12e},{ohm[i]:.12e}\n"
        for i in range(spec.grid.n_points)
    )


class TestWriterText:
    # -0.0, the smallest subnormal, values that round up at the 13th digit
    # (one of them into the next decade), huge, infinite and NaN
    AWKWARD = np.array([-0.0, 5e-324, -5e-324, 1.2345678901235, 9.9999999999995e-1,
                        -9.99999999999951e99, 1e300, -1e-300, np.inf, -np.inf, np.nan, 0.0])

    def test_awkward_values_match_per_row_format(self, tmp_path):
        # more rows than two of the writer's blocks, so block edges are covered
        n = 2 * _CSV_FORMAT_ROWS + len(self.AWKWARD)
        cols = [np.roll(np.resize(self.AWKWARD, n), k) for k in range(6)]
        spec = Spectrum(grid=ProbeGrid(-1e-7, 3.0, n), T=cols[0], R=cols[1], A_total=cols[2],
                        A_channels={"sink": cols[3], "dephasing": cols[4], "ohmic": cols[5]},
                        metadata={})
        path = tmp_path / "awkward.csv"
        write_spectrum_csv(str(path), spec)
        got = path.read_text().splitlines(keepends=True)
        want = (CSV_HEADER + "\n" + per_row_text(spec)).splitlines(keepends=True)
        assert len(got) == len(want)
        # report the first (written, expected) pair that differs: pytest's full
        # diff of two texts this long takes minutes
        assert next(((a, b) for a, b in zip(got, want) if a != b), None) is None


def line_parser_read(path):
    """read_spectrum_csv with its block parser refusing every file."""
    with mock.patch.object(csvio, "_read_blocks", lambda path, keep: None):
        return read_spectrum_csv(path)


def read_outcome(read, path):
    """The Spectrum as comparable bytes, or the error message."""
    try:
        spec = read(path)
    except ValueError as exc:
        return str(exc)
    arrays = (spec.T, spec.R, spec.A_total, *(spec.A_channels[k] for k in sorted(spec.A_channels)))
    return spec.grid, spec.metadata, [a.tobytes() for a in arrays]


LINE_INSERTS = ["", " ", "\t", " \t ", "#", "# note", "# v_g = 2.5", "# v_g = oops"]
FIELD_TEXTS = ["1_0", "2_5.0_1e-0_1", "0x1p-3", "0x1.8p1", "nan", "NaN", "inf", "-inf",
               "Infinity", "1e400", "-0", " 0.25 ", "+.5", "", "1e", "0.5d0"]
EDIT = st.one_of(
    st.tuples(st.just("insert"), st.integers(0, 20), st.sampled_from(LINE_INSERTS)),
    st.tuples(st.just("field"), st.integers(0, 20), st.integers(0, 6),
              st.sampled_from(FIELD_TEXTS)),
    st.tuples(st.just("drop-field"), st.integers(0, 20)),
    st.tuples(st.just("extra-field"), st.integers(0, 20)),
)


class TestReaderPaths:
    @pytest.fixture(scope="class")
    def preset_text(self, preset):
        net, wg = preset
        spec = sweep_spectrum(net, wg, default_grid(net, n_points=21))
        return spec, per_row_text(spec)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(edits=st.lists(EDIT, max_size=4), crlf=st.booleans())
    def test_fast_path_agrees_with_line_parser(self, preset_text, tmp_path, edits, crlf):
        spec, rows_text = preset_text
        rows = rows_text.splitlines()
        for edit in edits:
            kind, at = edit[0], edit[1] % len(rows)
            if kind == "insert":
                rows.insert(at, edit[2])
            elif rows[at].count(",") == len(_CSV_COLUMNS) - 1:
                fields = rows[at].split(",")
                if kind == "field":
                    fields[edit[2]] = edit[3]
                elif kind == "drop-field":
                    fields.pop()
                else:
                    fields.append("0.0")
                rows[at] = ",".join(fields)
        head = [f"# v_g = {spec.metadata['v_g']!r}", CSV_HEADER]
        path = tmp_path / "mutated.csv"
        path.write_bytes(("\r\n" if crlf else "\n").join(head + rows + [""]).encode())
        assert read_outcome(read_spectrum_csv, str(path)) == read_outcome(line_parser_read,
                                                                          str(path))

    def test_written_file_needs_no_line_parser(self, csv_path, monkeypatch):
        want = read_outcome(line_parser_read, csv_path)
        assert not isinstance(want, str)
        monkeypatch.setattr(csvio, "_parse_lines", None)
        assert read_outcome(read_spectrum_csv, csv_path) == want

    @pytest.mark.parametrize("text", [b"", b"1", b"1\n", b"\n", b"\n\n1\n\n", b"1\n2",
                                      b"1\r\n\r\n2\r\n", b"1\r\n2", b"1\r2\n"])
    @pytest.mark.parametrize("read_bytes", [1, 2, csvio._COUNT_BYTES])
    def test_line_count_is_the_line_iterators(self, tmp_path, monkeypatch, text, read_bytes):
        # the count of a binary file's line iterator, a line end split across reads or not
        p = tmp_path / "lines.csv"
        p.write_bytes(text)
        with open(p, "rb") as fh:
            want = sum(1 for _ in fh)
        monkeypatch.setattr(csvio, "_COUNT_BYTES", read_bytes)
        assert csvio._line_count(p) == want


class TestReaderValidation:
    def test_missing_header(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("1,2,3\n")
        with pytest.raises(ValueError, match="expected header"):
            read_spectrum_csv(str(p))

    @pytest.mark.parametrize("text, message", [
        # a blank line before the header counts towards the line numbers
        ("\n" + CSV_HEADER + "\n1,2,3\n", "{path}:3: expected 7 columns, got 3"),
        ("# solver = direct\n\n", "{path}: missing header line " + repr(CSV_HEADER)),
    ])
    def test_preamble_messages(self, tmp_path, text, message):
        p = tmp_path / "bad.csv"
        p.write_text(text)
        with pytest.raises(ValueError) as err:
            read_spectrum_csv(str(p))
        assert str(err.value) == message.format(path=p)

    def test_wrong_column_count_names_line(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text(CSV_HEADER + "\n1,2,3\n")
        with pytest.raises(ValueError, match=r"bad\.csv:2.*7 columns"):
            read_spectrum_csv(str(p))

    def test_non_numeric_value_names_line(self, tmp_path):
        p = tmp_path / "bad.csv"
        row = ",".join(["1"] + ["oops"] + ["0"] * 5)
        p.write_text(CSV_HEADER + "\n" + row + "\n")
        with pytest.raises(ValueError, match=r"bad\.csv:2.*non-numeric"):
            read_spectrum_csv(str(p))

    def test_too_few_rows(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text(CSV_HEADER + "\n" + ",".join("1234567") + "\n")
        with pytest.raises(ValueError, match="at least 2 data rows"):
            read_spectrum_csv(str(p))

    def test_non_uniform_grid_rejected(self, tmp_path):
        p = tmp_path / "bad.csv"
        rows = [CSV_HEADER]
        for e in (0.0, 1.0, 3.5):
            rows.append(",".join([str(e)] + ["0"] * 6))
        p.write_text("\n".join(rows) + "\n")
        with pytest.raises(ValueError, match="uniform increasing grid"):
            read_spectrum_csv(str(p))

    @pytest.mark.parametrize("last", ["inf", "nan"])
    def test_non_finite_energy_rejected(self, tmp_path, last):
        p = tmp_path / "bad.csv"
        rows = [CSV_HEADER]
        for e in ("0.0", "1.0", "2.0", last):
            rows.append(",".join([e] + ["0"] * 6))
        p.write_text("\n".join(rows) + "\n")
        with pytest.raises(ValueError, match=r"bad\.csv: energy column is not a uniform"):
            read_spectrum_csv(str(p))

    @pytest.mark.parametrize("column", _CSV_COLUMNS[1:])
    @pytest.mark.parametrize("value", ["nan", "-inf"])
    def test_non_finite_value_names_line_and_column(self, tmp_path, column, value):
        p = tmp_path / "bad.csv"
        rows = [CSV_HEADER] + [",".join([str(e)] + ["0.5"] * 6) for e in (0.0, 1.0, 2.0)]
        fields = rows[2].split(",")
        fields[_CSV_COLUMNS.index(column)] = value
        rows[2] = ",".join(fields)
        p.write_text("\n".join(rows) + "\n")
        with pytest.raises(ValueError) as err:
            read_spectrum_csv(str(p))
        assert str(err.value) == f"{p}:3: non-finite value in column {column}"

    @staticmethod
    def long_file(path, rows=2 * _CSV_BLOCK_ROWS + 10, edit=None):
        """A spectrum CSV of `rows` rows on the grid 0.5 * k, the line parser's
        input; edit(k, fields) may change the text fields of row k."""
        lines = [CSV_HEADER]
        for k in range(rows):
            fields = [repr(0.5 * k)] + ["0.25"] * 6
            if edit is not None:
                edit(k, fields)
            lines.append(",".join(fields))
        path.write_text("\n".join(lines) + "\n")

    def test_non_uniform_step_at_a_block_edge_rejected(self, tmp_path):
        # the one wide step is the step into the second block
        p = tmp_path / "bad.csv"

        def widen(k, fields):
            if k >= _CSV_BLOCK_ROWS:
                fields[0] = repr(0.5 * k + 0.25)

        self.long_file(p, edit=widen)
        with pytest.raises(ValueError) as err:
            read_spectrum_csv(str(p))
        assert str(err.value) == f"{p}: energy column is not a uniform increasing grid"
        # one row later, the step lies inside the block
        self.long_file(p, edit=lambda k, fields: widen(k - 1, fields))
        with pytest.raises(ValueError, match="uniform increasing grid"):
            read_spectrum_csv(str(p))

    def test_non_finite_value_in_the_last_block_names_line(self, tmp_path):
        p = tmp_path / "bad.csv"
        row = 2 * _CSV_BLOCK_ROWS + 5

        def poison(k, fields):
            if k == row:
                fields[_CSV_COLUMNS.index("A_ohmic")] = "nan"

        self.long_file(p, edit=poison)
        with pytest.raises(ValueError) as err:
            read_spectrum_csv(str(p))
        # the header is line 1
        assert str(err.value) == f"{p}:{row + 2}: non-finite value in column A_ohmic"

    def test_long_file_reads_without_the_line_parser(self, tmp_path, monkeypatch):
        p = tmp_path / "long.csv"
        self.long_file(p)
        monkeypatch.setattr(csvio, "_parse_lines", None)
        spec = read_spectrum_csv(str(p))
        assert spec.grid == ProbeGrid(0.0, 0.5 * (2 * _CSV_BLOCK_ROWS + 9), 2 * _CSV_BLOCK_ROWS + 10)
        assert np.all(spec.A_channels["ohmic"] == 0.25)

    def test_blank_lines_read_without_the_line_parser(self, tmp_path, monkeypatch):
        # blank lines inside the first block, as its last line, and a last block of
        # blank lines only; the header is line 1
        p = tmp_path / "blank.csv"
        self.long_file(p, rows=2 * _CSV_BLOCK_ROWS - 3)
        lines = p.read_text().split("\n")
        for lineno in (12, _CSV_BLOCK_ROWS + 1):
            lines.insert(lineno - 1, "")
        p.write_text("\n".join(lines) + "\n" * 4)
        want = line_parser_read(str(p))
        monkeypatch.setattr(csvio, "_parse_lines", None)
        got = read_spectrum_csv(str(p))
        assert got.grid == want.grid and got.grid.n_points == 2 * _CSV_BLOCK_ROWS - 3
        assert got.T.tobytes() == want.T.tobytes()
        assert got.A_channels["ohmic"].tobytes() == want.A_channels["ohmic"].tobytes()

    def test_decreasing_grid_rejected(self, tmp_path):
        p = tmp_path / "bad.csv"
        rows = [CSV_HEADER]
        for e in (2.0, 1.0, 0.0):
            rows.append(",".join([str(e)] + ["0"] * 6))
        p.write_text("\n".join(rows) + "\n")
        with pytest.raises(ValueError, match="uniform increasing grid"):
            read_spectrum_csv(str(p))


def allocation_peak(call):
    """Bytes allocated at the peak of call(), above those allocated at its start."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


class TestMemoryBound:
    """An output stage holds one block of rows on top of the Spectrum it reads
    or returns: its peak grows with the grid by a few float columns at most.
    A sweep holds one chunk on top of the Spectrum it returns."""

    SIZES = (10001, 30001)

    @pytest.fixture(scope="class")
    def outputs(self, preset, tmp_path_factory):
        """(spectrum, CSV path) per grid size; each CSV is already written."""
        net, wg = preset
        out = {}
        for n in self.SIZES:
            spec = sweep_spectrum(net, wg, default_grid(net, n_points=n))
            path = tmp_path_factory.mktemp("memory") / "baseline.csv"
            write_spectrum_csv(str(path), spec)
            out[n] = spec, path
        return out

    @staticmethod
    def spectrum_command(spec, path):
        """`excitonprobe spectrum --svg` on the spectrum's grid."""
        config = path.with_name("run.json")
        grid = spec.grid
        config.write_text(json.dumps({
            "grid": {"e_min": grid.e_min, "e_max": grid.e_max, "n_points": grid.n_points},
            "output_dir": str(path.with_name("out"))}))
        assert main(["spectrum", "--config", str(config), "--svg"]) == 0

    # stage -> (bytes per added grid point allowed, the call on a spectrum and its CSV)
    STAGES = {
        "write_spectrum_csv": (16, lambda spec, path: write_spectrum_csv(str(path), spec)),
        "write_overlay": (24, lambda spec, path: write_overlay(str(path.with_suffix(".svg")),
                                                               spec)),
        # the six returned columns (48 B) and a little slack
        "read_spectrum_csv": (50, lambda spec, path: read_spectrum_csv(str(path))),
        # the sign of each step and -T for the dips
        "dip_count": (16, lambda spec, path: dip_count(spec)),
        # the kept T column and a little slack
        "spectrum_command": (10, lambda spec, path: TestMemoryBound.spectrum_command(spec, path)),
        # the T column, and the fit's arrays over its window, a tenth of the grid
        "fano_command": (16, lambda spec, path: main(["fano", "--spectrum", str(path),
                                                      "--window", "520,620"])),
    }

    @pytest.mark.parametrize("stage", list(STAGES))
    def test_peak_grows_by_a_few_columns_per_point(self, outputs, stage):
        per_point, call = self.STAGES[stage]
        small, large = (allocation_peak(lambda: call(*outputs[n])) for n in self.SIZES)
        growth = (large - small) / (self.SIZES[1] - self.SIZES[0])
        assert growth <= per_point, f"{stage}: {growth:.1f} B per grid point"

    # A pass of the defect screen: the 7-site preset on the default 2001 points.
    @pytest.mark.parametrize("solver", ["closed_form", "direct"])
    def test_preset_sweep_peak(self, preset, solver):
        net, wg = preset
        grid = default_grid(net)
        peak = allocation_peak(lambda: sweep_spectrum(net, wg, grid, solver=solver))
        assert peak <= 1.0e6, f"{solver}: {peak / 1e6:.2f} MB"

    @pytest.mark.parametrize("solver", ["closed_form", "direct"])
    def test_lu_chunk_holds_one_stack(self, preset, solver):
        # the stack of a chunk's matrices is built in place, not out of E*I and H
        net, wg = preset
        amplitudes, chunk = scattering._KERNELS[solver](net, wg)
        size = net.n_sites + 2 if solver == "direct" else net.n_sites
        stack = 16 * size * size * chunk
        energies = np.linspace(-300.0, 300.0, chunk)
        peak = allocation_peak(lambda: amplitudes(energies))
        assert peak <= 1.5 * stack, f"{solver}: {peak / stack:.2f} stacks"

    def test_preset_csv_write_peak(self, baseline_spectrum, tmp_path):
        path = tmp_path / "baseline.csv"
        peak = allocation_peak(lambda: write_spectrum_csv(str(path), baseline_spectrum))
        assert peak <= 0.8e6, f"{peak / 1e6:.2f} MB"


MALFORMED = {
    "non-finite": lambda rows: rows.__setitem__(3, rows[3].replace("0.5,", "inf,", 1)),
    "non-numeric": lambda rows: rows.__setitem__(2, rows[2] + "x"),
    "columns": lambda rows: rows.__setitem__(4, rows[4] + ",1"),
    "non-uniform": lambda rows: rows.__setitem__(5, "9" + rows[5]),
    "one-row": lambda rows: rows.__delitem__(slice(2, None)),
}


@pytest.mark.parametrize("kind", list(MALFORMED))
def test_fano_reports_the_readers_error(tmp_path, capsys, kind):
    # fano reads only the grid and T, but checks every column as the reader does
    rows = [CSV_HEADER] + [",".join([repr(float(e))] + ["0.5"] * 6) for e in range(12)]
    MALFORMED[kind](rows)
    p = tmp_path / "bad.csv"
    p.write_text("\n".join(rows) + "\n")
    with pytest.raises(ValueError) as err:
        read_spectrum_csv(str(p))
    capsys.readouterr()
    assert main(["fano", "--spectrum", str(p), "--window", "0,11"]) == 1
    assert capsys.readouterr().err == f"error: {err.value}\n"


class TestStreamedSweep:
    """The spectrum command writes each chunk of the sweep as it is solved."""

    @pytest.mark.parametrize("solver", ["closed_form", "direct"])
    def test_same_bytes_as_the_written_sweep(self, preset, tmp_path, solver):
        net, wg = preset
        # several sweep chunks of 334 (LU) or 202 (direct) rows and CSV blocks
        grid = default_grid(net, n_points=9001)
        self.assert_same_bytes(net, wg, grid, solver, tmp_path)

    def test_chunk_longer_than_a_block(self, tmp_path):
        # one site: an LU chunk holds 16384 rows, a CSV block 1024
        net, wg = single_emitter(epsilon=0.3, gamma=2.0)
        self.assert_same_bytes(net, wg, ProbeGrid(-50.0, 50.0, 70001), "closed_form", tmp_path)

    @staticmethod
    def assert_same_bytes(net, wg, grid, solver, tmp_path):
        want, got = tmp_path / "want.csv", tmp_path / "got.csv"
        spec = sweep_spectrum(net, wg, grid, solver=solver)
        write_spectrum_csv(str(want), spec)
        kept = csvio._write_sweep_csv(str(got), net, wg, grid, solver)
        assert got.read_bytes() == want.read_bytes()
        assert kept.grid == grid and kept.T.tobytes() == spec.T.tobytes()

    def test_file_cut_by_a_pole_is_removed(self, tmp_path, monkeypatch):
        # a lossless site exactly at a grid point far above the nudge's reach;
        # ten points per chunk, so seven chunks are written before the pole
        grid = ProbeGrid(1e6 - 0.05, 1e6 + 0.05, 101)
        net, wg = single_emitter(epsilon=grid.energies([77])[0], g=1.0)
        monkeypatch.setattr(scattering, "_LU_CHUNK_BYTES", 10 * 16)
        assert scattering._KERNELS["closed_form"](net, wg)[1] == 10
        path = tmp_path / "cut.csv"
        with pytest.raises(PoleError) as err:
            csvio._write_sweep_csv(str(path), net, wg, grid, "closed_form")
        assert err.value.grid_index == 77
        assert not path.exists()


class TestFanoCsv:
    def test_rows_and_header(self, tmp_path):
        fit = FanoFit(q=1.5, e_res=600.0, gamma_w=25.0, t_bg=0.8,
                      residual=1e-9, converged=True, iterations=12)
        p = tmp_path / "fits.csv"
        write_text(str(p), format_fano_table([("window-1", fit)]))
        lines = p.read_text().splitlines()
        assert lines[0] == FANO_CSV_HEADER
        assert lines[1].startswith("window-1,")
        assert lines[1].endswith(",true")
        assert len(lines) == 2
