import dataclasses
from pathlib import Path

import numpy as np
import pytest

from excitonprobe.csvio import (
    _CSV_BLOCK_ROWS,
    CSV_HEADER,
    FANO_CSV_HEADER,
    read_spectrum_csv,
    write_spectrum_csv,
    write_fano_csv,
)
from excitonprobe.fano import FanoFit
from excitonprobe.model import ProbeGrid
from excitonprobe.scattering import Spectrum


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
        n = 2 * _CSV_BLOCK_ROWS + len(self.AWKWARD)
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


class TestReaderValidation:
    def test_missing_header(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("1,2,3\n")
        with pytest.raises(ValueError, match="expected header"):
            read_spectrum_csv(str(p))

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

    def test_decreasing_grid_rejected(self, tmp_path):
        p = tmp_path / "bad.csv"
        rows = [CSV_HEADER]
        for e in (2.0, 1.0, 0.0):
            rows.append(",".join([str(e)] + ["0"] * 6))
        p.write_text("\n".join(rows) + "\n")
        with pytest.raises(ValueError, match="uniform increasing grid"):
            read_spectrum_csv(str(p))


class TestFanoCsv:
    def test_rows_and_header(self, tmp_path):
        fit = FanoFit(q=1.5, e_res=600.0, gamma_w=25.0, t_bg=0.8,
                      residual=1e-9, converged=True, iterations=12)
        p = tmp_path / "fits.csv"
        write_fano_csv(str(p), [("window-1", fit)])
        lines = p.read_text().splitlines()
        assert lines[0] == FANO_CSV_HEADER
        assert lines[1].startswith("window-1,")
        assert lines[1].endswith(",true")
        assert len(lines) == 2
