import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import excitonprobe
from excitonprobe import RemoveSite, apply_defect, default_grid, fmo_preset, sweep_spectrum
from excitonprobe.csvio import _Transmission
from excitonprobe.model import ProbeGrid
from excitonprobe.svgplot import (
    MARGIN_LEFT, MARGIN_RIGHT, WIDTH, _drawn_rows, _nice_ticks, write_overlay,
)

PLOT_W = WIDTH - MARGIN_LEFT - MARGIN_RIGHT


@pytest.fixture(scope="module")
def spectra():
    net, wg = fmo_preset()
    grid = default_grid(net, n_points=401)
    defect_net, defect_wg = apply_defect(net, wg, RemoveSite(5))
    return sweep_spectrum(net, wg, grid), sweep_spectrum(defect_net, defect_wg, grid)


def sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def overlay(tmp_path, *specs, **labels):
    """The SVG text write_overlay writes for specs and labels."""
    path = tmp_path / "overlay.svg"
    write_overlay(path, *specs, **labels)
    return path.read_bytes().decode("utf-8")


class TestPinnedBytes:
    """The SVG bytes are pinned: a change to any coordinate, tick, legend
    entry or escape shows up as a new digest."""

    def test_baseline_alone(self, spectra, tmp_path):
        svg = overlay(tmp_path, spectra[0], title="baseline transmission")
        assert len(svg) == 7340
        assert sha256(svg) == "ad3efd8b2363146810cbe33995f6a278a212836dff6b8b42ec3010265a1ac772"

    def test_baseline_untitled(self, spectra, tmp_path):
        svg = overlay(tmp_path, spectra[0])
        assert len(svg) == 7226
        assert sha256(svg) == "231f3d60333e130931e1d2d13f4e3cc9581ffbda8ad3632aac630fff8a4e3b0c"

    def test_overlay_with_escaped_labels(self, spectra, tmp_path):
        svg = overlay(tmp_path, *spectra, defect_label='remove <site 5> & "J"',
                      title="site 5 < & >")
        assert "remove &lt;site 5&gt; &amp; \"J\"" in svg
        assert len(svg) == 13238
        assert sha256(svg) == "8643144495780c0758ac2959191d712eeb609d0ca0b26afe3e8382e2e65a17e0"


# Runs in a child capped at 2 GiB of address space: a tick loop that never
# ends grows its list until MemoryError, or the parent's timeout stops it.
TICK_PROBE = """
import resource, sys
cap = 2 * 2 ** 30
resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
from excitonprobe.cli import main
from excitonprobe.svgplot import _nice_ticks
for lo, hi in ((12000, 12000.000000000002), (1e16, 1e16 + 2)):
    positions = [value for value, _ in _nice_ticks(lo, hi)]
    print(len(positions), len(set(positions)))
sys.exit(main(["spectrum", "--config", sys.argv[1], "--svg"]))
"""


class TestTicks:
    def test_step_below_the_float_spacing_ends(self, tmp_path):
        # one ulp of 12000 is 1.8e-12 cm^-1, far below any tick step a sum could add
        config = tmp_path / "run.json"
        config.write_text(json.dumps({
            "grid": {"e_min": 12000, "e_max": 12000.000000000002, "n_points": 2},
            "output_dir": str(tmp_path / "out")}))
        src = str(Path(excitonprobe.__file__).resolve().parents[1])
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", TICK_PROBE, str(config)],
                              env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        # each range holds two floats, so two ticks, one at each
        assert proc.stdout.splitlines()[:2] == ["2 2", "2 2"]
        assert (tmp_path / "out" / "baseline.svg").exists()

    @pytest.mark.parametrize("lo, hi, labels", [
        # two decimals made 1.985, 1.99, 1.995 and 2.0 read 1.99, 1.99, 2 and 2
        (1.98328, 2.00372, ["1.985", "1.99", "1.995", "2"]),
        # a whole step keeps the zeros before any decimal point
        (0.0, 2000.0, ["0", "500", "1000", "1500", "2000"]),
    ], ids=["step-0.005", "step-500"])
    def test_label_has_the_decimals_of_the_step(self, lo, hi, labels):
        ticks = _nice_ticks(lo, hi)
        assert [label for _, label in ticks] == labels
        assert all(float(label) == pytest.approx(value, rel=1e-12) for value, label in ticks)


def pixel_columns(grid):
    """The plot-box pixel column of each grid point, from the whole grid at once."""
    e = np.linspace(grid.e_min, grid.e_max, grid.n_points)
    return np.minimum(np.floor((e - grid.e_min) / (grid.e_max - grid.e_min) * PLOT_W),
                      PLOT_W - 1)


class TestDrawnPoints:
    """A pixel column draws all its points up to 4, else its first, lowest,
    highest and last (M4 aggregation)."""

    # 3657 points put 3, 4 or 5 in a column (581 columns hold 4); 50001 put 54 or 55
    @pytest.mark.parametrize("n_points", [3657, 50001])
    def test_each_column_keeps_its_ends_and_extremes(self, rng, n_points):
        grid = ProbeGrid(-171.0, 893.0, n_points)
        T = rng.uniform(0.0, 1.0, n_points)
        drawn = _drawn_rows(_Transmission(grid, T), grid.e_min, grid.e_max, PLOT_W)
        assert np.all(np.diff(drawn) > 0) and drawn.size <= 4 * PLOT_W
        col = pixel_columns(grid)
        assert np.bincount(col.astype(int)).size == PLOT_W
        for c in range(PLOT_W):
            rows, kept = np.flatnonzero(col == c), drawn[col[drawn] == c]
            if rows.size <= 4:
                assert np.array_equal(kept, rows)
            else:
                assert kept[0] == rows[0] and kept[-1] == rows[-1] and kept.size <= 4
                assert T[kept].min() == T[rows].min() and T[kept].max() == T[rows].max()

    def test_svg_draws_the_kept_points(self, tmp_path):
        net, wg = fmo_preset()
        for n in (2001, 120001):
            spec = sweep_spectrum(net, wg, default_grid(net, n_points=n))
            points = re.search(r'points="([^"]*)"', overlay(tmp_path, spec)).group(1).split(" ")
            drawn = _drawn_rows(spec, spec.grid.e_min, spec.grid.e_max, PLOT_W)
            assert len(points) == drawn.size
            # at most 3 points per column: a 2001-point curve keeps every point
            assert drawn.size == 2001 if n == 2001 else drawn.size <= 4 * PLOT_W
