"""Record the reference spectra that the fmo-defect-suite gate compares against.

    python3 perfbench/record_reference.py

For the baseline and every single structural defect of the FMO preset, on
both grid sizes the workload runs at, it stores the transmission at every
`sample_every`-th grid point and the dip-count change. It goes through the
library API rather than the CLI, so the CLI is checked against an independent
path. Re-record only when the physics is meant to change.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from workloads import REFERENCE, FmoDefectSuite, defect_label, preset_defects  # noqa: E402


def main():
    from excitonprobe import (InhibitCoupling, RemoveSite, apply_defect, default_grid,
                              fmo_preset, spectral_difference, sweep_spectrum)
    net, wg = fmo_preset()
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=HERE, capture_output=True,
                            text=True).stdout.strip()
    grids = {}
    for n_points in sorted(set(FmoDefectSuite.sizes.values())):
        grid = default_grid(net, n_points=n_points)
        every = n_points // 100
        base = sweep_spectrum(net, wg, grid)
        spectra = {"baseline": {"extrema_delta": 0, "T": base.T[::every].tolist()}}
        for entry in preset_defects():
            scenario = (InhibitCoupling(entry["site_a"], entry["site_b"])
                        if entry["type"] == "inhibit_coupling" else RemoveSite(entry["site"]))
            mod = sweep_spectrum(*apply_defect(net, wg, scenario), grid)
            spectra[defect_label(entry)] = {
                "extrema_delta": spectral_difference(base, mod).extrema_delta,
                "T": mod.T[::every].tolist()}
        grids[str(n_points)] = {"sample_every": every, "spectra": spectra}
    REFERENCE.parent.mkdir(exist_ok=True)
    REFERENCE.write_text(json.dumps({"recorded_at_commit": commit, "grids": grids}) + "\n",
                         encoding="utf-8")
    print(f"wrote {REFERENCE}")


if __name__ == "__main__":
    main()
