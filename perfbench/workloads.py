"""The three benchmark workloads: inputs from a seed, one timed pass, checks.

Each workload makes its inputs from the seed alone, builds (net, wg, grid)
in `setup`, runs the program in `run_pass` (the timed part) and checks the
outputs in `check` (untimed). The package is reached only through its public
functions, looked up on their modules at call time so that a tracer can
rebind them. See README.md for why these three were chosen.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
from pathlib import Path

import numpy as np

from gate import csv_row

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference" / "fmo-defect-suite.json"

ORACLE_POINTS = 16
PRESET_SITES = 7
PRESET_PORTS = (1, 6)


def _cli(argv):
    """Run the console entry point; returns (exit code, captured stdout)."""
    from excitonprobe import cli
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def _oracle_indices(rng, n_points):
    return np.sort(rng.choice(n_points, size=min(ORACLE_POINTS, n_points), replace=False))


def _windows(fractions, net):
    """Fit windows from seeded fractions: one near-resonance window per row.

    The centre sits within 10 cm^-1 of a seeded eigenvalue of the network's
    Hermitian part and the width is 60-140 cm^-1, the scale of the
    resonances the fit is meant for.
    """
    levels = np.linalg.eigvalsh(np.diag(net.epsilon) + net.coupling)
    out = []
    for pick, jitter, width in fractions:
        centre = levels[min(int(pick * levels.size), levels.size - 1)] + 20.0 * (jitter - 0.5)
        half = 30.0 + 40.0 * width
        out.append((float(centre - half), float(centre + half)))
    return out


def _fano_rows(stdout):
    from excitonprobe.csvio import FANO_CSV_HEADER
    lines = stdout.splitlines()
    start = lines.index(FANO_CSV_HEADER) + 1 if FANO_CSV_HEADER in lines else len(lines)
    return [line.split(",") for line in lines[start:] if line]


def preset_defects():
    """Every single structural defect of the preset: 21 inhibits, 5 removals."""
    entries = [{"type": "inhibit_coupling", "site_a": a, "site_b": b}
               for a in range(1, PRESET_SITES + 1) for b in range(a + 1, PRESET_SITES + 1)]
    entries += [{"type": "remove_site", "site": s}
                for s in range(1, PRESET_SITES + 1) if s not in PRESET_PORTS]
    return entries


def defect_label(entry):
    if entry["type"] == "inhibit_coupling":
        return f"inhibit-J-{entry['site_a']}-{entry['site_b']}"
    return f"remove-site-{entry['site']}"


class _CliWorkload:
    """Shared set-up of the two workloads that drive the FMO preset through the CLI."""

    def __init__(self, seed, workdir, n_points):
        self.rng = np.random.default_rng(seed)
        self.workdir = Path(workdir)
        self.out_dir = self.workdir / "out"
        self.config_path = self.workdir / "run.json"
        self.n_points = n_points
        self.oracle_ix = _oracle_indices(self.rng, n_points)

    def _set_up(self, extra):
        """Write the run config (preset grid at the stated size, plus `extra(net)`) and build from it."""
        from excitonprobe import config, model, scattering
        net, _ = model.fmo_preset()
        grid = scattering.default_grid(net, n_points=self.n_points)
        cfg = {"grid": {"e_min": grid.e_min, "e_max": grid.e_max, "n_points": grid.n_points},
               "output_dir": str(self.out_dir), **extra(net)}
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.config_path.write_text(json.dumps(cfg, indent=1), encoding="utf-8")
        self.net, self.wg, self.grid = config.build_setup(config.parse_config(str(self.config_path)))
        self.energies = self.grid.energies()

    def describe(self):
        return {"N": self.net.n_sites, "grid_points": self.grid.n_points}

    def _clear_outputs(self):
        """Remove a checked pass's files, so that the next pass is checked on its own."""
        shutil.rmtree(self.out_dir, ignore_errors=True)

    def _check_baseline(self, gate, spec):
        """Flux, oracle and CSV round trip of the preset baseline read from its CSV."""
        from excitonprobe import scattering
        gate.flux_balance("baseline", spec)
        t_direct = [scattering.solve_direct(self.net, self.wg, self.energies[i]).flux.transmitted
                    for i in self.oracle_ix]
        gate.oracle("baseline", spec.T[self.oracle_ix], t_direct)
        for i in self.oracle_ix:
            sol = scattering.solve_closed_form(self.net, self.wg, self.energies[i])
            gate.csv_round_trip("baseline", csv_row(spec, i), sol, self.energies[i])


class FmoDefectSuite(_CliWorkload):
    """The paper's use case: every single defect of the preset, scored against the baseline."""

    name = "fmo-defect-suite"
    sizes = {"full": 2001, "tiny": 401}
    probes = 3
    fit_windows = 3

    def __init__(self, seed, workdir, size="full"):
        super().__init__(seed, workdir, self.sizes[size])
        # log-uniform port amplitudes in [0.01, 100] for sites 1 and 6
        self.probe_ports = {f"probe-{k + 1}": tuple(zip(PRESET_PORTS, 10.0 ** self.rng.uniform(-2, 2, 2)))
                            for k in range(self.probes)}
        self.window_fractions = self.rng.uniform(0, 1, (self.fit_windows, 3))

    def setup(self):
        scenarios = preset_defects() + [
            {"type": "set_port_amplitudes", "ports": [list(p) for p in ports], "label": label}
            for label, ports in self.probe_ports.items()]
        self._set_up(lambda net: {
            "scenarios": scenarios,
            "fit_windows": [list(w) for w in _windows(self.window_fractions, net)]})
        self.reference = json.loads(REFERENCE.read_text(encoding="utf-8"))["grids"][str(self.n_points)]
        return self

    def run_pass(self, gate):
        rc, _ = _cli(["scenario", "--config", str(self.config_path)])
        gate.check("cli scenario exit code", rc == 0, f"exit {rc}")
        rc, fano_out = _cli(["fano", "--spectrum", str(self.out_dir / "baseline.csv"),
                             "--config", str(self.config_path)])
        gate.check("cli fano exit code", rc == 0, f"exit {rc}")
        return {"spectra": 1 + len(preset_defects()) + self.probes, "fano_out": fano_out}

    def check(self, gate, out):
        from excitonprobe import csvio, scattering, scenarios
        report = json.loads((self.out_dir / "report.json").read_text(encoding="utf-8"))
        gate.dips("baseline", report["baseline"]["dip_count"])
        base = csvio.read_spectrum_csv(report["baseline"]["csv"])
        self._check_baseline(gate, base)
        ref = self.reference
        idx = np.arange(0, self.n_points, ref["sample_every"])
        gate.reference("baseline", 0, base.T[idx], ref["spectra"]["baseline"])

        entries = report["scenarios"]
        gate.check("scenario count", len(entries) == len(preset_defects()) + self.probes,
                   f"{len(entries)} entries")
        for entry in entries:
            label = entry["label"]
            if not gate.check(f"{label}: scenario ok", entry.get("ok"), entry.get("error", "")):
                continue
            spec = csvio.read_spectrum_csv(entry["csv"])
            gate.flux_balance(label, spec)
            if label in self.probe_ports:
                d_net, d_wg = scenarios.apply_defect(
                    self.net, self.wg, scenarios.SetPortAmplitudes(self.probe_ports[label]))
                t_direct = [scattering.solve_direct(d_net, d_wg, self.energies[i]).flux.transmitted
                            for i in self.oracle_ix]
                gate.oracle(label, spec.T[self.oracle_ix], t_direct)
            elif gate.check(f"{label}: has a reference", label in ref["spectra"]):
                gate.reference(label, entry["diff"]["extrema_delta"], spec.T[idx],
                               ref["spectra"][label])
        rows = _fano_rows(out["fano_out"])
        gate.check("fano fit rows", len(rows) == self.fit_windows, f"{len(rows)} rows")
        self._clear_outputs()


class FmoFineSpectrum(_CliWorkload):
    """One preset spectrum on a very fine grid, written as CSV and SVG, then Fano fits."""

    name = "fmo-fine-spectrum"
    sizes = {"full": 120001, "tiny": 4001}
    fit_windows = 4

    def __init__(self, seed, workdir, size="full"):
        super().__init__(seed, workdir, self.sizes[size])
        self.window_fractions = self.rng.uniform(0, 1, (self.fit_windows, 3))

    def setup(self):
        self._set_up(lambda net: {})
        self.windows = _windows(self.window_fractions, self.net)
        return self

    def run_pass(self, gate):
        rc, _ = _cli(["spectrum", "--config", str(self.config_path), "--svg"])
        gate.check("cli spectrum exit code", rc == 0, f"exit {rc}")
        argv = ["fano", "--spectrum", str(self.out_dir / "baseline.csv")]
        for lo, hi in self.windows:
            argv.append(f"--window={lo!r},{hi!r}")
        rc, fano_out = _cli(argv)
        gate.check("cli fano exit code", rc == 0, f"exit {rc}")
        return {"spectra": 1, "fano_out": fano_out}

    def check(self, gate, out):
        from excitonprobe import csvio, scenarios
        spec = csvio.read_spectrum_csv(self.out_dir / "baseline.csv")
        gate.check("grid size", spec.grid.n_points == self.n_points, f"{spec.grid.n_points} rows")
        gate.dips("baseline", scenarios.dip_count(spec))
        self._check_baseline(gate, spec)
        svg = (self.out_dir / "baseline.svg").read_text(encoding="utf-8")
        gate.check("svg document", "<polyline" in svg and svg.rstrip().endswith("</svg>"))
        rows = _fano_rows(out["fano_out"])
        gate.check("fano fit rows", len(rows) == self.fit_windows, f"{len(rows)} rows")
        self._clear_outputs()


class LargeRandomSweep:
    """A dense seeded random network: the O(N^3) solves and O(N^2) validation do the work."""

    name = "large-random-sweep"
    sizes = {"full": (200, 501), "tiny": (16, 41)}

    def __init__(self, seed, workdir, size="full"):
        rng = np.random.default_rng(seed)
        n, self.n_points = self.sizes[size]
        # in the style of tests/randnets.py, at the scale of a large complex
        self.epsilon = rng.uniform(-300.0, 300.0, n)
        J = np.triu(rng.uniform(-50.0, 50.0, (n, n)), 1)
        self.coupling = J + J.T
        self.losses = {"dephasing": rng.uniform(0.0, 5.0, n),
                       "ohmic": rng.uniform(0.0, 1.0, n),
                       "sink": rng.uniform(0.0, 2.0, n)}
        self.ports = ((1, 10.0), (n // 2, 10.0))
        self.oracle_ix = _oracle_indices(rng, self.n_points)

    def setup(self):
        from excitonprobe import model, scattering
        bd = model.LossBreakdown(**self.losses)
        self.net = model.SiteNetwork(n_sites=self.epsilon.size, epsilon=self.epsilon,
                                     coupling=self.coupling, loss=bd.total(), loss_breakdown=bd)
        self.wg = model.WaveguideCoupling(ports=self.ports)
        self.grid = scattering.default_grid(self.net, n_points=self.n_points)
        self.energies = self.grid.energies()
        return self

    def describe(self):
        return {"N": self.net.n_sites, "grid_points": self.grid.n_points}

    def run_pass(self, gate):
        from excitonprobe import scattering
        out = {"spectra": 1, "error": None}
        try:
            out["spec"] = scattering.sweep_spectrum(self.net, self.wg, self.grid,
                                                    solver="closed_form")
            out["direct"] = [scattering.solve_direct(self.net, self.wg, self.energies[i])
                             for i in self.oracle_ix]
        except scattering.PoleError as exc:
            out["error"] = str(exc)
        return out

    def check(self, gate, out):
        if not gate.check("random: no escaped PoleError", out["error"] is None, out["error"]):
            return
        gate.flux_balance("random", out["spec"])
        gate.oracle("random", out["spec"].T[self.oracle_ix],
                    [sol.flux.transmitted for sol in out["direct"]])


WORKLOADS = {w.name: w for w in (FmoDefectSuite, LargeRandomSweep, FmoFineSpectrum)}

