"""The benchmark's own tests, on tiny sizes: python3 -m pytest perfbench/tests -q"""

import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

from conftest import BENCH
from gate import Gate
from tracer import Tracer
from workloads import WORKLOADS, FmoFineSpectrum

ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_workload_names_match_benchmark_json():
    assert sorted(WORKLOADS) == sorted(w["name"] for w in SPEC["workloads"])


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_run_prints_every_metric_with_its_unit(workload):
    proc = run_bench("--workload", workload, "--seed", "5", "--seconds", "0.1",
                     "--trace", "1", "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    per_layer = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == per_layer
    table = {name: (float(value), unit) for name, value, unit in
             (line.split() for line in lines[1:-1])}
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert table[metric["name"]][1] == metric["unit"]
    for metric in SPEC["end_to_end"]:
        assert table[metric["name"]][0] > 0


def test_untraced_run_reports_end_to_end_metrics():
    proc = run_bench("--workload", "large-random-sweep", "--seed", "5", "--seconds", "0.1",
                     "--trace", "0", "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in result["metrics"].values())
    record = json.loads((BENCH / "results" / "large-random-sweep-seed5-trace0.json")
                        .read_text(encoding="utf-8"))
    for key in ("git_commit", "package_version", "seed", "python", "numpy", "scipy",
                "blas_library", "blas_threads", "nproc", "N", "grid_points"):
        assert key in record["provenance"]


def test_corrupted_spectrum_is_counted_as_a_failure(tmp_path):
    from excitonprobe import Spectrum, csvio
    workload = FmoFineSpectrum(seed=7, workdir=tmp_path, size="tiny").setup()
    gate = Gate()
    workload.check(gate, workload.run_pass(gate))
    assert gate.failed == 0 and gate.attempted > 0

    out = workload.run_pass(gate)
    path = workload.out_dir / "baseline.csv"
    spec = csvio.read_spectrum_csv(path)
    T = np.array(spec.T)
    T[workload.oracle_ix[0]] += 1e-6
    csvio.write_spectrum_csv(path, Spectrum(grid=spec.grid, T=T, R=spec.R,
                                            A_total=spec.A_total, A_channels=spec.A_channels,
                                            metadata=spec.metadata))
    corrupted = Gate()
    workload.check(corrupted, out)
    assert corrupted.failed == 3, corrupted.failures  # flux balance, oracle, CSV round trip


def test_tracer_records_nested_spans_and_restores_bindings():
    from excitonprobe import model, scattering
    originals = (scattering.solve_closed_form, scattering.SOLVERS["closed_form"],
                 scattering.validate_network, model.validate_network)
    net, wg = model.fmo_preset()
    grid = scattering.default_grid(net, n_points=11)
    tracer = Tracer()
    tracer.install()
    try:
        with tracer.span("bench.pass"):
            scattering.sweep_spectrum(net, wg, grid)
        with tracer.paused():
            scattering.sweep_spectrum(net, wg, grid)
    finally:
        tracer.uninstall()
    assert (scattering.solve_closed_form, scattering.SOLVERS["closed_form"],
            scattering.validate_network, model.validate_network) == originals
    layers, bases = tracer.summarize("bench.pass")
    assert bases["passes"] == 1 and bases["points_per_sweep"] == 11
    assert layers["scattering.sweep_spectrum.calls"]["value"] == 1
    assert layers["scattering.solve_closed_form.calls"]["value"] == 11
    assert layers["model.validate_network.calls"]["value"] == 11
    assert layers["scattering.kernel_bytes_computed"]["value"] == 2 * 16 * 7 ** 2
    assert layers["scattering.points_per_s"]["value"] > 0
    assert all(v["value"] >= 0 for v in layers.values())


def test_exits_nonzero_without_printing_in_a_checkout_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__", "tests"))
    proc = run_bench("--workload", "fmo-defect-suite", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
