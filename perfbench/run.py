"""excitonprobe benchmark: runs one workload and prints its metrics.

    python3 perfbench/run.py --workload fmo-defect-suite --seed 1 --seconds 5 --trace 0

Run from the root of a source checkout; the package is imported from src/.
Each call starts fresh worker processes with a fixed BLAS thread count:
several that only set up (for `setup_s`) and one untraced run that gives
the end-to-end metrics. With --trace 1 a traced run, which gives the
per-layer metrics, comes before the untraced one; the tracing overhead is
the untraced over the traced raw spectra_per_s, and the untraced run is
skipped if it might not end by the deadline. Every stdout line but the last
is a human-readable table; the last is one JSON object. A result file goes
to perfbench/results/.

The exit code is non-zero if any output fails its correctness check, if a
worker fails, or if src/excitonprobe is missing.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"

SETUP_PROBES = 2
# One BLAS thread: a single-threaded baseline. On a 2-core machine six
# 101-point sweeps of the 200-site network took 1.23-1.99 s each with two
# threads and 1.95-2.06 s with one.
BLAS_THREADS = 1
# Every worker of one call must end by then, so the call ends within 180 s.
DEADLINE_S = 170.0

END_TO_END = {
    "setup_s": "s",
    "spectra_per_s": "1/s",
    "peak_rss_mb": "MB",
}

# Per-layer metrics reported by a traced run, with their units.
PER_LAYER = {
    "model.validate_network.calls": "calls/pass",
    "model.validate_network.self_s": "s/pass",
    "scattering.solve_closed_form.calls": "calls/pass",
    "scattering.effective_hamiltonian.calls": "calls/pass",
    "scattering.sweep_spectrum.self_s": "s/pass",
    "scattering.points_per_s": "1/s",
    "scattering.solve_direct.calls": "calls/pass",
    "scattering.solve_direct.self_s": "s/pass",
    "scattering.flops_computed": "flop/pass",
    "scattering.kernel_bytes_computed": "B",
    "scattering.pole_retries": "count/pass",
    "scattering.max_flux_residual": "1",
    "scattering.oracle_residual": "1",
    "scenarios.apply_defect.self_s": "s/pass",
    "scenarios.spectral_difference.self_s": "s/pass",
    "scenarios.find_extrema.self_s": "s/pass",
    "scenarios.run_scenario_suite.self_s": "s/pass",
    "csvio.write_spectrum_csv.self_s": "s/pass",
    "csvio.read_spectrum_csv.self_s": "s/pass",
    "csvio.bytes_written": "B/pass",
    "svgplot.write_overlay.self_s": "s/pass",
    "fano.fit_fano.self_s": "s/pass",
    "fano.iterations": "iter/fit",
    "fano.converged_ratio": "ratio",
    "config.parse_config.self_s": "s/pass",
    "config.build_setup.self_s": "s/pass",
    "cli.main.self_s": "s/pass",
    "fail_ratio": "ratio",
}


def unit_of(metric):
    if metric in PER_LAYER:
        return PER_LAYER[metric]
    return "calls/pass" if metric.endswith(".calls") else "s/pass"


class WorkerError(RuntimeError):
    pass


def git_commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown (not a git checkout)"


def worker_env(threads):
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    return env


def _die_with_parent():
    """Runs in the worker before exec: the kernel kills it if the launcher dies."""
    PR_SET_PDEATHSIG = 1
    ctypes.CDLL(None, use_errno=True).prctl(PR_SET_PDEATHSIG, signal.SIGKILL)


def run_worker(args, mode, trace, env, deadline, spans=None):
    workdir = RESULTS / f"work-{os.getpid()}-{mode}-{trace}"
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise WorkerError(f"no time left for the {mode} worker")
    t0 = time.monotonic_ns()
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace),
           "--mode", mode, "--t0-ns", str(t0), "--workdir", str(workdir), "--size", args.size]
    if spans:
        cmd += ["--spans", str(spans)]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=remaining, preexec_fn=_die_with_parent)
    except subprocess.TimeoutExpired:
        raise WorkerError(f"{mode} worker ran past the {DEADLINE_S:.0f} s deadline") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"{mode} worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("fmo-defect-suite", "large-random-sweep", "fmo-fine-spectrum"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny shrinks every workload for the benchmark's own tests")
    args = p.parse_args(argv)

    if not (ROOT / "src" / "excitonprobe" / "__init__.py").is_file():
        print(f"perfbench: no package sources at {ROOT / 'src' / 'excitonprobe'}", file=sys.stderr)
        return 2
    RESULTS.mkdir(exist_ok=True)
    nproc = len(os.sched_getaffinity(0))
    threads = min(BLAS_THREADS, nproc)
    env = worker_env(threads)
    deadline = time.monotonic() + DEADLINE_S
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        setups = [run_worker(args, "setup", 0, env, deadline) for _ in range(SETUP_PROBES)]
        traced = untraced = None
        if args.trace:
            started = time.monotonic()
            traced = run_worker(args, "run", 1, env, deadline,
                                spans=RESULTS / f"spans-{args.workload}.jsonl")
            # Here the untraced worker only measures the tracing overhead: skip it
            # when a run as long as the traced one might not end by the deadline.
            took = time.monotonic() - started
            if deadline - time.monotonic() > 1.3 * took + 10:
                untraced = run_worker(args, "run", 0, env, deadline)
        else:
            untraced = run_worker(args, "run", 0, env, deadline)
    except (WorkerError, json.JSONDecodeError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    runs = [r for r in (untraced, traced) if r is not None]
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    record = {
        "provenance": {"git_commit": git_commit(), "seed": args.seed, "workload": args.workload,
                       "size": args.size, "seconds": args.seconds, "blas_threads": threads,
                       "nproc": nproc, **runs[0]["workload"], **runs[0]["provenance"]},
        "attempted": attempted, "failed": failed,
        "failures": [f for r in runs for f in r["failures"]],
    }
    table = []
    if untraced is not None:
        end_to_end = {
            "setup_s": statistics.median(r["setup_s"] for r in setups + [untraced]),
            "spectra_per_s": untraced["spectra_per_s"],
            "peak_rss_mb": untraced["peak_rss_mb"],
        }
        record.update(
            end_to_end={k: {"value": v, "unit": END_TO_END[k]} for k, v in end_to_end.items()},
            raw_spectra_per_s=untraced["raw_spectra_per_s"],
            setup_samples_s=[r["setup_s"] for r in setups + [untraced]],
            raw_setup_samples_s=[r["raw_setup_s"] for r in setups + [untraced]],
            passes=untraced["passes"])
        table += [(k, v, END_TO_END[k]) for k, v in end_to_end.items()]
    if traced is not None:
        layers = traced["layers"]
        record["per_layer"] = {k: dict(v, unit=unit_of(k)) for k, v in layers.items()}
        record["bases"] = traced["bases"]
        record["traced_passes"] = traced["passes"]
        table += [(k, layers[k]["value"], u) for k, u in PER_LAYER.items()]
        if untraced is not None:
            ratio = untraced["raw_spectra_per_s"] / traced["raw_spectra_per_s"]
            record["tracing_overhead"] = {
                "untraced_spectra_per_s": untraced["raw_spectra_per_s"],
                "traced_spectra_per_s": traced["raw_spectra_per_s"],
                "ratio": ratio,
            }
            table.append(("tracing_overhead", ratio, "ratio"))
        else:
            record["tracing_overhead"] = "not measured: no time for an untraced run"
        metrics = {k: {"value": layers[k]["value"], "unit": u} for k, u in PER_LAYER.items()}
    else:
        metrics = record["end_to_end"]
    (RESULTS / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print(f"# {args.workload} seed={args.seed} N={runs[0]['workload']['N']} "
          f"grid_points={runs[0]['workload']['grid_points']} passes={len(runs[0]['passes'])} "
          f"blas_threads={threads} nproc={nproc}")
    for name, value, unit in table:
        print(f"{name:<42} {value:>16.6g} {unit}")
    for failure in record["failures"]:
        print(f"perfbench: FAILED {failure}", file=sys.stderr)
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
