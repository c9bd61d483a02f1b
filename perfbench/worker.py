"""One workload process, started by run.py: set up, then timed passes.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1
        --mode setup|run --t0-ns NS --workdir DIR [--size full|tiny] [--spans PATH]

`--t0-ns` is the launcher's CLOCK_MONOTONIC reading just before it started
this process, so `setup_s` covers interpreter start, imports and set-up.
The result is one JSON line on stdout; the program's own printing is
captured and never reaches stdout.
"""

from __future__ import annotations

import argparse
import importlib
import json
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from gate import Gate  # noqa: E402
from speed import SpeedProbe, speed_factor, time_reference  # noqa: E402
from tracer import PACKAGE, TRACED, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# Reference-kernel runs right after set-up, to rescale set-up time.
SETUP_REFERENCE_RUNS = 8


def _blas_library():
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        return "unknown"


def provenance():
    import numpy
    import scipy
    import excitonprobe
    return {"package_version": excitonprobe.__version__,
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas_library": _blas_library()}


def run_passes(workload, seconds, tracer):
    """Closed loop, one client: the next pass starts when the previous one ends.

    Untraced passes run under the host-speed probe; traced passes do not, so
    the probe never shows up in a span.
    """
    gate = Gate()
    passes = []
    timed = 0.0
    while not passes or timed < seconds:
        probe = SpeedProbe() if tracer is None else None
        try:
            with tracer.span("bench.pass") if tracer else probe:
                start = time.perf_counter()
                out = workload.run_pass(gate)
                elapsed = time.perf_counter() - start
            with tracer.paused() if tracer else nullcontext():
                workload.check(gate, out)
        except Exception:
            gate.check("pass raised", False, traceback.format_exc(limit=3))
            break
        timed += elapsed
        passes.append({"seconds": elapsed, "spectra": out["spectra"],
                       "normalised_seconds": probe.normalised_seconds(elapsed) if probe else elapsed,
                       "probe_samples": len(probe.samples) if probe else 0})
    return gate, passes


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--mode", choices=("setup", "run"), required=True)
    p.add_argument("--t0-ns", type=int, required=True)
    p.add_argument("--workdir", required=True)
    p.add_argument("--size", choices=("full", "tiny"), default="full")
    p.add_argument("--spans")
    args = p.parse_args(argv)

    workload = WORKLOADS[args.workload](args.seed, args.workdir, args.size)
    for module in TRACED:
        importlib.import_module(f"{PACKAGE}.{module}")
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    try:
        with tracer.span("bench.setup") if tracer else nullcontext():
            workload.setup()
        raw_setup_s = (time.monotonic_ns() - args.t0_ns) / 1e9
        result = {"setup_s": raw_setup_s * speed_factor(time_reference(SETUP_REFERENCE_RUNS)),
                  "raw_setup_s": raw_setup_s,
                  "workload": workload.describe(), "provenance": provenance()}
        if args.mode == "run":
            gate, passes = run_passes(workload, args.seconds, tracer)
            def median_rate(seconds_key):
                return statistics.median(p["spectra"] / p[seconds_key] for p in passes) \
                    if passes else 0.0
            result.update(
                passes=passes,
                spectra_per_s=median_rate("normalised_seconds"),
                raw_spectra_per_s=median_rate("seconds"),
                peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
                attempted=gate.attempted, failed=gate.failed, failures=gate.failures[:20])
            if tracer:
                tracer.active = False
                layers, bases = tracer.summarize("bench.pass")
                layers["scattering.oracle_residual"] = {
                    "value": gate.oracle_residual,
                    "basis": "max |T_closed - T_direct| over the checked oracle points"}
                layers["fail_ratio"] = {
                    "value": gate.failed / max(gate.attempted, 1),
                    "basis": f"{gate.failed} failed of {gate.attempted} attempted operations"}
                result.update(layers=layers, bases=bases)
                if args.spans:
                    tracer.write_spans(args.spans, {"workload": args.workload, "seed": args.seed,
                                                    **result["workload"], **result["provenance"]})
    finally:
        if tracer:
            tracer.uninstall()
        shutil.rmtree(args.workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
