"""In-memory span recorder wrapped around the package's public functions.

The tracer rebinds each traced function wherever the package's modules refer
to it: module attributes (including names imported from a sibling module)
and module-level dict registries such as the solver table. Nothing under the
package changes on disk, and ``uninstall`` restores every binding.

Spans live in flat arrays (one slot per field) so that a 120001-point sweep,
which makes several hundred thousand nested calls, stays a few MB.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
from array import array
from contextlib import contextmanager
from time import perf_counter_ns

import numpy as np

PACKAGE = "excitonprobe"

# Public functions traced, by module. Span names are "<module>.<function>".
TRACED = {
    "cli": ("main",),
    "config": ("parse_config", "build_setup"),
    "model": ("fmo_preset", "validate_network"),
    "scattering": ("sweep_spectrum", "solve_closed_form", "solve_direct",
                   "effective_hamiltonian"),
    "scenarios": ("apply_defect", "find_extrema", "spectral_difference",
                  "run_scenario_suite"),
    "fano": ("fit_fano",),
    "csvio": ("write_spectrum_csv", "read_spectrum_csv"),
    "svgplot": ("write_overlay",),
}


def _sweep_facts(args, kwargs, spec):
    grid = args[2] if len(args) > 2 else kwargs["grid"]
    residual = float(np.max(np.abs(1.0 - spec.T - spec.R - spec.A_total)))
    return {"points": grid.n_points, "flux_residual": residual}


def _csv_facts(args, kwargs, _result):
    return {"bytes": os.path.getsize(args[0] if args else kwargs["path"])}


def _fano_facts(_args, _kwargs, fit):
    return {"iterations": fit.iterations, "converged": bool(fit.converged)}


# Facts recorded from a call's arguments and result, at the span's end.
OBSERVERS = {
    "scattering.sweep_spectrum": _sweep_facts,
    "csvio.write_spectrum_csv": _csv_facts,
    "fano.fit_fano": _fano_facts,
}


class Tracer:
    """Records (name, start, end, parent) for every traced call while active."""

    def __init__(self):
        self.names = []
        self._name_ix = {}
        self.parent = array("q")
        self.name = array("H")
        self.start = array("q")
        self.end = array("q")
        self.n_sites = array("i")
        self.error = {}
        self.facts = {}
        self._stack = [-1]
        self._bindings = []
        self.active = False

    def _intern(self, name):
        if name not in self._name_ix:
            self._name_ix[name] = len(self.names)
            self.names.append(name)
        return self._name_ix[name]

    def _open(self, name, n_sites=0):
        sid = len(self.start)
        self.parent.append(self._stack[-1])
        self.name.append(self._intern(name))
        self.n_sites.append(n_sites)
        self.end.append(0)
        self._stack.append(sid)
        self.start.append(perf_counter_ns())
        return sid

    def _close(self, sid):
        self.end[sid] = perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name):
        """A span from the benchmark's own code, e.g. one workload pass."""
        sid = self._open(name)
        try:
            yield sid
        finally:
            self._close(sid)

    @contextmanager
    def paused(self):
        """Calls made inside (the benchmark's own checks) are not recorded."""
        was, self.active = self.active, False
        try:
            yield
        finally:
            self.active = was

    def _wrap(self, name, fn):
        observe = OBSERVERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            n_sites = getattr(args[0], "n_sites", 0) if args else 0
            sid = self._open(name, n_sites if isinstance(n_sites, int) else 0)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.error[sid] = type(exc).__name__
                raise
            finally:
                self._close(sid)
            if observe is not None:
                self.facts[sid] = observe(args, kwargs, result)
            return result

        return traced

    def install(self):
        """Rebind every reference the package holds to a traced function."""
        wrappers = {}
        for mod_name, functions in TRACED.items():
            module = importlib.import_module(f"{PACKAGE}.{mod_name}")
            for fn_name in functions:
                original = getattr(module, fn_name)
                wrappers[id(original)] = (original, self._wrap(f"{mod_name}.{fn_name}", original))
        for mod_name, module in sorted(sys.modules.items()):
            if mod_name != PACKAGE and not mod_name.startswith(PACKAGE + "."):
                continue
            namespace = vars(module)
            for key, value in list(namespace.items()):
                if id(value) in wrappers:
                    self._rebind(namespace, key, *wrappers[id(value)])
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        if id(v) in wrappers:
                            self._rebind(value, k, *wrappers[id(v)])
        self.active = True

    def _rebind(self, container, key, original, wrapper):
        self._bindings.append((container, key, original))
        container[key] = wrapper

    def uninstall(self):
        self.active = False
        for container, key, original in reversed(self._bindings):
            container[key] = original
        self._bindings.clear()

    def write_spans(self, path, header):
        """One JSON header line, then [id, parent, name, start_ns, end_ns, error]."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            for sid in range(len(self.start)):
                fh.write(json.dumps([sid, self.parent[sid], self.names[self.name[sid]],
                                     self.start[sid], self.end[sid],
                                     self.error.get(sid)]) + "\n")

    def summarize(self, root_name):
        """Per-layer metrics over the spans under each `root_name` span.

        Times and counts are per root span (per workload pass); each entry's
        `basis` says what it is divided by.
        """
        n = len(self.start)
        parent = np.frombuffer(self.parent, dtype=np.int64)[:n].copy()
        name = np.frombuffer(self.name, dtype=np.uint16)[:n].copy()
        dur = (np.frombuffer(self.end, dtype=np.int64)[:n]
               - np.frombuffer(self.start, dtype=np.int64)[:n]) / 1e9
        n_sites = np.frombuffer(self.n_sites, dtype=np.int32)[:n].astype(float)
        has_parent = parent >= 0
        child_time = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        self_time = dur - child_time

        # Root of each span; parents are always opened before their children.
        root = np.arange(n)
        for sid in range(n):
            if parent[sid] >= 0:
                root[sid] = root[parent[sid]]
        root_ix = self._name_ix.get(root_name)
        in_pass = (name[root] == root_ix) if root_ix is not None else np.zeros(n, bool)
        passes = int(np.sum(name == root_ix)) if root_ix is not None else 0
        per = max(passes, 1)

        def mask(fn_name):
            ix = self._name_ix.get(fn_name)
            return in_pass & (name == ix) if ix is not None else np.zeros(n, bool)

        def completed(fn_name):
            """Span ids of the calls in passes that returned (and so have facts)."""
            return [s for s in np.flatnonzero(mask(fn_name)) if s in self.facts]

        out = {}

        def put(metric, value, basis):
            out[metric] = {"value": float(value), "basis": basis}

        for mod_name, functions in TRACED.items():
            for fn_name in functions:
                m = mask(f"{mod_name}.{fn_name}")
                put(f"{mod_name}.{fn_name}.calls", np.sum(m) / per, "calls per pass")
                put(f"{mod_name}.{fn_name}.self_s", np.sum(self_time[m]) / per,
                    "self seconds per pass")

        sweeps = completed("scattering.sweep_spectrum")
        points = sum(self.facts[s]["points"] for s in sweeps)
        sweep_time = float(np.sum(dur[sweeps])) if sweeps else 0.0
        put("scattering.points_per_s", points / sweep_time if sweep_time else 0.0,
            "grid points per second of sweep_spectrum time")

        closed = mask("scattering.solve_closed_form")
        direct = mask("scattering.solve_direct")
        put("scattering.flops_computed",
            (np.sum(dense_solve_flops(n_sites[closed]))
             + np.sum(dense_solve_flops(n_sites[direct] + 2))) / per,
            "computed real flops of the dense complex solves per pass")

        # Points a kernel call covers: a sweep's points over the solves it made.
        solves = closed | direct
        solves_under = np.bincount(parent[solves & has_parent], minlength=n)
        kernel_bytes = 0.0
        for s in sweeps:
            per_call = self.facts[s]["points"] / max(int(solves_under[s]), 1)
            kernel_bytes = max(kernel_bytes, 2 * 16 * n_sites[s] ** 2 * per_call)
        put("scattering.kernel_bytes_computed", kernel_bytes,
            "computed bytes of the two dense complex N x N matrices one kernel call holds, "
            "largest over sweeps")

        sweep_ix = self._name_ix.get("scattering.sweep_spectrum")
        retries = sum(1 for sid, err in self.error.items()
                      if err == "PoleError" and solves[sid]
                      and parent[sid] >= 0 and name[parent[sid]] == sweep_ix)
        put("scattering.pole_retries", retries / per, "PoleErrors raised inside a sweep per pass")
        put("scattering.max_flux_residual",
            max((self.facts[s]["flux_residual"] for s in sweeps), default=0.0),
            "max |1 - T - R - A_total| over every swept point")

        put("csvio.bytes_written",
            sum(self.facts[s]["bytes"] for s in completed("csvio.write_spectrum_csv")) / per,
            "spectrum CSV bytes per pass")

        fits = [self.facts[s] for s in completed("fano.fit_fano")]
        put("fano.iterations", np.mean([f["iterations"] for f in fits]) if fits else 0.0,
            f"iterations per fit over {len(fits)} fits")
        put("fano.converged_ratio", np.mean([f["converged"] for f in fits]) if fits else 0.0,
            f"converged fits over {len(fits)} attempted fits")

        bases = {
            "passes": passes,
            "sweeps_per_pass": len(sweeps) / per,
            "points_per_sweep": points / len(sweeps) if len(sweeps) else 0.0,
            "closed_form_calls_per_sweep": float(np.sum(closed)) / len(sweeps) if len(sweeps) else 0.0,
            "spans": n,
        }
        return out, bases


def dense_solve_flops(n):
    """Real flops of an LU solve of a dense complex n x n system, one right-hand side.

    Counts a complex multiply as 6 and a complex add as 2 real flops:
    (8/3) n^3 for the factorization and 8 n^2 for the two triangular solves.
    """
    n = np.asarray(n, dtype=float)
    return (8.0 / 3.0) * n ** 3 + 8.0 * n ** 2
