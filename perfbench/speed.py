"""Host-speed probe: times a fixed reference kernel next to the measured work.

On a shared host the same pass can take 1.6x longer from one minute to the
next. The benchmark therefore times a short reference kernel whose code never
changes, in the same process and at the same time as the work: during a
pass a timer runs it at a fixed wall-clock interval, and after set-up it
runs a few times back to back. Times are rescaled to a host on which the
reference takes NOMINAL_S. The reference is benchmark code, never the
package, so a change to the package cannot change it.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.4
# Sets the scale only: about the median reference time on a 2-vCPU x86-64
# machine (numpy 2.4, OpenBLAS 0.3.31, one BLAS thread).
NOMINAL_S = 0.02

_rng = np.random.default_rng(20261017)
_N_SMALL, _N_LARGE = 7, 200
_H = np.diag(_rng.uniform(-300, 300, _N_SMALL) - 0.5j * _rng.uniform(0, 80, _N_SMALL))
_H = _H + np.triu(_rng.uniform(-50, 50, (_N_SMALL, _N_SMALL)), 1)
_H = np.triu(_H) + np.triu(_H, 1).T
_W = np.zeros(_N_SMALL, complex)
_W[[0, 5]] = 10.0
_ENERGIES = np.linspace(-300.0, 300.0, 500)
_B = _rng.standard_normal((_N_LARGE, _N_LARGE)) + 1j * _rng.standard_normal((_N_LARGE, _N_LARGE))
_B += _N_LARGE * np.eye(_N_LARGE)
_b = np.ones(_N_LARGE, complex)


def reference_kernel():
    """Per-point Python loops and small dense solves, plus one mid-size solve."""
    acc = 0.0
    eye = np.eye(_N_SMALL)
    for energy in _ENERGIES:
        for i in range(_N_SMALL):
            for j in range(i + 1, _N_SMALL):
                acc += _H[i, j] == _H[j, i]
        y = np.linalg.solve(energy * eye - _H, _W)
        acc += abs(1.0 / (1.0 + 1j * (_W @ y))) ** 2
    acc += abs(np.linalg.solve(_B, _b)[0])
    return acc


def speed_factor(durations):
    """Mean of NOMINAL_S / duration: above 1 when the host ran faster than nominal."""
    return statistics.fmean(NOMINAL_S / d for d in durations)


def time_reference(runs):
    durations = []
    for _ in range(runs):
        start = time.perf_counter()
        reference_kernel()
        durations.append(time.perf_counter() - start)
    return durations


class SpeedProbe:
    """Runs the reference kernel every INTERVAL_S of wall time while started."""

    def __init__(self):
        self.samples = []

    def _sample(self, _signum, _frame):
        start = time.perf_counter()
        reference_kernel()
        self.samples.append(time.perf_counter() - start)

    def __enter__(self):
        self.samples = []
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def normalised_seconds(self, elapsed):
        """Pass time without the probe's own time, at the nominal host speed."""
        if not self.samples:
            return elapsed
        return (elapsed - sum(self.samples)) * speed_factor(self.samples)
