"""Fano lineshape fitting for transmission windows.

Model: T(E) = t_bg * (q + x)^2 / (1 + x^2) with reduced detuning
x = 2 (E - e_res) / gamma_w. q sets the asymmetry (q = 0 is a symmetric
dip, |q| -> inf a symmetric peak), gamma_w the full width, t_bg the
background transmission level.

The fit is a damped Gauss-Newton iteration with analytic Jacobian:
Levenberg-style multiplicative damping on diag(J^T J), factor 10 up on a
rejected step, factor 10 down on an accepted one, starting at 1e-3.
"""

from __future__ import annotations

import bisect
from dataclasses import asdict, dataclass

import numpy as np

from .model import _real_number

MIN_WINDOW_POINTS = 8
MAX_ITERATIONS = 500
GRADIENT_TOL = 1e-10
STEP_TOL = 1e-12
INITIAL_DAMPING = 1e-3

# t_bg may exceed 1 slightly for windows riding a broad peak shoulder.
T_BG_BOUNDS = (0.0, 1.5)


@dataclass(frozen=True)
class FanoFit:
    q: float
    e_res: float
    gamma_w: float
    t_bg: float
    residual: float
    converged: bool
    iterations: int

    @property
    def params(self) -> np.ndarray:
        return np.array([self.q, self.e_res, self.gamma_w, self.t_bg])

    def as_dict(self) -> dict:
        return asdict(self)


def fano_profile(energies, q, e_res, gamma_w, t_bg):
    """Evaluate the lineshape on an energy array."""
    x = 2.0 * (np.asarray(energies, dtype=float) - e_res) / gamma_w
    return t_bg * (q + x) ** 2 / (1.0 + x ** 2)


def _residual_jacobian(params, energies, values):
    """Residuals model - data and their Jacobian w.r.t. (q, e_res, gamma_w, t_bg)."""
    q, e_res, gamma_w, t_bg = params
    x = 2.0 * (energies - e_res) / gamma_w
    u = q + x
    denom = 1.0 + x ** 2
    model = t_bg * u ** 2 / denom

    dm_dq = t_bg * 2.0 * u / denom
    dm_dx = t_bg * (2.0 * u / denom - 2.0 * x * u ** 2 / denom ** 2)
    dx_de = -2.0 / gamma_w
    dx_dg = -x / gamma_w

    J = np.empty((energies.size, 4))
    J[:, 0] = dm_dq
    J[:, 1] = dm_dx * dx_de
    J[:, 2] = dm_dx * dx_dg
    J[:, 3] = u ** 2 / denom
    return model - values, J


def fano_gradient(params, energies, values) -> np.ndarray:
    """Gradient of the squared-residual sum w.r.t. (q, e_res, gamma_w, t_bg)."""
    energies = np.asarray(energies, dtype=float)
    values = np.asarray(values, dtype=float)
    r, J = _residual_jacobian(np.asarray(params, dtype=float), energies, values)
    return 2.0 * (J.T @ r)


def _seed(energies, values):
    i_dip = int(np.argmin(values))
    i_peak = int(np.argmax(values))
    e_dip = energies[i_dip]
    e_peak = energies[i_peak]
    span = energies[-1] - energies[0]
    gamma_w = abs(e_peak - e_dip)
    if gamma_w == 0.0:
        gamma_w = span / 4.0
    q = 1.0 if e_peak > e_dip else -1.0
    t_bg = 0.5 * (values[0] + values[-1])
    t_bg = float(np.clip(t_bg, 1e-6, T_BG_BOUNDS[1]))
    return np.array([q, 0.5 * (e_dip + e_peak), gamma_w, t_bg])


def _in_bounds(params):
    return params[2] > 0.0 and T_BG_BOUNDS[0] <= params[3] <= T_BG_BOUNDS[1]


def fit_fano_window(energies, values, init=None) -> FanoFit:
    """Least-squares Fano fit on raw (energy, transmission) arrays.

    `init`, when given, is the seed (q, e_res, gamma_w, t_bg) and overrides
    the built-in heuristic; it must be finite and within the bounds every
    step keeps (gamma_w > 0, t_bg in T_BG_BOUNDS). Constant data cannot seed
    the heuristic and comes back converged=False rather than raising.
    """
    energies = np.asarray(energies, dtype=float)
    values = np.asarray(values, dtype=float)
    if energies.size < MIN_WINDOW_POINTS:
        raise ValueError(
            f"window has {energies.size} grid points, need >= {MIN_WINDOW_POINTS}"
        )

    def result(params, converged, iterations):
        r = fano_profile(energies, *params) - values
        rms = float(np.sqrt(np.mean(r ** 2)))
        return FanoFit(q=float(params[0]), e_res=float(params[1]),
                       gamma_w=float(params[2]), t_bg=float(params[3]),
                       residual=rms, converged=converged, iterations=iterations)

    if init is not None:
        params = np.asarray(init, dtype=float).copy()
        if params.shape != (4,):
            raise ValueError("init must supply (q, e_res, gamma_w, t_bg)")
        if not (np.isfinite(params).all() and _in_bounds(params)):
            raise ValueError(f"init must be finite with gamma_w > 0 and t_bg in "
                             f"{list(T_BG_BOUNDS)}, got {params.tolist()}")
    else:
        if np.ptp(values) < 1e-14:
            # flat window: nothing to locate a resonance with
            return result(_seed(energies, values), False, 0)
        params = _seed(energies, values)

    damping = INITIAL_DAMPING
    r, J = _residual_jacobian(params, energies, values)
    cost = float(r @ r)
    converged = False
    iterations = 0

    for iterations in range(1, MAX_ITERATIONS + 1):
        half_grad = J.T @ r
        if np.linalg.norm(2.0 * half_grad) < GRADIENT_TOL:
            converged = True
            break
        A = J.T @ J
        diag = np.maximum(np.diag(A), 1e-12)
        try:
            step = np.linalg.solve(A + damping * np.diag(diag), -half_grad)
        except np.linalg.LinAlgError:
            step = None
        trial = None if step is None else params + step
        if trial is not None and _in_bounds(trial):
            r_trial, J_trial = _residual_jacobian(trial, energies, values)
            cost_trial = float(r_trial @ r_trial)
            if cost_trial <= cost:
                params, r, J, cost = trial, r_trial, J_trial, cost_trial
                damping = max(damping / 10.0, 1e-12)
                if np.linalg.norm(step) < STEP_TOL:
                    converged = True
                    break
                continue
        # rejected: a singular solve, a step out of bounds or a rise in cost
        damping *= 10.0
        if damping > 1e12:
            break

    return result(params, converged, iterations)


def _fit_window(win, name: str):
    """`win` as (lo, hi): a pair of finite real numbers with lo < hi; messages name it `name`."""
    if not isinstance(win, (list, tuple)) or len(win) != 2:
        raise ValueError(f"{name} must be a [lo, hi] pair of numbers, got {win!r}")
    lo, hi = (_real_number(v, f"{name}: {end}") for end, v in zip(("lo", "hi"), win))
    if not lo < hi:
        raise ValueError(f"{name} is empty: [{lo}, {hi}]")
    return lo, hi


def _window_rows(grid, e_lo: float, e_hi: float) -> slice:
    """The rows of grid whose energies lie in [e_lo, e_hi], found by bisection."""
    def energy(k):
        return float(grid.energies([k])[0])

    every = range(grid.n_points)
    return slice(bisect.bisect_left(every, e_lo, key=energy),
                 bisect.bisect_right(every, e_hi, key=energy))


def fit_fano(spec, window) -> FanoFit:
    """Fit one energy window (e_lo, e_hi) of a spectrum's transmission.

    spec is a Spectrum, or any record with its grid and T.
    """
    e_lo, e_hi = _fit_window(window, "fit window")
    rows = _window_rows(spec.grid, e_lo, e_hi)
    count = rows.stop - rows.start
    if count < MIN_WINDOW_POINTS:
        raise ValueError(
            f"window ({e_lo}, {e_hi}) holds {count} grid points, "
            f"need >= {MIN_WINDOW_POINTS}"
        )
    return fit_fano_window(spec.grid.energies(rows), spec.T[rows])
