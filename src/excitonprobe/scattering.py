"""Single-photon scattering off a waveguide-coupled exciton network.

A right-moving photon of energy E (linear dispersion, group velocity v_g)
scatters off the port sites, which all sit at the same waveguide position
(zero separation). Site losses enter as non-Hermitian widths -i*gamma/2 on
the diagonal, so the effective network Hamiltonian is

    H_eff[n][n] = eps_n - i*gamma_n/2,   H_eff[n][m] = J_nm  (n != m).

Two independent routes solve the same scattering problem:

* ``solve_closed_form`` resolves the photon amplitudes analytically and is
  left with one N x N linear system. With w the port-amplitude vector and
  y = (E - H_eff)^{-1} w obtained by a dense solve,

      t = 1 / (1 + (i/v_g) w.y),   r = t - 1,   xi = t*y.

* ``solve_direct`` assembles the (N+2)-unknown system in (t, r, xi_1..xi_N)
  straight from the delta-function matching conditions, taking the photon
  field at the coupling point as the mean of its left/right limits, and
  hands it to a dense solver.

Both satisfy the exact flux balance 1 - |t|^2 - |r|^2 = sum_n gamma_n
|xi_n|^2 / v_g and the zero-separation identity r = t - 1; the pair acts as
a mutual cross-check throughout the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import (
    LOSS_CHANNELS,
    ProbeGrid,
    SiteNetwork,
    WaveguideCoupling,
    network_fingerprint,
    validate_network,
)

DEFAULT_GRID_POINTS = 2001
DEFAULT_GRID_MARGIN = 300.0

# Relative nudge applied to a grid point that lands exactly on a pole.
POLE_NUDGE = 1e-9


class NetworkValidationError(ValueError):
    """Input network or coupling violates a structural invariant."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class PoleError(ArithmeticError):
    """Probe energy sits exactly on a scattering pole of the network."""

    def __init__(self, energy, grid_index=None):
        self.energy = float(energy)
        self.grid_index = grid_index
        msg = f"singular scattering problem at E = {self.energy!r} cm^-1"
        if grid_index is not None:
            msg += f" (grid index {grid_index})"
        super().__init__(msg)


@dataclass(frozen=True)
class FluxLedger:
    """Where the incident photon's probability went, at one energy."""

    transmitted: float
    reflected: float
    absorbed_per_site: np.ndarray
    absorbed_per_channel: dict

    @property
    def absorbed_total(self) -> float:
        return float(np.sum(self.absorbed_per_site))

    @property
    def total(self) -> float:
        return self.transmitted + self.reflected + self.absorbed_total


@dataclass(frozen=True)
class ScatteringSolution:
    """Complex amplitudes and flux ledger at one probe energy."""

    energy: float
    t: complex
    r: complex
    xi: np.ndarray
    flux: FluxLedger
    solver: str


@dataclass(frozen=True)
class Spectrum:
    """Transmission/reflection/absorption over a probe grid."""

    grid: ProbeGrid
    T: np.ndarray
    R: np.ndarray
    A_total: np.ndarray
    A_channels: dict
    metadata: dict

    @property
    def energies(self) -> np.ndarray:
        return self.grid.energies()


def effective_hamiltonian(net: SiteNetwork) -> np.ndarray:
    """Complex N x N network Hamiltonian with loss on the diagonal."""
    violations = validate_network(net)
    if violations:
        raise NetworkValidationError(violations)
    H = net.coupling.astype(complex)
    np.fill_diagonal(H, net.epsilon - 0.5j * net.loss)
    return H


def _check_ports(net: SiteNetwork, wg: WaveguideCoupling):
    bad = [s for s, _ in wg.ports if not 1 <= s <= net.n_sites]
    if bad:
        raise NetworkValidationError(
            [f"port site {s} out of range 1..{net.n_sites}" for s in bad]
        )


def _solution(net, wg, energy, t, r, xi, solver):
    if not (np.isfinite(t) and np.isfinite(r) and np.all(np.isfinite(xi))):
        raise PoleError(energy)
    occupancy = np.abs(xi) ** 2 / wg.v_g
    per_site = net.loss * occupancy
    per_channel = {
        name: float(getattr(net.loss_breakdown, name) @ occupancy)
        for name in LOSS_CHANNELS
    }
    xi = np.asarray(xi, dtype=complex)
    xi.flags.writeable = False
    per_site.flags.writeable = False
    ledger = FluxLedger(
        transmitted=float(abs(t) ** 2),
        reflected=float(abs(r) ** 2),
        absorbed_per_site=per_site,
        absorbed_per_channel=per_channel,
    )
    return ScatteringSolution(energy=float(energy), t=complex(t), r=complex(r),
                              xi=xi, flux=ledger, solver=solver)


def solve_closed_form(net: SiteNetwork, wg: WaveguideCoupling, energy: float) -> ScatteringSolution:
    """Green's-function route: one dense N x N solve, then the closed form."""
    H = effective_hamiltonian(net)
    _check_ports(net, wg)
    w = wg.amplitude_vector(net.n_sites)
    A = energy * np.eye(net.n_sites, dtype=complex) - H
    try:
        y = np.linalg.solve(A, w.astype(complex))
    except np.linalg.LinAlgError:
        raise PoleError(energy) from None
    t = 1.0 / (1.0 + 1j * (w @ y) / wg.v_g)
    r = t - 1.0
    xi = t * y
    return _solution(net, wg, energy, t, r, xi, "closed_form")


def solve_direct(net: SiteNetwork, wg: WaveguideCoupling, energy: float) -> ScatteringSolution:
    """Independent oracle route: solve the full matching-condition system.

    Unknowns are (t, r, xi_1..xi_N). The two photon rows are the jump
    conditions across the coupling point; each site row balances the site
    amplitude against the network couplings and the local photon field
    (t + 1 + r)/2, the mean of its left and right limits.
    """
    violations = validate_network(net)
    if violations:
        raise NetworkValidationError(violations)
    _check_ports(net, wg)

    n = net.n_sites
    v_g = wg.v_g
    w = wg.amplitude_vector(n)

    M = np.zeros((n + 2, n + 2), dtype=complex)
    b = np.zeros(n + 2, dtype=complex)

    # Right-mover jump: -i v_g (t - 1) + sum_p g_p xi_p = 0
    M[0, 0] = -1j * v_g
    M[0, 2:] = w
    b[0] = -1j * v_g
    # Left-mover jump: -i v_g r + sum_p g_p xi_p = 0
    M[1, 1] = -1j * v_g
    M[1, 2:] = w

    # Site rows: (E - eps_n + i gamma_n/2) xi_n - sum_m J_nm xi_m
    #            = g_n (1 + t + r)/2
    M[2:, 2:] = -net.coupling.astype(complex)
    idx = np.arange(n)
    M[2 + idx, 2 + idx] = energy - net.epsilon + 0.5j * net.loss
    M[2:, 0] = -0.5 * w
    M[2:, 1] = -0.5 * w
    b[2:] = 0.5 * w

    try:
        u = np.linalg.solve(M, b)
    except np.linalg.LinAlgError:
        raise PoleError(energy) from None
    return _solution(net, wg, energy, u[0], u[1], u[2:], "direct")


SOLVERS = {"closed_form": solve_closed_form, "direct": solve_direct}


def default_grid(net: SiteNetwork, n_points: int = DEFAULT_GRID_POINTS,
                 margin: float = DEFAULT_GRID_MARGIN) -> ProbeGrid:
    """Uniform grid spanning all site energies with margin on both sides."""
    return ProbeGrid(
        e_min=float(np.min(net.epsilon) - margin),
        e_max=float(np.max(net.epsilon) + margin),
        n_points=n_points,
    )


def _sweep_metadata(net, wg, solver):
    return {
        "solver": solver,
        "network_hash": network_fingerprint(net),
        "v_g": wg.v_g,
        "reference_energy_cm1": net.reference_energy,
        "ports": tuple(wg.ports),
        "port_widths": wg.port_widths(),
    }


def sweep_spectrum(net: SiteNetwork, wg: WaveguideCoupling, grid: ProbeGrid,
                   solver: str = "closed_form") -> Spectrum:
    """Evaluate the chosen solver at every grid point.

    A grid point that lands exactly on a pole is retried once, nudged up by
    1e-9 of the grid spacing; if the nudged point still fails, the PoleError
    propagates, carrying the grid index. Output is deterministic and
    independent of evaluation order.
    """
    if solver not in SOLVERS:
        raise ValueError(f"unknown solver {solver!r}, expected one of {sorted(SOLVERS)}")
    solve = SOLVERS[solver]

    energies = grid.energies()
    T = np.empty(grid.n_points)
    R = np.empty(grid.n_points)
    A_total = np.empty(grid.n_points)
    A_channels = {name: np.empty(grid.n_points) for name in LOSS_CHANNELS}

    for i, energy in enumerate(energies):
        try:
            sol = solve(net, wg, energy)
        except PoleError:
            try:
                sol = solve(net, wg, energy + POLE_NUDGE * grid.spacing)
            except PoleError:
                raise PoleError(energy, grid_index=i) from None
        T[i] = sol.flux.transmitted
        R[i] = sol.flux.reflected
        A_total[i] = sol.flux.absorbed_total
        for name in LOSS_CHANNELS:
            A_channels[name][i] = sol.flux.absorbed_per_channel[name]

    for arr in (T, R, A_total, *A_channels.values()):
        arr.flags.writeable = False
    return Spectrum(grid=grid, T=T, R=R, A_total=A_total, A_channels=A_channels,
                    metadata=_sweep_metadata(net, wg, solver))
