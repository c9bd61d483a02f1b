"""Single-photon scattering off a waveguide-coupled exciton network.

A right-moving photon of energy E (linear dispersion, group velocity v_g)
scatters off the port sites, which all sit at the same waveguide position
(zero separation). Site losses enter as non-Hermitian widths -i*gamma/2 on
the diagonal, so the effective network Hamiltonian is

    H_eff[n][n] = eps_n - i*gamma_n/2,   H_eff[n][m] = J_nm  (n != m).

Two independent routes solve the same scattering problem:

* ``closed_form`` resolves the photon amplitudes analytically and is left
  with one N x N linear system per energy. With w the port-amplitude vector
  and y = (E - H_eff)^{-1} w (by LU or from a Schur form of H_eff, below),

      t = 1 / (1 + (i/v_g) w.y),   r = t - 1,   xi = t*y.

* ``direct`` assembles the (N+2)-unknown system in (t, r, xi_1..xi_N)
  straight from the delta-function matching conditions, taking the photon
  field at the coupling point as the mean of its left/right limits, and
  hands it to a dense solver. It never forms H_eff, so it stays an
  independent oracle for the closed form.

Both satisfy the exact flux balance 1 - |t|^2 - |r|^2 = sum_n gamma_n
|xi_n|^2 / v_g and the zero-separation identity r = t - 1; the pair acts as
a mutual cross-check throughout the test suite.

Each route is one kernel over a stack of energies. The kernel checks the ports
once (a built network is valid), then takes the energies in chunks and forms t,
r, xi and the flux ledger (T, R, absorption per site and per loss channel) as
arrays. How a chunk is solved depends on the route and the network size:

* ``direct``, and ``closed_form`` below ``_SCHUR_MIN_SITES`` sites, stack
  the chunk's matrices and solve them with one ``np.linalg.solve`` call
  (an O(N^3) LU per energy).
* ``closed_form`` from ``_SCHUR_MIN_SITES`` sites up factors H_eff = Z T Z^H
  once per kernel with a complex Schur decomposition. Each energy then costs
  one back substitution in the triangular T and one product with Z, O(N^2)
  (the shifted systems share one reduction; Laub, IEEE TAC 26, 407 (1981)).
  Z is unitary, so the route is backward stable even where the eigenvectors
  of H_eff are nearly parallel, as at an exceptional point. numpy builds the
  form from the eigenvectors of ``np.linalg.eig`` (``_schur_form``); where
  it misses LAPACK's backward error, the kernel takes the stacked LU solve.

A chunk's largest array takes at most about 1 MiB, so memory stays bounded
on long grids and large networks. A point's value does not depend on the
chunk it is solved in. ``sweep_spectrum`` runs the kernel over a probe grid;
``solve_closed_form`` and ``solve_direct`` run it on a grid of one energy
and wrap the result in a ``ScatteringSolution``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import (
    LOSS_CHANNELS,
    NetworkValidationError,  # what amplitude_vector raises for a port outside the network
    ProbeGrid,
    SiteNetwork,
    WaveguideCoupling,
    network_fingerprint,
)

DEFAULT_GRID_POINTS = 2001
DEFAULT_GRID_MARGIN = 300.0

# Relative nudge applied to a grid point that lands exactly on a pole.
POLE_NUDGE = 1e-9


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
    H = net.coupling.astype(complex)
    np.fill_diagonal(H, net.epsilon - 0.5j * net.loss)
    return H


# Bytes one chunk's largest array may take: the stacked matrices of the LU
# routes, the rows z of the Schur route. With the solve's copy or the y and
# xi rows, a sweep's peak is about three to four times this.
_CHUNK_BYTES = 2 ** 20

# Networks with at least this many sites take the closed form's Schur route.
# Smaller ones, the 7-site preset among them, keep the stacked LU solve and
# with it the bytes of their pinned outputs.
_SCHUR_MIN_SITES = 16


def _solve_rows(stack, rhs):
    """Solve every system of the stack for rhs; a singular system gives a NaN row.

    np.linalg.solve rejects the whole stack when one matrix is singular; the
    stack is then solved one system at a time, so only singular rows are
    poles. rhs goes in as a column, the form numpy 1.x also broadcasts over a stack.
    """
    try:
        return np.linalg.solve(stack, rhs[:, None])[..., 0]
    except np.linalg.LinAlgError:
        if len(stack) == 1:
            return np.full(stack.shape[:-1], np.nan, dtype=complex)
        return np.concatenate([_solve_rows(matrix[None], rhs) for matrix in stack])


def _dot_rows(a, rows):
    """a @ row for each row, each computed as a one-row a @ row is.

    So a row's result does not depend on the rows stacked with it.
    """
    return (a @ rows[..., None])[..., 0]


def _lu_resolvent(H, w):
    """(resolvent, bytes per point): y = (E - H)^-1 w by a stacked LU solve."""
    n = H.shape[0]
    rhs = w.astype(complex)
    eye = np.eye(n, dtype=complex)

    def resolvent(energies):
        return _solve_rows(energies[:, None, None] * eye - H, rhs)

    return resolvent, 16 * n * n


def _schur_form(H):
    """(T, Z) with H = Z T Z^H, T upper triangular and Z unitary, or None.

    LAPACK's zgeev, behind np.linalg.eig, reduces H to a Schur form and
    returns the eigenvectors V = Z X with X upper triangular (LAPACK Users'
    Guide, 3rd ed., section 2.4.8), so the Householder QR of V gives Z. The
    form is kept only when Z^H H Z is triangular to LAPACK's backward error,
    n * eps * ||H||_F.
    """
    _, V = np.linalg.eig(H)
    Z = np.linalg.qr(V)[0]
    T = Z.conj().T @ H @ Z
    n = H.shape[0]
    if np.linalg.norm(np.tril(T, -1)) > n * np.finfo(float).eps * np.linalg.norm(H):
        return None
    return np.triu(T), Z


def _schur_resolvent(T, Z, w):
    """(resolvent, bytes per point): y = (E - H)^-1 w from a Schur form of H.

    H = Z T Z^H with T upper triangular, so (E - H)^-1 w = Z (E - T)^-1 Z^H w.
    A zero diagonal of E - T, an exact pole, gives a non-finite row.
    """
    b = Z.conj().T @ w
    lam = np.diag(T)
    n = T.shape[0]

    def resolvent(energies):
        z = np.empty((energies.size, n), dtype=complex)
        for k in range(n - 1, -1, -1):
            z[:, k] = (b[k] + _dot_rows(T[k, k + 1:], z[:, k + 1:])) / (energies - lam[k])
        return _dot_rows(Z, z)

    return resolvent, 16 * n


def _closed_form_kernel(net: SiteNetwork, wg: WaveguideCoupling):
    """Returns (amplitudes, bytes per point) for the closed form.

    amplitudes(energies) finds y = (E - H_eff)^-1 w at each energy, by the
    Schur route from _SCHUR_MIN_SITES sites up and by stacked LU below or
    where no Schur form is found, and returns the rows t, r and xi; the bytes
    per point set the chunk.
    """
    H = effective_hamiltonian(net)
    w = wg.amplitude_vector(net.n_sites)
    form = _schur_form(H) if net.n_sites >= _SCHUR_MIN_SITES else None
    resolvent, point_bytes = _schur_resolvent(*form, w) if form else _lu_resolvent(H, w)

    def amplitudes(energies):
        y = resolvent(energies)
        # y @ w would sum in another order and can differ in the last bit
        t = 1.0 / (1.0 + 1j * _dot_rows(w, y) / wg.v_g)
        return t, t - 1.0, t[:, None] * y

    return amplitudes, point_bytes


def _direct_kernel(net: SiteNetwork, wg: WaveguideCoupling):
    """Returns (amplitudes, bytes per point) for the (N+2)-unknown systems.

    Unknowns are (t, r, xi_1..xi_N). The two photon rows are the jump
    conditions across the coupling point; each site row balances the site
    amplitude against the network couplings and the local photon field
    (t + 1 + r)/2, the mean of its left and right limits.
    """
    w = wg.amplitude_vector(net.n_sites)

    n = net.n_sites
    v_g = wg.v_g

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
    M[2:, 0] = -0.5 * w
    M[2:, 1] = -0.5 * w
    b[2:] = 0.5 * w
    site = 2 + np.arange(n)

    def amplitudes(energies):
        stack = np.repeat(M[None], energies.size, axis=0)
        stack[:, site, site] = energies[:, None] - net.epsilon + 0.5j * net.loss
        u = _solve_rows(stack, b)
        return u[:, 0], u[:, 1], u[:, 2:]

    return amplitudes, 16 * (n + 2) ** 2


_KERNELS = {"closed_form": _closed_form_kernel, "direct": _direct_kernel}


def _solve_stack(amplitudes, energies):
    """(t, r, xi, pole): amplitude rows at each energy and a mask of its poles.

    A pole is an energy whose amplitudes are not finite, which includes each
    energy whose system is singular.
    """
    with np.errstate(all="ignore"):
        t, r, xi = amplitudes(energies)
    pole = ~(np.isfinite(t) & np.isfinite(r) & np.isfinite(xi).all(axis=1))
    return t, r, xi, pole


def _flux(net: SiteNetwork, v_g: float, t, r, xi):
    """Flux ledger rows (T, R, absorption per site, absorption per channel)."""
    occupancy = np.abs(xi) ** 2 / v_g
    # hypot rounds |t| as abs() of one complex does; np.abs of a complex
    # array can differ from it in the last bit
    T = np.hypot(t.real, t.imag) ** 2
    R = np.hypot(r.real, r.imag) ** 2
    per_site = net.loss * occupancy
    per_channel = {name: _dot_rows(getattr(net.loss_breakdown, name), occupancy)
                   for name in LOSS_CHANNELS}
    return T, R, per_site, per_channel


def _solve_point(net: SiteNetwork, wg: WaveguideCoupling, energy, solver: str):
    """The kernel on a grid of one energy, as a ScatteringSolution."""
    amplitudes, _ = _KERNELS[solver](net, wg)
    t, r, xi, pole = _solve_stack(amplitudes, np.array([energy], dtype=float))
    if pole[0]:
        raise PoleError(energy)
    T, R, per_site, per_channel = _flux(net, wg.v_g, t, r, xi)
    xi, per_site = xi[0], per_site[0]
    xi.flags.writeable = False
    per_site.flags.writeable = False
    ledger = FluxLedger(
        transmitted=float(T[0]),
        reflected=float(R[0]),
        absorbed_per_site=per_site,
        absorbed_per_channel={name: float(a[0]) for name, a in per_channel.items()},
    )
    return ScatteringSolution(energy=float(energy), t=complex(t[0]), r=complex(r[0]),
                              xi=xi, flux=ledger, solver=solver)


def solve_closed_form(net: SiteNetwork, wg: WaveguideCoupling, energy: float) -> ScatteringSolution:
    """Green's-function route: y = (E - H_eff)^-1 w, then the closed form.

    From _SCHUR_MIN_SITES sites up, each call factors H_eff afresh (Schur
    route), which costs far more than one solve: at N = 200 about 70 ms per
    call, against 2 ms for one LU (one BLAS thread, 2-vCPU x86-64). Use
    ``sweep_spectrum`` for many energies; it factors H_eff once per sweep.
    """
    return _solve_point(net, wg, energy, "closed_form")


def solve_direct(net: SiteNetwork, wg: WaveguideCoupling, energy: float) -> ScatteringSolution:
    """Independent oracle route: solve the full (N+2)-unknown matching-condition system."""
    return _solve_point(net, wg, energy, "direct")


SOLVERS = {"closed_form": solve_closed_form, "direct": solve_direct}


def default_grid(net: SiteNetwork, n_points: int = DEFAULT_GRID_POINTS) -> ProbeGrid:
    """Uniform grid spanning all site energies with DEFAULT_GRID_MARGIN on both sides."""
    return ProbeGrid(
        e_min=float(np.min(net.epsilon) - DEFAULT_GRID_MARGIN),
        e_max=float(np.max(net.epsilon) + DEFAULT_GRID_MARGIN),
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

    The ports are checked once; the grid is solved in stacked chunks. A
    grid point that lands exactly on a pole is retried once, nudged up by
    1e-9 of the grid spacing; if the nudged point still fails, the PoleError
    propagates, carrying the grid index. A point's value does not depend on
    the chunk it is solved in, so output is deterministic.
    """
    if solver not in SOLVERS:
        raise ValueError(f"unknown solver {solver!r}, expected one of {sorted(SOLVERS)}")
    amplitudes, point_bytes = _KERNELS[solver](net, wg)
    chunk = max(1, _CHUNK_BYTES // point_bytes)

    energies = grid.energies()
    T = np.empty(grid.n_points)
    R = np.empty(grid.n_points)
    A_total = np.empty(grid.n_points)
    A_channels = {name: np.empty(grid.n_points) for name in LOSS_CHANNELS}

    for start in range(0, grid.n_points, chunk):
        rows = slice(start, start + chunk)
        t, r, xi, pole = _solve_stack(amplitudes, energies[rows])
        if pole.any():
            nudged = energies[rows][pole] + POLE_NUDGE * grid.spacing
            t[pole], r[pole], xi[pole], still = _solve_stack(amplitudes, nudged)
            if still.any():
                i = start + np.flatnonzero(pole)[still][0]
                raise PoleError(energies[i], grid_index=i)
        T[rows], R[rows], per_site, per_channel = _flux(net, wg.v_g, t, r, xi)
        A_total[rows] = np.sum(per_site, axis=1)
        for name in LOSS_CHANNELS:
            A_channels[name][rows] = per_channel[name]

    for arr in (T, R, A_total, *A_channels.values()):
        arr.flags.writeable = False
    return Spectrum(grid=grid, T=T, R=R, A_total=A_total, A_channels=A_channels,
                    metadata=_sweep_metadata(net, wg, solver))
