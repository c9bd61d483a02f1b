import dataclasses

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from randnets import random_instance, random_network, single_emitter, single_emitter_transmission

from excitonprobe import model, scattering

from excitonprobe.model import (
    LossBreakdown,
    ProbeGrid,
    SiteNetwork,
    WaveguideCoupling,
)
from excitonprobe.scenarios import InhibitCoupling, RemoveSite, apply_defect
from excitonprobe.scattering import (
    _CHUNK_BYTES,
    _KERNELS,
    _SCHUR_MIN_SITES,
    DEFAULT_GRID_MARGIN,
    DEFAULT_GRID_POINTS,
    NetworkValidationError,
    PoleError,
    SOLVERS,
    default_grid,
    effective_hamiltonian,
    solve_closed_form,
    solve_direct,
    sweep_spectrum,
)


class TestSolverCrossCheck:
    """The two routes are algebraically independent; they must agree."""

    def test_amplitudes_agree_on_random_instances(self, rng):
        for _ in range(300):
            net, wg, energy = random_instance(rng)
            a = solve_closed_form(net, wg, energy)
            b = solve_direct(net, wg, energy)
            assert abs(a.t - b.t) < 1e-10
            assert abs(a.r - b.r) < 1e-10
            assert np.max(np.abs(a.xi - b.xi)) < 1e-10

    def test_solver_names_recorded(self, rng):
        net, wg, energy = random_instance(rng)
        assert solve_closed_form(net, wg, energy).solver == "closed_form"
        assert solve_direct(net, wg, energy).solver == "direct"


class TestFluxLedger:
    def test_unit_total_with_loss(self, rng):
        for _ in range(200):
            net, wg, energy = random_instance(rng)
            sol = solve_closed_form(net, wg, energy)
            assert abs(sol.flux.total - 1.0) < 1e-10

    def test_lossless_unitarity(self, rng):
        for _ in range(200):
            net, wg, energy = random_instance(rng, lossless=True)
            sol = solve_closed_form(net, wg, energy)
            assert abs(sol.flux.transmitted + sol.flux.reflected - 1.0) < 1e-12
            assert sol.flux.absorbed_total == 0.0

    def test_channel_split_sums_to_site_total(self, rng):
        net, wg, energy = random_instance(rng)
        sol = solve_closed_form(net, wg, energy)
        channel_sum = sum(sol.flux.absorbed_per_channel.values())
        assert channel_sum == pytest.approx(sol.flux.absorbed_total, abs=1e-12)

    def test_absorption_is_per_site_nonnegative(self, rng):
        net, wg, energy = random_instance(rng)
        sol = solve_closed_form(net, wg, energy)
        assert np.all(sol.flux.absorbed_per_site >= 0.0)


class TestStructureIdentities:
    def test_reflection_is_transmission_minus_one(self, rng):
        # both ports sit at the same point, so r and t differ by the
        # incoming unit amplitude exactly
        for _ in range(200):
            net, wg, energy = random_instance(rng)
            sol = solve_closed_form(net, wg, energy)
            assert abs(sol.r - (sol.t - 1.0)) < 1e-12

    def test_gauge_shift_leaves_amplitudes_unchanged(self, rng):
        net, wg, energy = random_instance(rng)
        shift = 123.456
        shifted = SiteNetwork(
            n_sites=net.n_sites,
            epsilon=np.array(net.epsilon) + shift,
            coupling=net.coupling,
            loss=net.loss,
            loss_breakdown=net.loss_breakdown,
        )
        a = solve_closed_form(net, wg, energy)
        b = solve_closed_form(shifted, wg, energy + shift)
        assert a.t == pytest.approx(b.t, abs=1e-12)
        assert np.allclose(a.xi, b.xi, atol=1e-12)


class TestSingleEmitter:
    def test_transmission_matches_frozen_formula(self):
        net, wg = single_emitter(epsilon=5.0, g=3.0, gamma=2.0, v_g=1.5)
        for energy in np.linspace(-40.0, 40.0, 41):
            sol = solve_closed_form(net, wg, float(energy))
            want = single_emitter_transmission(float(energy), 5.0, 3.0, 2.0, 1.5)
            assert sol.flux.transmitted == pytest.approx(want, abs=1e-12)

    def test_lossless_blocks_on_resonance(self):
        net, wg = single_emitter(epsilon=0.0, g=10.0)
        sol = solve_closed_form(net, wg, 1e-13)
        assert sol.flux.transmitted < 1e-12

    def test_half_width_equals_g_squared_over_vg(self):
        # T = 1/2 at detuning g^2/v_g from resonance
        g, v_g = 10.0, 1.0
        net, wg = single_emitter(epsilon=0.0, g=g, v_g=v_g)
        half = g * g / v_g
        sol = solve_closed_form(net, wg, half)
        assert sol.flux.transmitted == pytest.approx(0.5, abs=1e-12)

    def test_lossy_dip_does_not_reach_zero(self):
        net, wg = single_emitter(epsilon=0.0, g=10.0, gamma=5.0)
        sol = solve_closed_form(net, wg, 0.0)
        assert sol.flux.transmitted > 0.0


class TestTrivialLimits:
    def test_zero_coupling_is_transparent(self):
        bd = LossBreakdown.zeros(2)
        net = SiteNetwork(
            n_sites=2, epsilon=np.array([1.0, 2.0]), coupling=np.zeros((2, 2)),
            loss=bd.total(), loss_breakdown=bd,
        )
        wg = WaveguideCoupling(ports=((1, 0.0), (2, 0.0)))
        spec = sweep_spectrum(net, wg, ProbeGrid(-10.0, 10.0, 21))
        assert np.all(spec.T == 1.0)
        assert np.all(spec.R == 0.0)

    def test_far_detuned_probe_passes(self):
        net, wg = single_emitter(epsilon=0.0, g=1.0)
        sol = solve_closed_form(net, wg, 1e6)
        assert sol.flux.transmitted > 1.0 - 1e-5


class TestPoleHandling:
    def test_pole_that_survives_the_nudge_raises(self):
        # at 1e6 cm^-1 the nudge of 1e-9 * 1e-3 rounds away, so the retried
        # point is the same pole
        grid = ProbeGrid(1e6 - 1e-3, 1e6 + 1e-3, 3)
        net, wg = single_emitter(epsilon=grid.energies()[1], g=1.0)
        with pytest.raises(PoleError) as err:
            sweep_spectrum(net, wg, grid)
        assert err.value.energy == 1e6 and type(err.value.energy) is float
        assert err.value.grid_index == 1
        assert str(err.value) == ("singular scattering problem at E = 1000000.0 cm^-1 "
                                  "(grid index 1)")

    def test_nudge_recovers_the_sweep(self):
        net, wg = single_emitter(epsilon=0.0, g=1.0)
        grid = ProbeGrid(-1.0, 1.0, 3)
        spec = sweep_spectrum(net, wg, grid)
        assert np.all(np.isfinite(spec.T))
        assert spec.T[1] < 1e-10

    def test_pole_is_resolved_above_its_grid_point(self, monkeypatch):
        # the retry solves the pole alone at E + POLE_NUDGE * spacing
        solved = []
        real = scattering._solve_stack

        def spy(amplitudes, energies):
            solved.append(np.array(energies))
            return real(amplitudes, energies)

        monkeypatch.setattr(scattering, "_solve_stack", spy)
        net, wg = single_emitter(epsilon=0.0, g=1.0)
        grid = ProbeGrid(-1.0, 1.0, 3)
        sweep_spectrum(net, wg, grid)
        assert len(solved) == 2
        assert np.array_equal(solved[0], grid.energies())
        assert solved[1].tolist() == [0.0 + scattering.POLE_NUDGE * grid.spacing]
        assert solved[1][0] > 0.0

    def test_point_solver_raises_on_pole(self):
        net, wg = single_emitter(epsilon=0.0, g=1.0)
        with pytest.raises(PoleError):
            solve_closed_form(net, wg, 0.0)

    def test_singular_system_marks_only_its_own_row(self, rng):
        stack = rng.normal(size=(6, 4, 4)) + 1j * rng.normal(size=(6, 4, 4))
        stack[2, :, 1] = 0.0  # a zero column: an exactly zero pivot
        rhs = rng.normal(size=4).astype(complex)
        got = scattering._solve_rows(stack, rhs)
        assert np.isnan(got[2]).all()
        for k in (0, 1, 3, 4, 5):
            assert np.array_equal(got[k], np.linalg.solve(stack[k], rhs)), k


class TestValidationErrors:
    # an invalid network is refused when it is built, so it never reaches a kernel
    def test_invalid_network_is_rejected(self):
        bd = LossBreakdown.zeros(2)
        J = np.zeros((2, 2))
        J[0, 1] = 1.0  # deliberately asymmetric
        with pytest.raises(NetworkValidationError) as err:
            effective_hamiltonian(SiteNetwork(
                n_sites=2, epsilon=np.zeros(2), coupling=J,
                loss=bd.total(), loss_breakdown=bd,
            ))
        assert any("asymmetric" in v for v in err.value.violations)

    @pytest.mark.parametrize("solver", sorted(SOLVERS))
    def test_each_solver_names_the_violation(self, solver):
        bd = LossBreakdown.zeros(2)
        J = np.array([[0.0, 1.0], [0.0, 0.0]])  # deliberately asymmetric
        with pytest.raises(NetworkValidationError) as err:
            SOLVERS[solver](SiteNetwork(n_sites=2, epsilon=np.zeros(2), coupling=J,
                                        loss=bd.total(), loss_breakdown=bd),
                            WaveguideCoupling(ports=((1, 1.0),)), 0.0)
        assert str(err.value) == "asymmetric coupling (1,2)"

    def test_port_outside_network_is_rejected(self):
        net, _ = single_emitter()
        wg = WaveguideCoupling(ports=((2, 1.0),))
        with pytest.raises(NetworkValidationError):
            solve_closed_form(net, wg, 0.0)

    def test_unknown_solver_name(self, preset, preset_grid):
        net, wg = preset
        with pytest.raises(ValueError, match="solver"):
            sweep_spectrum(net, wg, preset_grid, solver="magic")


class TestEffectiveHamiltonian:
    def test_diagonal_carries_half_loss(self, preset):
        net, _ = preset
        H = effective_hamiltonian(net)
        assert H[0, 0] == pytest.approx(net.epsilon[0] - 0.5j * net.loss[0])
        assert H[2, 2].imag == pytest.approx(-0.5 * 5.3)
        assert np.allclose(H, H.T)  # symmetric, not Hermitian


class TestDefaultGrid:
    def test_margins_and_size(self, preset):
        net, _ = preset
        grid = default_grid(net)
        assert grid.n_points == DEFAULT_GRID_POINTS
        assert grid.e_min == pytest.approx(net.epsilon.min() - DEFAULT_GRID_MARGIN)
        assert grid.e_max == pytest.approx(net.epsilon.max() + DEFAULT_GRID_MARGIN)

    def test_custom_size(self, preset):
        net, _ = preset
        assert default_grid(net, n_points=11).n_points == 11


class TestSweepSpectrum:
    def test_deterministic_repeat(self, preset, preset_grid):
        net, wg = preset
        a = sweep_spectrum(net, wg, preset_grid)
        b = sweep_spectrum(net, wg, preset_grid)
        assert np.array_equal(a.T, b.T)
        assert np.array_equal(a.R, b.R)
        assert np.array_equal(a.A_total, b.A_total)

    def test_solvers_agree_across_grid(self, preset):
        net, wg = preset
        grid = default_grid(net, n_points=101)
        a = sweep_spectrum(net, wg, grid, solver="closed_form")
        b = sweep_spectrum(net, wg, grid, solver="direct")
        assert np.max(np.abs(a.T - b.T)) < 1e-10

    def test_arrays_read_only(self, baseline_spectrum):
        with pytest.raises(ValueError):
            baseline_spectrum.T[0] = 0.5

    def test_channel_arrays_match_total(self, baseline_spectrum):
        total = sum(baseline_spectrum.A_channels.values())
        assert np.allclose(total, baseline_spectrum.A_total, atol=1e-12)

    def test_metadata_records_setup(self, baseline_spectrum):
        md = baseline_spectrum.metadata
        assert md["solver"] == "closed_form"
        assert md["v_g"] == 1.0
        assert md["ports"] == ((1, 10.0), (6, 10.0))
        assert md["port_widths"] == {1: 200.0, 6: 200.0}
        assert len(md["network_hash"]) == 16

    def test_energies_property_matches_grid(self, baseline_spectrum, preset_grid):
        assert np.array_equal(baseline_spectrum.energies, preset_grid.energies())


class TestLosslessDips:
    def test_transmission_vanishes_at_coupled_eigenvalues(self, preset):
        # with every loss channel off, the network blocks the guide exactly
        # at each eigenvalue its ports can see
        net, wg = preset
        lossless = SiteNetwork(
            n_sites=net.n_sites,
            epsilon=net.epsilon,
            coupling=net.coupling,
            loss=np.zeros(net.n_sites),
            loss_breakdown=LossBreakdown.zeros(net.n_sites),
        )
        H = np.diag(lossless.epsilon) + lossless.coupling
        evals, evecs = np.linalg.eigh(H)
        w = wg.amplitude_vector(net.n_sites)
        overlaps = np.abs(evecs.T @ w) / np.linalg.norm(w)
        for ev, ov in zip(evals, overlaps):
            if ov < 1e-3:
                continue
            sol = solve_closed_form(lossless, wg, float(ev) + 1e-9)
            assert sol.flux.transmitted < 1e-4


def point_ledgers(solve, net, wg, energies):
    """T, R, A_total and each channel from one single-energy solve per point."""
    sols = [solve(net, wg, e).flux for e in energies]
    columns = {"T": [f.transmitted for f in sols], "R": [f.reflected for f in sols],
               "A_total": [f.absorbed_total for f in sols]}
    for name in sols[0].absorbed_per_channel:
        columns[name] = [f.absorbed_per_channel[name] for f in sols]
    return {k: np.array(v) for k, v in columns.items()}


def sweep_ledgers(spec):
    return {"T": spec.T, "R": spec.R, "A_total": spec.A_total, **spec.A_channels}


def chunk_rows(n):
    """Points in one stacked chunk of the kernel for n x n systems."""
    return max(1, _CHUNK_BYTES // (16 * n * n))


def decoupled_network(epsilon):
    """Lossless sites with no couplings, probed at site 1 only."""
    n = len(epsilon)
    bd = LossBreakdown.zeros(n)
    net = SiteNetwork(n_sites=n, epsilon=np.array(epsilon), coupling=np.zeros((n, n)),
                      loss=bd.total(), loss_breakdown=bd)
    return net, WaveguideCoupling(ports=((1, 1.0),))


class TestKernel:
    """The chunked sweep against the single-energy API, point by point."""

    def test_sweep_equals_grid_of_one_solves(self, preset, preset_grid, baseline_spectrum, rng):
        cases = [(preset, preset_grid, baseline_spectrum)]
        for _ in range(10):
            net, wg, _ = random_instance(rng)
            grid = ProbeGrid(-80.0, 80.0, 101)
            cases.append(((net, wg), grid, sweep_spectrum(net, wg, grid)))
        for (net, wg), grid, spec in cases:
            want = point_ledgers(solve_closed_form, net, wg, grid.energies())
            got = sweep_ledgers(spec)
            assert sorted(got) == sorted(want)
            for key in want:
                assert np.array_equal(got[key], want[key]), key

    def test_sweep_across_chunks_matches_direct_oracle(self, rng):
        net, wg = random_network(rng, 60)
        grid = ProbeGrid(-80.0, 80.0, 50)
        assert grid.n_points > 2 * chunk_rows(net.n_sites + 2)
        want = point_ledgers(solve_direct, net, wg, grid.energies())
        closed = sweep_ledgers(sweep_spectrum(net, wg, grid))
        direct = sweep_ledgers(sweep_spectrum(net, wg, grid, solver="direct"))
        for key in want:
            assert np.max(np.abs(closed[key] - want[key])) < 1e-10, key
            assert np.array_equal(direct[key], want[key]), key

    def test_nudge_recovers_a_pole_in_a_later_chunk(self):
        grid = ProbeGrid(-1.0, 1.0, 101)
        n = 60
        assert 77 > 2 * chunk_rows(n)
        net, wg = decoupled_network([grid.energies()[77]] + [1e4 + k for k in range(n - 1)])
        spec = sweep_spectrum(net, wg, grid)
        assert np.all(np.isfinite(spec.T)) and np.all(np.isfinite(spec.A_total))
        assert spec.T[77] < 1e-10
        off_pole = np.arange(grid.n_points) != 77
        want = point_ledgers(solve_closed_form, net, wg, grid.energies()[off_pole])
        assert np.array_equal(spec.T[off_pole], want["T"])

    def test_surviving_pole_reports_its_global_grid_index(self):
        # at 1e6 cm^-1 the nudge of 1e-9 * 1e-3 rounds away
        grid = ProbeGrid(1e6 - 0.05, 1e6 + 0.05, 101)
        n = 60
        net, wg = decoupled_network([grid.energies()[77]] + [1e4 + k for k in range(n - 1)])
        with pytest.raises(PoleError) as err:
            sweep_spectrum(net, wg, grid)
        assert err.value.grid_index == 77
        assert err.value.energy == grid.energies()[77]

    @pytest.mark.parametrize("solver", sorted(SOLVERS))
    def test_network_validated_when_built_not_per_sweep(self, preset, preset_grid,
                                                         monkeypatch, solver):
        calls = []
        real = model.validate_network

        def counting(net):
            calls.append(net)
            return real(net)

        monkeypatch.setattr(model, "validate_network", counting)
        net, wg = preset
        built = dataclasses.replace(net)
        assert len(calls) == 1 and calls[0] is built
        sweep_spectrum(built, wg, preset_grid, solver=solver)
        assert len(calls) == 1
        assert not hasattr(scattering, "validate_network")

    @pytest.mark.parametrize("solver", sorted(SOLVERS))
    def test_kernel_uses_only_numpy_1_forms(self, preset, monkeypatch, solver):
        # numpy 1.x has no vecdot and rejects a 1-D right-hand side for a stack
        real_solve = np.linalg.solve

        def numpy1_solve(a, b):
            if np.ndim(a) > 2 and np.ndim(b) == 1:
                raise ValueError("solve: 1-D b with stacked a")
            return real_solve(a, b)

        net, wg = preset
        grid = default_grid(net, n_points=101)
        want = sweep_spectrum(net, wg, grid, solver=solver)
        monkeypatch.delattr(np, "vecdot", raising=False)
        monkeypatch.setattr(np.linalg, "solve", numpy1_solve)
        got = sweep_spectrum(net, wg, grid, solver=solver)
        for key in ("T", "R", "A_total"):
            assert np.array_equal(getattr(got, key), getattr(want, key)), key

    def test_direct_route_never_forms_h_eff(self, preset, monkeypatch):
        def forbidden(net):
            raise AssertionError("the direct oracle built H_eff")

        monkeypatch.setattr(scattering, "effective_hamiltonian", forbidden)
        net, wg = preset
        spec = sweep_spectrum(net, wg, default_grid(net, n_points=11), solver="direct")
        assert spec.metadata["solver"] == "direct"
        assert solve_direct(net, wg, 0.0).solver == "direct"



def embedded_network(rng, n, coupling, dephasing):
    """The block `coupling` (sites at 0 cm^-1, widths `dephasing`) as sites 1..k,
    then a randnets network of the other n - k sites, not coupled to it."""
    k = len(dephasing)
    rest, _ = random_network(rng, n - k)
    J = np.zeros((n, n))
    J[:k, :k] = coupling
    J[k:, k:] = rest.coupling
    block = {"dephasing": dephasing, "ohmic": np.zeros(k), "sink": np.zeros(k)}
    bd = LossBreakdown(**{name: np.concatenate([block[name], getattr(rest.loss_breakdown, name)])
                          for name in block})
    net = SiteNetwork(n_sites=n, epsilon=np.concatenate([np.zeros(k), rest.epsilon]),
                      coupling=J, loss=bd.total(), loss_breakdown=bd)
    return net, WaveguideCoupling(ports=((1, 3.0), (3, 2.0)))


def exceptional_point_network(rng, n=20):
    """Sites 1 and 2 at an exceptional point of H_eff; the other n - 2 random.

    Both sites sit at 0 cm^-1 with widths 40 and 0, and J12 = (40 - 0)/4, so
    the pair's two eigenvalues and eigenvectors of H_eff coalesce at -10i.
    """
    return embedded_network(rng, n, [[0.0, 10.0], [10.0, 0.0]], np.array([40.0, 0.0]))


def third_order_exceptional_point_network(rng, n=16):
    """Sites 1-3, a chain with J = 10 cm^-1, at a third-order exceptional point.

    Widths 0, 2 sqrt(2) J and 4 sqrt(2) J make the chain's H_eff -i sqrt(2) J
    plus a chain with gain and loss +-i sqrt(2) J at its ends, whose three
    eigenvalues and eigenvectors coalesce: H_eff has one eigenvalue
    -i sqrt(2) J of multiplicity three. The other n - 3 sites are random.
    """
    J = 10.0
    chain = [[0.0, J, 0.0], [J, 0.0, J], [0.0, J, 0.0]]
    return embedded_network(rng, n, chain, np.sqrt(2.0) * J * np.array([0.0, 2.0, 4.0]))


def schur_calls(monkeypatch):
    """Record the size of every matrix handed to scattering._schur_form."""
    calls = []
    real = scattering._schur_form

    def counting(H):
        calls.append(len(H))
        return real(H)

    monkeypatch.setattr(scattering, "_schur_form", counting)
    return calls


class TestSchurRoute:
    """The closed form from _SCHUR_MIN_SITES sites up: one Schur form per sweep."""

    @pytest.mark.parametrize("n", [_SCHUR_MIN_SITES, 40])
    def test_sweep_equals_grid_of_one_solves(self, rng, monkeypatch, n):
        # seven points per chunk, so 31 points take five chunks, the last short
        monkeypatch.setattr(scattering, "_CHUNK_BYTES", 7 * 16 * n)
        net, wg = random_network(rng, n)
        grid = ProbeGrid(-80.0, 80.0, 31)
        calls = schur_calls(monkeypatch)
        got = sweep_ledgers(sweep_spectrum(net, wg, grid))
        assert calls == [n]
        want = point_ledgers(solve_closed_form, net, wg, grid.energies())
        assert sorted(got) == sorted(want)
        for key in want:
            assert np.array_equal(got[key], want[key]), key

    def test_exceptional_point_matches_direct_oracle(self, rng):
        net, wg = exceptional_point_network(rng)
        H = effective_hamiltonian(net)
        # the eigenvectors are nearly parallel: an eigenvector route would fail
        assert np.linalg.cond(np.linalg.eig(H)[1]) > 1e6
        grid = ProbeGrid(-80.0, 80.0, 161)
        spec = sweep_spectrum(net, wg, grid)
        got = sweep_ledgers(spec)
        want = point_ledgers(solve_direct, net, wg, grid.energies())
        for key in want:
            assert np.max(np.abs(got[key] - want[key])) < 1e-10, key
        assert np.max(np.abs(spec.T + spec.R + spec.A_total - 1.0)) < 1e-10

    def test_route_starts_at_min_sites(self, preset, preset_grid, rng, monkeypatch):
        calls = schur_calls(monkeypatch)
        sweep_spectrum(*preset, preset_grid)
        assert calls == []
        grid = ProbeGrid(-80.0, 80.0, 101)
        sweep_spectrum(*random_network(rng, _SCHUR_MIN_SITES - 1), grid)
        assert calls == []
        for sweeps in (1, 2):
            sweep_spectrum(*random_network(rng, _SCHUR_MIN_SITES), grid)
            assert calls == [_SCHUR_MIN_SITES] * sweeps

    def test_lu_route_across_chunks_matches_direct_oracle(self, rng):
        n = _SCHUR_MIN_SITES - 1
        net, wg = random_network(rng, n)
        grid = ProbeGrid(-80.0, 80.0, 2 * chunk_rows(n) + 19)
        want = point_ledgers(solve_direct, net, wg, grid.energies())
        got = sweep_ledgers(sweep_spectrum(net, wg, grid))
        for key in want:
            assert np.max(np.abs(got[key] - want[key])) < 1e-10, key


def assert_schur_form(H, order=1):
    """_schur_form(H) is a Schur form with LAPACK's backward error.

    Its diagonal holds H's eigenvalues, checked against scipy's as an oracle:
    a k-fold defective eigenvalue (order k) moves by up to the k-th root of a
    relative perturbation, so the tolerance is (2 n eps)^(1/k) ||H||_F.
    """
    form = scattering._schur_form(H)
    assert form is not None
    T, Z = form
    n, eps, norm = len(H), np.finfo(float).eps, np.linalg.norm(H)
    assert np.array_equal(T, np.triu(T))
    assert np.linalg.norm(Z @ T @ Z.conj().T - H) <= n * eps * norm
    assert np.linalg.norm(Z.conj().T @ Z - np.eye(n)) <= n * eps
    distance = np.abs(np.diag(T)[:, None] - scipy.linalg.eigvals(H)[None, :])
    tol = (2 * n * eps) ** (1 / order) * norm
    assert distance.min(axis=0).max() <= tol and distance.min(axis=1).max() <= tol


class TestSchurForm:
    """The numpy Schur form, and the LU solve that takes over where it is not found."""

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(_SCHUR_MIN_SITES, 60),
           lossless=st.booleans())
    def test_random_networks(self, seed, n, lossless):
        net, _ = random_network(np.random.default_rng(seed), n, lossless)
        assert_schur_form(effective_hamiltonian(net))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_exceptional_point(self, seed):
        net, _ = exceptional_point_network(np.random.default_rng(seed))
        assert_schur_form(effective_hamiltonian(net), order=2)

    @pytest.mark.parametrize("n", [_SCHUR_MIN_SITES, 40])
    def test_third_order_exceptional_point(self, rng, n):
        net, _ = third_order_exceptional_point_network(rng, n)
        H = effective_hamiltonian(net)
        assert np.linalg.cond(np.linalg.eig(H)[1]) > 1e9
        assert_schur_form(H, order=3)

    def test_noisy_eigenvectors_fall_back_to_lu(self, rng, monkeypatch):
        n = 20
        net, wg = random_network(rng, n)
        real_eig = np.linalg.eig

        def noisy_eig(a):
            lam, V = real_eig(a)
            return lam, V + 1e-6 * rng.standard_normal(V.shape)

        monkeypatch.setattr(scattering.np.linalg, "eig", noisy_eig)
        assert scattering._schur_form(effective_hamiltonian(net)) is None
        assert _KERNELS["closed_form"](net, wg)[1] == 16 * n * n
        grid = ProbeGrid(-80.0, 80.0, 2 * chunk_rows(n) + 19)
        got = sweep_ledgers(sweep_spectrum(net, wg, grid))
        want = point_ledgers(solve_direct, net, wg, grid.energies())
        for key in want:
            assert np.max(np.abs(got[key] - want[key])) < 1e-10, key


# Networks from tests/randnets.py, from one site up to sizes whose sweep of
# PROPERTY_GRID spans several chunks (40 sites: 40 points per chunk)
RANDOM_NETWORK = {"seed": st.integers(0, 2 ** 32 - 1), "n": st.integers(1, 40),
                  "lossless": st.booleans()}
PROPERTY_GRID = ProbeGrid(-80.0, 80.0, 101)
PROPERTY_SETTINGS = settings(max_examples=100, deadline=None, derandomize=True, database=None)


class TestKernelProperties:
    """Identities of the chunked kernel on random networks, against the per-point oracle."""

    @PROPERTY_SETTINGS
    @given(**RANDOM_NETWORK)
    def test_flux_balance(self, seed, n, lossless):
        net, wg = random_network(np.random.default_rng(seed), n, lossless)
        spec = sweep_spectrum(net, wg, PROPERTY_GRID)
        assert np.max(np.abs(spec.T + spec.R + spec.A_total - 1.0)) < 1e-10
        assert np.max(np.abs(sum(spec.A_channels.values()) - spec.A_total)) < 1e-12
        assert not lossless or np.all(spec.A_total == 0.0)

    @PROPERTY_SETTINGS
    @given(**RANDOM_NETWORK)
    def test_reflection_is_transmission_minus_one(self, seed, n, lossless):
        # the direct kernel solves t and r as separate unknowns
        net, wg = random_network(np.random.default_rng(seed), n, lossless)
        amplitudes, _ = _KERNELS["direct"](net, wg)
        t, r, _ = amplitudes(PROPERTY_GRID.energies())
        assert np.max(np.abs(r - (t - 1.0))) < 1e-10

    @PROPERTY_SETTINGS
    @given(**RANDOM_NETWORK, points=st.lists(st.integers(0, PROPERTY_GRID.n_points - 1),
                                             min_size=1, max_size=4, unique=True))
    def test_sweep_matches_direct_oracle_at_sampled_points(self, seed, n, lossless, points):
        net, wg = random_network(np.random.default_rng(seed), n, lossless)
        got = sweep_ledgers(sweep_spectrum(net, wg, PROPERTY_GRID))
        want = point_ledgers(solve_direct, net, wg, PROPERTY_GRID.energies()[points])
        for key in want:
            assert np.max(np.abs(got[key][points] - want[key])) < 1e-10, key

    @PROPERTY_SETTINGS
    @given(**RANDOM_NETWORK, pick=st.integers(0, 2 ** 16))
    def test_removing_a_site_equals_cutting_its_couplings(self, seed, n, lossless, pick):
        net, wg = random_network(np.random.default_rng(seed), n, lossless)
        free = [s for s in range(1, n + 1) if s not in dict(wg.ports)]
        assume(free)
        site = free[pick % len(free)]
        removed = sweep_spectrum(*apply_defect(net, wg, RemoveSite(site)), PROPERTY_GRID)
        cut = net, wg
        for other in range(1, n + 1):
            if other != site:
                cut = apply_defect(*cut, InhibitCoupling(site, other))
        cut = sweep_spectrum(*cut, PROPERTY_GRID)
        got, want = sweep_ledgers(removed), sweep_ledgers(cut)
        for key in want:
            assert np.max(np.abs(got[key] - want[key])) < 1e-10, key
