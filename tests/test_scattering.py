import numpy as np
import pytest

from randnets import random_instance, single_emitter, single_emitter_transmission

from excitonprobe.model import (
    LossBreakdown,
    ProbeGrid,
    SiteNetwork,
    WaveguideCoupling,
)
from excitonprobe.scattering import (
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

    def test_point_solver_raises_on_pole(self):
        net, wg = single_emitter(epsilon=0.0, g=1.0)
        with pytest.raises(PoleError):
            solve_closed_form(net, wg, 0.0)


class TestValidationErrors:
    def test_invalid_network_is_rejected(self):
        bd = LossBreakdown.zeros(2)
        J = np.zeros((2, 2))
        J[0, 1] = 1.0  # deliberately asymmetric
        net = SiteNetwork(
            n_sites=2, epsilon=np.zeros(2), coupling=J,
            loss=bd.total(), loss_breakdown=bd,
        )
        with pytest.raises(NetworkValidationError) as err:
            effective_hamiltonian(net)
        assert any("asymmetric" in v for v in err.value.violations)

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
