import re

import numpy as np
import pytest

from excitonprobe import fano
from excitonprobe.fano import (
    MIN_WINDOW_POINTS,
    T_BG_BOUNDS,
    FanoFit,
    fano_gradient,
    fano_profile,
    fit_fano,
    fit_fano_window,
)
from excitonprobe.model import ProbeGrid
from excitonprobe.scattering import Spectrum


TRUTH = (1.7, 0.0, 20.0, 0.8)  # q, e_res, gamma_w, t_bg


def synth(params=TRUTH, lo=-80.0, hi=80.0, n=321):
    energies = np.linspace(lo, hi, n)
    return energies, fano_profile(energies, *params)


def spectrum_from(energies, values):
    grid = ProbeGrid(float(energies[0]), float(energies[-1]), len(energies))
    zero = np.zeros_like(values)
    return Spectrum(grid=grid, T=np.asarray(values, float), R=zero,
                    A_total=zero, A_channels={}, metadata={})


class TestProfile:
    def test_zero_at_the_interference_point(self):
        # the lineshape vanishes where x = -q
        q, e_res, gamma_w, t_bg = TRUTH
        e_zero = e_res - q * gamma_w / 2.0
        assert fano_profile(np.array([e_zero]), *TRUTH)[0] == pytest.approx(0.0, abs=1e-30)

    def test_background_recovered_far_away(self):
        val = fano_profile(np.array([1e7]), *TRUTH)[0]
        assert val == pytest.approx(0.8, rel=1e-5)

    def test_zero_q_is_a_symmetric_dip(self):
        energies = np.linspace(-30.0, 30.0, 201)
        vals = fano_profile(energies, 0.0, 0.0, 10.0, 0.9)
        assert vals[100] == pytest.approx(0.0, abs=1e-30)
        assert np.allclose(vals, vals[::-1], atol=1e-15)

    def test_peak_to_dip_ratio_grows_with_q(self):
        energies = np.linspace(-50.0, 50.0, 501)
        small = fano_profile(energies, 0.5, 0.0, 10.0, 1.0)
        large = fano_profile(energies, 3.0, 0.0, 10.0, 1.0)
        assert large.max() > small.max()


class TestGradient:
    def test_matches_finite_differences(self):
        # oracle: central differences on the squared-residual sum
        energies, values = synth()
        params = np.array([1.2, 3.0, 15.0, 0.7])
        analytic = fano_gradient(params, energies, values)

        def cost(p):
            r = fano_profile(energies, *p) - values
            return float(r @ r)

        for k in range(4):
            h = 1e-6 * max(1.0, abs(params[k]))
            up = params.copy(); up[k] += h
            dn = params.copy(); dn[k] -= h
            numeric = (cost(up) - cost(dn)) / (2.0 * h)
            scale = max(1.0, abs(numeric))
            assert abs(analytic[k] - numeric) / scale < 1e-5

    def test_zero_background_kills_asymmetry_sensitivity(self):
        energies, values = synth()
        grad = fano_gradient(np.array([1.0, 0.0, 10.0, 0.0]), energies, values)
        assert grad[0] == 0.0

    def test_vanishes_at_the_optimum(self):
        energies, values = synth()
        grad = fano_gradient(np.array(TRUTH), energies, values)
        assert np.linalg.norm(grad) < 1e-8


class TestRoundTrip:
    def test_parameters_recovered(self):
        energies, values = synth()
        fit = fit_fano_window(energies, values)
        assert fit.converged
        assert fit.q == pytest.approx(TRUTH[0], rel=1e-6)
        assert fit.e_res == pytest.approx(TRUTH[1], abs=1e-6)
        assert fit.gamma_w == pytest.approx(TRUTH[2], rel=1e-6)
        assert fit.t_bg == pytest.approx(TRUTH[3], rel=1e-6)
        assert fit.residual < 1e-10

    def test_negative_asymmetry_recovered(self):
        truth = (-0.9, 5.0, 12.0, 0.6)
        energies, values = synth(truth)
        fit = fit_fano_window(energies, values)
        assert fit.converged
        assert fit.q == pytest.approx(truth[0], rel=1e-6)
        assert fit.e_res == pytest.approx(truth[1], rel=1e-6)

    def test_exact_seed_stays_put(self):
        energies, values = synth()
        fit = fit_fano_window(energies, values, init=np.array(TRUTH))
        assert fit.converged
        assert fit.q == pytest.approx(TRUTH[0], rel=1e-9)

    def test_gradient_small_after_convergence(self):
        energies, values = synth()
        fit = fit_fano_window(energies, values)
        grad = fano_gradient(fit.params, energies, values)
        assert np.linalg.norm(grad) < 1e-8

    def test_gauge_shift_moves_only_the_center(self):
        shift = 444.0
        energies, values = synth()
        a = fit_fano_window(energies, values)
        b = fit_fano_window(energies + shift, values)
        assert b.e_res - a.e_res == pytest.approx(shift, abs=1e-8)
        assert b.q == pytest.approx(a.q, abs=1e-8)
        assert b.gamma_w == pytest.approx(a.gamma_w, abs=1e-8)
        assert b.t_bg == pytest.approx(a.t_bg, abs=1e-8)


class TestIterationDiscipline:
    def test_residual_never_increases_with_more_iterations(self, monkeypatch):
        # the damped step is only ever accepted when it lowers the cost, so
        # capping the iteration count earlier can never give a better fit
        energies, values = synth()
        residuals = []
        for k in (1, 2, 3, 5, 8, 13, 21, 60):
            monkeypatch.setattr(fano, "MAX_ITERATIONS", k)
            fit = fit_fano_window(energies, values)
            assert fit.iterations <= k
            residuals.append(fit.residual)
        for earlier, later in zip(residuals, residuals[1:]):
            assert later <= earlier + 1e-15

    def test_background_stays_in_bounds(self):
        energies, values = synth()
        fit = fit_fano_window(energies, values)
        assert 0.0 <= fit.t_bg <= 1.5

    def test_damping_cap_ends_a_fit_held_at_the_background_bound(self):
        # the data's background, 1.8, lies above T_BG_BOUNDS[1]: the seed sits
        # on the bound and every step leaves it, until the damping passes 1e12
        energies = np.linspace(-40.0, 40.0, 161)
        fit = fit_fano_window(energies, 2.0 * fano_profile(energies, 1.0, 0.0, 10.0, 0.9))
        assert (fit.iterations, fit.converged, fit.t_bg) == (16, False, T_BG_BOUNDS[1])

    def test_iterations_reported(self):
        energies, values = synth()
        fit = fit_fano_window(energies, values)
        assert 1 <= fit.iterations <= 500


class TestDegenerateInputs:
    def test_flat_window_flagged_not_raised(self):
        energies = np.linspace(0.0, 10.0, 50)
        fit = fit_fano_window(energies, np.full(50, 0.5))
        assert fit.converged is False
        assert fit.iterations == 0

    def test_too_few_points_rejected(self):
        energies = np.linspace(0.0, 1.0, MIN_WINDOW_POINTS - 1)
        with pytest.raises(ValueError, match="need >= 8"):
            fit_fano_window(energies, np.zeros(MIN_WINDOW_POINTS - 1))

    def test_bad_init_shape_rejected(self):
        energies, values = synth()
        with pytest.raises(ValueError, match="init"):
            fit_fano_window(energies, values, init=np.array([1.0, 2.0]))

    @pytest.mark.parametrize("init", [
        [np.nan, 0.0, 10.0, 0.5],   # not finite
        [1.0, 0.0, 0.0, 0.5],       # zero width: the model divides by gamma_w
        [1.0, 0.0, -5.0, 0.5],      # negative width
        [1.0, 0.0, 10.0, -0.1],     # t_bg below T_BG_BOUNDS
    ])
    def test_seed_outside_the_step_bounds_rejected(self, init):
        energies = np.linspace(-40.0, 40.0, 161)
        values = fano_profile(energies, 1.0, 0.0, 10.0, 0.5)
        message = (f"init must be finite with gamma_w > 0 and t_bg in {list(T_BG_BOUNDS)}, "
                   f"got {init}")
        with pytest.raises(ValueError) as err:
            fit_fano_window(energies, values, init=init)
        assert str(err.value) == message


class TestSpectrumWindowing:
    def test_fit_fano_slices_the_window(self):
        energies, values = synth()
        spec = spectrum_from(energies, values)
        fit = fit_fano(spec, (-40.0, 40.0))
        assert fit.converged
        assert fit.q == pytest.approx(TRUTH[0], rel=1e-5)

    def test_empty_window_rejected(self):
        energies, values = synth()
        spec = spectrum_from(energies, values)
        with pytest.raises(ValueError, match=re.escape("fit window is empty: [10.0, 10.0]")):
            fit_fano(spec, (10.0, 10.0))

    @pytest.mark.parametrize("window, message", [
        ((0.0, np.inf), "fit window: hi must be finite, got inf"),
        ((-np.inf, np.inf), "fit window: lo must be finite, got -inf"),
        ((np.nan, 600.0), "fit window: lo must be finite, got nan"),
    ], ids=["0-inf", "inf-inf", "nan-600"])
    def test_non_finite_window_rejected(self, window, message):
        # the rule a config's fit_windows and the CLI's --window obey
        energies, values = synth()
        spec = spectrum_from(energies, values)
        with pytest.raises(ValueError, match=re.escape(message)):
            fit_fano(spec, window)

    def test_sparse_window_rejected(self):
        energies, values = synth()
        spec = spectrum_from(energies, values)
        with pytest.raises(ValueError, match="grid points"):
            fit_fano(spec, (0.0, 1.0))


class TestFitRecord:
    def test_params_and_dict_agree(self):
        fit = FanoFit(q=1.0, e_res=2.0, gamma_w=3.0, t_bg=0.5,
                      residual=0.0, converged=True, iterations=7)
        assert np.array_equal(fit.params, [1.0, 2.0, 3.0, 0.5])
        d = fit.as_dict()
        assert d["converged"] is True and d["iterations"] == 7
