import dataclasses
import os
import re
import shutil
import subprocess
import sys
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from excitonprobe.model import (
    LOSS_CHANNELS,
    OHMIC_FRACTION_DEFAULT,
    LossBreakdown,
    NetworkValidationError,
    PresetDataError,
    ProbeGrid,
    SiteDataError,
    SiteNetwork,
    WaveguideCoupling,
    fmo_preset,
    induced_width,
    network_fingerprint,
    network_from_site_data,
    rebuild_port_losses,
    validate_network,
)
from excitonprobe import model, scattering
from randnets import random_instance


def small_network(n=3, loss=None):
    eps = np.arange(n, dtype=float) * 10.0
    J = np.zeros((n, n))
    if n >= 2:
        J[0, 1] = J[1, 0] = 2.5
    bd = LossBreakdown.zeros(n)
    if loss is not None:
        bd = LossBreakdown(dephasing=loss, ohmic=np.zeros(n), sink=np.zeros(n))
    return SiteNetwork(
        n_sites=n, epsilon=eps, coupling=J, loss=bd.total(), loss_breakdown=bd
    )


def loop_validate_network(net):
    """validate_network as a per-site Python loop: the reference the array
    version must match message for message, in the same order."""
    violations = []
    n = net.n_sites
    if n < 1:
        violations.append(f"n_sites must be >= 1, got {n}")
        return violations

    if net.epsilon.shape != (n,):
        violations.append(f"epsilon shape {net.epsilon.shape} inconsistent with n_sites {n}")
    if net.coupling.shape != (n, n):
        violations.append(f"coupling shape {net.coupling.shape} inconsistent with n_sites {n}")
    if net.loss.shape != (n,):
        violations.append(f"loss shape {net.loss.shape} inconsistent with n_sites {n}")
    for name, arr in net.loss_breakdown.as_dict().items():
        if arr.shape != (n,):
            violations.append(
                f"loss_breakdown[{name}] shape {arr.shape} inconsistent with n_sites {n}"
            )
    if violations:
        return violations

    for arr, name in ((net.epsilon, "epsilon"), (net.coupling, "coupling"), (net.loss, "loss")):
        if not np.all(np.isfinite(arr)):
            violations.append(f"non-finite values in {name}")

    J = net.coupling
    for i in range(n):
        if J[i, i] != 0.0:
            violations.append(f"nonzero coupling diagonal at site {i + 1}")
        for j in range(i + 1, n):
            if J[i, j] != J[j, i]:
                violations.append(f"asymmetric coupling ({i + 1},{j + 1})")

    for name, arr in net.loss_breakdown.as_dict().items():
        for i in range(n):
            if arr[i] < 0:
                violations.append(f"negative {name} loss at site {i + 1}")
    total = net.loss_breakdown.total()
    for i in range(n):
        if net.loss[i] < 0:
            violations.append(f"negative loss at site {i + 1}")
        if not np.isclose(net.loss[i], total[i], rtol=0.0, atol=1e-12):
            violations.append(f"loss_breakdown mismatch at site {i + 1}")

    return violations


def checked_violations(**fields):
    """validate_network's messages for a record of these SiteNetwork fields.

    SiteNetwork refuses to be built with a violation, so the record checked
    is duck-typed. Its messages must match loop_validate_network's, and
    SiteNetwork(**fields) must raise NetworkValidationError with the same
    list, or build when the list is empty.
    """
    record = SimpleNamespace(**fields)
    for name in ("epsilon", "coupling", "loss"):
        setattr(record, name, np.array(fields[name], dtype=float))
    msgs = validate_network(record)
    with np.errstate(invalid="ignore"):  # the loop sums inf + -inf unguarded
        assert loop_validate_network(record) == msgs
    if not msgs:
        SiteNetwork(**fields)
        return msgs
    with pytest.raises(NetworkValidationError) as err:
        SiteNetwork(**fields)
    assert err.value.violations == msgs
    return msgs


# Values that sit on an edge of some check: non-finite, signed zero, the
# smallest negative subnormal, and differences just inside and outside the
# 1e-12 loss tolerance.
EDGE_VALUES = [np.nan, np.inf, -np.inf, -1.0, -0.0, 0.0, -5e-324, 5e-13, 2e-12, 3.0]
CORRUPTION = st.tuples(
    st.sampled_from(("epsilon", "coupling", "loss") + LOSS_CHANNELS),
    st.integers(0, 63), st.integers(0, 63),
    st.one_of(st.sampled_from(EDGE_VALUES), st.floats()),
)


class TestInducedWidth:
    def test_reference_value(self):
        # g=10, v_g=1 gives 2*10^2/1
        assert induced_width(10.0, 1.0) == 200.0

    def test_scales_inverse_with_group_velocity(self):
        assert induced_width(3.0, 2.0) == pytest.approx(9.0)


class TestLossBreakdown:
    def test_total_sums_channels(self):
        bd = LossBreakdown(
            dephasing=[1.0, 0.0], ohmic=[0.5, 0.0], sink=[0.0, 2.0]
        )
        assert np.allclose(bd.total(), [1.5, 2.0])

    def test_as_dict_keys_match_channel_names(self):
        bd = LossBreakdown.zeros(2)
        assert tuple(bd.as_dict()) == LOSS_CHANNELS

    def test_zeros_factory(self):
        bd = LossBreakdown.zeros(4)
        assert np.all(bd.total() == 0.0)

    def test_arrays_are_read_only(self):
        bd = LossBreakdown.zeros(2)
        with pytest.raises(ValueError):
            bd.dephasing[0] = 1.0


class TestSiteNetwork:
    def test_arrays_are_read_only(self):
        net = small_network(3)
        with pytest.raises(ValueError):
            net.epsilon[0] = 99.0
        with pytest.raises(ValueError):
            net.coupling[0, 1] = 99.0

    def test_reference_energy_is_a_python_float(self):
        net = dataclasses.replace(small_network(3), reference_energy=np.float64(12000.0))
        assert type(net.reference_energy) is float and net.reference_energy == 12000.0

    @pytest.mark.parametrize("value, message", [
        (float("nan"), "reference_energy must be finite, got nan"),
        (float("-inf"), "reference_energy must be finite, got -inf"),
        ("12000", "reference_energy must be a real number, got '12000'"),
        (True, "reference_energy must be a real number, got True"),
    ], ids=["nan", "inf", "string", "bool"])
    def test_reference_energy_must_be_finite_real(self, value, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            dataclasses.replace(small_network(3), reference_energy=value)

    @pytest.mark.parametrize("value", [3.0, "3", True])
    def test_site_count_must_be_an_integer(self, value):
        bd = LossBreakdown.zeros(3)
        with pytest.raises(ValueError, match=re.escape(f"n_sites must be an integer, got {value!r}")):
            SiteNetwork(n_sites=value, epsilon=np.zeros(3), coupling=np.zeros((3, 3)),
                        loss=bd.total(), loss_breakdown=bd)

    def test_numpy_integer_site_count_stored_as_int(self):
        net = dataclasses.replace(small_network(3), n_sites=np.int64(3))
        assert type(net.n_sites) is int and validate_network(net) == []

    def test_every_builder_refuses_a_violation(self, preset):
        net, wg = preset
        J = np.array(net.coupling)
        J[0, 1] += 1.0
        with pytest.raises(NetworkValidationError, match=r"^asymmetric coupling \(1,2\)$"):
            dataclasses.replace(net, coupling=J)
        # a port amplitude of 1e200 gives an Ohmic loss that overflows to inf
        with pytest.raises(NetworkValidationError, match="^non-finite values in loss$"):
            rebuild_port_losses(net, wg, WaveguideCoupling(ports=((1, 1e200), (6, 10.0))))
        with pytest.raises(NetworkValidationError, match="^non-finite values in loss$"):
            fmo_preset(g1=1e200)  # network_from_site_data


class TestWaveguideCoupling:
    def test_amplitude_vector_places_ports(self):
        wg = WaveguideCoupling(ports=((1, 10.0), (6, 0.5)))
        w = wg.amplitude_vector(7)
        assert w[0] == 10.0 and w[5] == 0.5
        assert np.count_nonzero(w) == 2

    def test_amplitude_vector_names_every_missing_port_site(self):
        wg = WaveguideCoupling(ports=((9, 1.0), (2, 1.0), (4, 0.0)))
        with pytest.raises(NetworkValidationError) as err:
            wg.amplitude_vector(3)
        assert err.value.violations == ["port site 9 out of range 1..3",
                                        "port site 4 out of range 1..3"]

    def test_validation_error_is_one_class(self):
        import excitonprobe
        assert scattering.NetworkValidationError is NetworkValidationError
        assert excitonprobe.NetworkValidationError is NetworkValidationError

    @given(ports=st.dictionaries(st.integers(1, 9), st.one_of(
               st.floats(0.0, 1e6), st.floats(0.0, 1e200), st.sampled_from([0.0, 5e-324])),
               min_size=1, max_size=9),
           v_g=st.one_of(st.floats(1e-300, 1e300), st.sampled_from([1.0, 5e-324])),
           fraction=st.one_of(st.floats(0.0, 1e300), st.sampled_from([0.0, 0.05])))
    @settings(max_examples=300, deadline=None)
    def test_port_ohmic_losses_match_each_port_width(self, ports, v_g, fraction):
        wg = WaveguideCoupling(ports=tuple(ports.items()), v_g=v_g, ohmic_fraction=fraction)
        expected = np.zeros(9)
        with np.errstate(over="ignore"):
            for site, width in wg.port_widths().items():
                expected[site - 1] = fraction * width
            ohmic = model._port_ohmic_losses(wg, 9)
        assert np.array_equal(ohmic.view(np.int64), expected.view(np.int64))  # bit for bit

    def test_port_widths(self):
        wg = WaveguideCoupling(ports=((1, 10.0), (6, 10.0)))
        assert wg.port_widths() == {1: 200.0, 6: 200.0}

    def test_duplicate_ports_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            WaveguideCoupling(ports=((1, 1.0), (1, 2.0)))

    def test_negative_amplitude_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            WaveguideCoupling(ports=((1, -1.0),))

    def test_bad_site_number_rejected(self):
        with pytest.raises(ValueError):
            WaveguideCoupling(ports=((0, 1.0),))

    def test_nonpositive_group_velocity_rejected(self):
        with pytest.raises(ValueError, match="velocity"):
            WaveguideCoupling(ports=((1, 1.0),), v_g=0.0)

    @pytest.mark.parametrize("kwargs, message", [
        ({"v_g": float("nan")}, "group velocity v_g must be finite, got nan"),
        ({"v_g": float("inf")}, "group velocity v_g must be finite, got inf"),
        ({"ohmic_fraction": float("nan")}, "ohmic_fraction must be finite, got nan"),
        ({"ohmic_fraction": -0.5}, "ohmic_fraction must be >= 0, got -0.5"),
        ({"ports": ((1, float("inf")),)}, "ports: g at site 1 must be finite, got inf"),
    ], ids=["v_g-nan", "v_g-inf", "ohmic-nan", "ohmic-negative", "g-inf"])
    def test_non_finite_or_negative_rate_rejected(self, kwargs, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            WaveguideCoupling(**{"ports": ((1, 1.0),), **kwargs})


class TestProbeGrid:
    def test_spacing_and_energies(self):
        grid = ProbeGrid(0.0, 10.0, 11)
        assert grid.spacing == 1.0
        e = grid.energies()
        assert e[0] == 0.0 and e[-1] == 10.0 and len(e) == 11

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(e_min=st.floats(-1e6, 1e6), span=st.floats(1e-6, 1e6), n=st.integers(2, 5000),
           picks=st.lists(st.integers(0, 2 ** 16), min_size=3, max_size=3))
    def test_energies_at_rows_are_linspace_bit_for_bit(self, e_min, span, n, picks):
        grid = ProbeGrid(e_min, e_min + span, n)
        want = np.linspace(grid.e_min, grid.e_max, grid.n_points)
        lo, hi = sorted(k % (n + 2) for k in picks[:2])
        rows = np.array([k % n for k in picks] + [n - 1, 0])
        for got, ref in ((grid.energies(), want), (grid.energies(slice(lo, hi)), want[lo:hi]),
                         (grid.energies(slice(lo, None, 3)), want[lo::3]),
                         (grid.energies(rows), want[rows])):
            assert got.tobytes() == ref.tobytes()

    def test_last_energy_is_e_max_not_the_step_sum(self):
        # on this grid 0.1 + 6 * spacing is 0.30000000000000004
        grid = ProbeGrid(0.1, 0.3, 7)
        assert grid.e_min + 6 * grid.spacing != grid.e_max
        assert grid.energies([6])[0] == grid.energies()[-1] == 0.3

    def test_energies_outside_the_grid_rejected(self):
        with pytest.raises(IndexError, match=re.escape("grid rows outside 0..10")):
            ProbeGrid(0.0, 1.0, 11).energies([3, 11])

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError):
            ProbeGrid(0.0, 1.0, 1)

    def test_empty_range_rejected(self):
        with pytest.raises(ValueError):
            ProbeGrid(5.0, 5.0, 10)

    def test_numpy_integer_point_count_stored_as_int(self):
        grid = ProbeGrid(0.0, 1.0, np.int64(11))
        assert type(grid.n_points) is int and grid.n_points == 11

    def test_point_count_must_be_an_integer(self):
        with pytest.raises(ValueError, match=re.escape("n_points must be an integer, got 11.0")):
            ProbeGrid(0.0, 1.0, 11.0)

    def test_overflowing_span_rejected(self):
        message = "grid range [-1e+308, 1e+308] is too wide: e_max - e_min overflows"
        with pytest.raises(ValueError, match=re.escape(message)):
            ProbeGrid(-1e308, 1e308, 5)

    @pytest.mark.parametrize("e_max, n_points, spacing", [
        (5e-324, 2, "5e-324"), (1e-300, 10 ** 10 + 1, "1e-310")])
    def test_subnormal_spacing_rejected(self, e_max, n_points, spacing):
        message = (f"grid range [0.0, {e_max}] is too narrow for {n_points} points: "
                   f"spacing {spacing} is below the smallest normal float")
        with pytest.raises(ValueError, match=re.escape(message)):
            ProbeGrid(0.0, e_max, n_points)

    def test_smallest_normal_spacing_accepted(self):
        tiny = np.finfo(float).tiny
        assert ProbeGrid(0.0, tiny, 2).spacing == tiny


class TestValidateNetwork:
    def test_clean_network_has_no_violations(self):
        assert validate_network(small_network(3)) == []

    def test_preset_is_valid(self, preset):
        net, _ = preset
        assert validate_network(net) == []

    def test_asymmetric_coupling_reported(self):
        net = small_network(3)
        J = np.array(net.coupling)
        J[0, 1] = 1.0
        J[1, 0] = 2.0
        msgs = checked_violations(
            n_sites=3, epsilon=net.epsilon, coupling=J,
            loss=net.loss, loss_breakdown=net.loss_breakdown,
        )
        assert any("asymmetric coupling (1,2)" in m for m in msgs)

    def test_loss_mismatch_reported(self):
        net = small_network(3)
        msgs = checked_violations(
            n_sites=3, epsilon=net.epsilon, coupling=net.coupling,
            loss=np.array([1.0, 0.0, 0.0]), loss_breakdown=net.loss_breakdown,
        )
        assert any("mismatch at site 1" in m for m in msgs)

    def test_nonzero_diagonal_reported(self):
        net = small_network(2)
        J = np.array(net.coupling)
        J[0, 0] = 3.0
        msgs = checked_violations(
            n_sites=2, epsilon=net.epsilon, coupling=J,
            loss=net.loss, loss_breakdown=net.loss_breakdown,
        )
        assert any("diagonal at site 1" in m for m in msgs)

    def test_negative_channel_reported(self):
        n = 2
        bd = LossBreakdown(dephasing=[-1.0, 0.0], ohmic=[0.0, 0.0], sink=[0.0, 0.0])
        msgs = checked_violations(
            n_sites=n, epsilon=np.zeros(n), coupling=np.zeros((n, n)),
            loss=bd.total(), loss_breakdown=bd,
        )
        assert any("negative dephasing loss at site 1" in m for m in msgs)

    def test_opposite_infinite_channels_reported_without_warning(self):
        # inf + -inf at one site sums to NaN: a mismatch, not a RuntimeWarning
        n = 2
        bd = LossBreakdown(dephasing=[np.inf, 0.0], ohmic=[-np.inf, 0.0], sink=np.zeros(n))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            msgs = checked_violations(n_sites=n, epsilon=np.zeros(n), coupling=np.zeros((n, n)),
                                      loss=np.zeros(n), loss_breakdown=bd)
        assert msgs == ["negative ohmic loss at site 1", "loss_breakdown mismatch at site 1"]

    def test_messages_keep_the_loop_order(self):
        # site 2's diagonal comes before its pair (2,4); channels come in
        # LOSS_CHANNELS order; per site, "negative loss" before "mismatch"
        n = 4
        J = np.zeros((n, n))
        J[0, 2] = np.nan
        J[1, 1] = 3.0
        J[1, 3], J[3, 1] = 1.0, 2.0
        bd = LossBreakdown(dephasing=[0.0, 0.0, -1.0, 0.0], ohmic=np.zeros(n),
                           sink=[-2.0, 0.0, 0.0, 0.0])
        loss = bd.total()
        loss[1] += 1.0
        loss[3] = -1.0
        assert checked_violations(n_sites=n, epsilon=np.zeros(n), coupling=J,
                                  loss=loss, loss_breakdown=bd) == [
            "non-finite values in coupling",
            "asymmetric coupling (1,3)",
            "nonzero coupling diagonal at site 2",
            "asymmetric coupling (2,4)",
            "negative dephasing loss at site 3",
            "negative sink loss at site 1",
            "negative loss at site 1",
            "loss_breakdown mismatch at site 2",
            "negative loss at site 3",
            "negative loss at site 4",
            "loss_breakdown mismatch at site 4",
        ]

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1), corruptions=st.lists(CORRUPTION, max_size=6))
    def test_matches_loop_on_corrupted_random_networks(self, seed, corruptions):
        net, _, _ = random_instance(np.random.default_rng(seed))
        n = net.n_sites
        arrays = {"epsilon": np.array(net.epsilon), "coupling": np.array(net.coupling),
                  "loss": np.array(net.loss)}
        arrays.update((name, np.array(a)) for name, a in net.loss_breakdown.as_dict().items())
        for target, i, j, value in corruptions:
            index = (i % n, j % n) if target == "coupling" else i % n
            arrays[target][index] = value
        bd = LossBreakdown(**{name: arrays[name] for name in LOSS_CHANNELS})
        checked_violations(n_sites=n, epsilon=arrays["epsilon"], coupling=arrays["coupling"],
                           loss=arrays["loss"], loss_breakdown=bd)

    @pytest.mark.parametrize("changes, message", [
        ({"n_sites": 0, "epsilon": np.zeros(0), "coupling": np.zeros((0, 0)),
          "loss": np.zeros(0), "loss_breakdown": LossBreakdown.zeros(0)},
         "n_sites must be >= 1, got 0"),
        ({"coupling": np.zeros((3, 2))}, "coupling shape (3, 2) inconsistent with n_sites 3"),
        ({"loss": np.zeros(4)}, "loss shape (4,) inconsistent with n_sites 3"),
        ({"loss_breakdown": LossBreakdown(np.zeros(3), np.zeros(2), np.zeros(3))},
         "loss_breakdown[ohmic] shape (2,) inconsistent with n_sites 3"),
    ])
    def test_size_messages(self, changes, message):
        bd = LossBreakdown.zeros(3)
        fields = dict(n_sites=3, epsilon=np.zeros(3), coupling=np.zeros((3, 3)),
                      loss=bd.total(), loss_breakdown=bd)
        assert checked_violations(**{**fields, **changes}) == [message]

    def test_shape_mismatch_reported(self):
        bd = LossBreakdown.zeros(3)
        msgs = checked_violations(
            n_sites=3, epsilon=np.zeros(2), coupling=np.zeros((3, 3)),
            loss=bd.total(), loss_breakdown=bd,
        )
        assert any("epsilon shape" in m for m in msgs)


class TestFingerprint:
    def test_format(self, preset):
        net, _ = preset
        fp = network_fingerprint(net)
        assert len(fp) == 16
        int(fp, 16)

    def test_deterministic(self, preset):
        net, _ = preset
        assert network_fingerprint(net) == network_fingerprint(net)

    def test_sensitive_to_energies(self):
        a = small_network(3)
        shifted = SiteNetwork(
            n_sites=3, epsilon=np.array(a.epsilon) + 1.0, coupling=a.coupling,
            loss=a.loss, loss_breakdown=a.loss_breakdown,
        )
        assert network_fingerprint(a) != network_fingerprint(shifted)


class TestPreset:
    def test_network_shape(self, preset):
        net, wg = preset
        assert net.n_sites == 7
        assert net.reference_energy == 12000.0
        assert [s for s, _ in wg.ports] == [1, 6]

    def test_default_port_amplitudes(self, preset):
        _, wg = preset
        assert dict(wg.ports) == {1: 10.0, 6: 10.0}

    def test_pinned_couplings(self, preset):
        net, _ = preset
        assert net.coupling[0, 1] == pytest.approx(-104.1)
        assert net.coupling[4, 5] == pytest.approx(89.7)
        assert np.allclose(net.coupling, net.coupling.T)

    def test_port_site_loss_is_dephasing_plus_ohmic(self, preset):
        # gamma_dp=77 plus 1/20 of the induced width 200 gives 87 per port
        net, _ = preset
        assert net.loss[0] == pytest.approx(87.0)
        assert net.loss[5] == pytest.approx(87.0)

    def test_sink_sits_on_site_3_only(self, preset):
        net, _ = preset
        assert net.loss_breakdown.sink[2] == pytest.approx(5.3)
        assert np.count_nonzero(net.loss_breakdown.sink) == 1

    def test_interior_sites_are_lossless(self, preset):
        net, _ = preset
        for idx in (1, 3, 4, 6):
            assert net.loss[idx] == 0.0

    def test_custom_rates(self):
        net, wg = fmo_preset(g1=2.0, g6=4.0, gamma_dp=10.0, gamma_s=1.0,
                             ohmic_fraction=0.5, v_g=2.0)
        assert dict(wg.ports) == {1: 2.0, 6: 4.0}
        assert net.loss_breakdown.ohmic[0] == pytest.approx(0.5 * induced_width(2.0, 2.0))
        assert net.loss_breakdown.ohmic[5] == pytest.approx(0.5 * induced_width(4.0, 2.0))
        assert net.loss_breakdown.dephasing[0] == 10.0
        assert net.loss_breakdown.sink[2] == 1.0

    def test_preset_error_type(self):
        assert issubclass(PresetDataError, RuntimeError)

    def test_copy_under_another_name_reads_its_own_data(self, preset, tmp_path):
        shutil.copytree(Path(model.__file__).parent, tmp_path / "excitonprobe_b",
                        ignore=shutil.ignore_patterns("__pycache__"))
        probe = ("import sys, excitonprobe_b as p; "
                 "print(p.network_fingerprint(p.fmo_preset()[0])); "
                 "assert 'excitonprobe' not in sys.modules")
        # the copy alone on the path: the original tree cannot be imported
        env = dict(os.environ, PYTHONPATH=str(tmp_path))
        proc = subprocess.run([sys.executable, "-c", probe], cwd=tmp_path, env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == network_fingerprint(preset[0]) + "\n"


class TestRebuildPortLosses:
    def test_retuned_amplitude_retunes_ohmic(self, preset):
        net, wg = preset
        new_wg = WaveguideCoupling(ports=((1, 10.0), (6, 0.1)), v_g=wg.v_g)
        out = rebuild_port_losses(net, wg, new_wg)
        expected = OHMIC_FRACTION_DEFAULT * induced_width(0.1, wg.v_g)
        assert out.loss_breakdown.ohmic[5] == pytest.approx(expected)
        assert out.loss_breakdown.dephasing[5] == net.loss_breakdown.dephasing[5]

    def test_abandoned_port_loses_ohmic_term(self, preset):
        net, wg = preset
        new_wg = WaveguideCoupling(ports=((1, 10.0),), v_g=wg.v_g)
        out = rebuild_port_losses(net, wg, new_wg)
        assert out.loss_breakdown.ohmic[5] == 0.0
        assert out.loss_breakdown.ohmic[0] == pytest.approx(10.0)

    def test_totals_stay_consistent(self, preset):
        net, wg = preset
        new_wg = WaveguideCoupling(ports=((1, 3.0), (6, 3.0)), v_g=wg.v_g)
        out = rebuild_port_losses(net, wg, new_wg)
        assert validate_network(out) == []

    @pytest.mark.parametrize("side", ["old", "new"])
    def test_port_site_outside_network_rejected(self, preset, side):
        net, wg = preset
        far = WaveguideCoupling(ports=((1, 10.0), (9, 1.0)), v_g=wg.v_g)
        old_wg, new_wg = (far, wg) if side == "old" else (wg, far)
        with pytest.raises(NetworkValidationError, match=r"^port site 9 out of range 1\.\.7$"):
            rebuild_port_losses(net, old_wg, new_wg)

    def test_input_not_mutated(self, preset):
        net, wg = preset
        before = np.array(net.loss_breakdown.ohmic)
        new_wg = WaveguideCoupling(ports=((1, 1.0), (6, 1.0)), v_g=wg.v_g)
        rebuild_port_losses(net, wg, new_wg)
        assert np.array_equal(net.loss_breakdown.ohmic, before)


class TestSiteData:
    RATES = dict(g1=10.0, g6=10.0, gamma_dp=77.0, gamma_s=5.3,
                 ohmic_fraction=OHMIC_FRACTION_DEFAULT, v_g=1.0)

    @pytest.mark.parametrize("data, message", [
        ({"epsilon_cm1": [0.0] * 7}, "site data lacks key 'coupling_upper_triangle_cm1'"),
        ({"epsilon_cm1": [0.0] * 6 + ["x"], "coupling_upper_triangle_cm1": []},
         "key 'epsilon_cm1' must list one number per site (7 sites)"),
    ])
    def test_malformed_site_data_messages(self, data, message):
        with pytest.raises(SiteDataError) as err:
            network_from_site_data(data, **self.RATES)
        assert str(err.value) == message
