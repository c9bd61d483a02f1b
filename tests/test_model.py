import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from excitonprobe.model import (
    LOSS_CHANNELS,
    OHMIC_FRACTION_DEFAULT,
    LossBreakdown,
    PresetDataError,
    ProbeGrid,
    SiteNetwork,
    WaveguideCoupling,
    fmo_preset,
    induced_width,
    network_fingerprint,
    rebuild_port_losses,
    validate_network,
)
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
    if len(net.labels) != n:
        violations.append(f"{len(net.labels)} labels for {n} sites")
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
    def test_default_labels(self):
        net = small_network(3)
        assert net.labels == ("site 1", "site 2", "site 3")

    def test_site_index_is_one_based(self):
        net = small_network(3)
        assert net.site_index(1) == 0
        assert net.site_index(3) == 2

    def test_site_index_rejects_out_of_range(self):
        net = small_network(3)
        with pytest.raises(IndexError):
            net.site_index(0)
        with pytest.raises(IndexError):
            net.site_index(4)

    def test_arrays_are_read_only(self):
        net = small_network(3)
        with pytest.raises(ValueError):
            net.epsilon[0] = 99.0
        with pytest.raises(ValueError):
            net.coupling[0, 1] = 99.0


class TestWaveguideCoupling:
    def test_amplitude_vector_places_ports(self):
        wg = WaveguideCoupling(ports=((1, 10.0), (6, 0.5)))
        w = wg.amplitude_vector(7)
        assert w[0] == 10.0 and w[5] == 0.5
        assert np.count_nonzero(w) == 2

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


class TestProbeGrid:
    def test_spacing_and_energies(self):
        grid = ProbeGrid(0.0, 10.0, 11)
        assert grid.spacing == 1.0
        e = grid.energies()
        assert e[0] == 0.0 and e[-1] == 10.0 and len(e) == 11

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError):
            ProbeGrid(0.0, 1.0, 1)

    def test_empty_range_rejected(self):
        with pytest.raises(ValueError):
            ProbeGrid(5.0, 5.0, 10)


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
        bad = SiteNetwork(
            n_sites=3, epsilon=net.epsilon, coupling=J,
            loss=net.loss, loss_breakdown=net.loss_breakdown,
        )
        msgs = validate_network(bad)
        assert any("asymmetric coupling (1,2)" in m for m in msgs)

    def test_loss_mismatch_reported(self):
        net = small_network(3)
        bad = SiteNetwork(
            n_sites=3, epsilon=net.epsilon, coupling=net.coupling,
            loss=np.array([1.0, 0.0, 0.0]), loss_breakdown=net.loss_breakdown,
        )
        msgs = validate_network(bad)
        assert any("mismatch at site 1" in m for m in msgs)

    def test_nonzero_diagonal_reported(self):
        net = small_network(2)
        J = np.array(net.coupling)
        J[0, 0] = 3.0
        bad = SiteNetwork(
            n_sites=2, epsilon=net.epsilon, coupling=J,
            loss=net.loss, loss_breakdown=net.loss_breakdown,
        )
        assert any("diagonal at site 1" in m for m in validate_network(bad))

    def test_negative_channel_reported(self):
        n = 2
        bd = LossBreakdown(dephasing=[-1.0, 0.0], ohmic=[0.0, 0.0], sink=[0.0, 0.0])
        bad = SiteNetwork(
            n_sites=n, epsilon=np.zeros(n), coupling=np.zeros((n, n)),
            loss=bd.total(), loss_breakdown=bd,
        )
        assert any("negative dephasing loss at site 1" in m for m in validate_network(bad))

    def test_opposite_infinite_channels_reported_without_warning(self):
        # inf + -inf at one site sums to NaN: a mismatch, not a RuntimeWarning
        n = 2
        bd = LossBreakdown(dephasing=[np.inf, 0.0], ohmic=[-np.inf, 0.0], sink=np.zeros(n))
        bad = SiteNetwork(n_sites=n, epsilon=np.zeros(n), coupling=np.zeros((n, n)),
                          loss=np.zeros(n), loss_breakdown=bd)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            msgs = validate_network(bad)
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
        bad = SiteNetwork(n_sites=n, epsilon=np.zeros(n), coupling=J,
                          loss=loss, loss_breakdown=bd)
        assert validate_network(bad) == [
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
        bad = SiteNetwork(n_sites=n, epsilon=arrays["epsilon"], coupling=arrays["coupling"],
                          loss=arrays["loss"], loss_breakdown=bd)
        assert validate_network(bad) == loop_validate_network(bad)

    def test_shape_mismatch_reported(self):
        bd = LossBreakdown.zeros(3)
        bad = SiteNetwork(
            n_sites=3, epsilon=np.zeros(2), coupling=np.zeros((3, 3)),
            loss=bd.total(), loss_breakdown=bd,
        )
        assert any("epsilon shape" in m for m in validate_network(bad))


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

    def test_input_not_mutated(self, preset):
        net, wg = preset
        before = np.array(net.loss_breakdown.ohmic)
        new_wg = WaveguideCoupling(ports=((1, 1.0), (6, 1.0)), v_g=wg.v_g)
        rebuild_port_losses(net, wg, new_wg)
        assert np.array_equal(net.loss_breakdown.ohmic, before)
