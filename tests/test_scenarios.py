import dataclasses

import numpy as np
import pytest

import conftest
from randnets import single_emitter

from excitonprobe.model import (
    LossBreakdown, ProbeGrid, SiteNetwork, WaveguideCoupling, fmo_preset,
    network_fingerprint,
)
from excitonprobe.scattering import sweep_spectrum
from excitonprobe.scenarios import (
    InhibitCoupling,
    RemoveSite,
    ScenarioError,
    SetPortAmplitudes,
    apply_defect,
    dip_count,
    find_extrema,
    run_scenario_suite,
    spectral_difference,
)


class TestScenarioLabels:
    def test_inhibit_label_sorts_sites(self):
        assert InhibitCoupling(6, 5).label == "inhibit-J-5-6"
        assert InhibitCoupling(1, 2).label == "inhibit-J-1-2"

    def test_remove_label(self):
        assert RemoveSite(2).label == "remove-site-2"

    def test_port_label_encodes_amplitudes(self):
        s = SetPortAmplitudes(ports=((1, 10.0), (6, 0.1)))
        assert s.label == "set-ports-1g10-6g0.1"

    def test_custom_label_wins(self):
        assert InhibitCoupling(1, 2, label="blocked").label == "blocked"


class TestApplyInhibit:
    def test_zeroes_both_directions(self, preset):
        net, wg = preset
        assert net.coupling[4, 5] == pytest.approx(89.7)
        new_net, new_wg = apply_defect(net, wg, InhibitCoupling(5, 6))
        assert new_net.coupling[4, 5] == 0.0
        assert new_net.coupling[5, 4] == 0.0
        assert new_wg is wg

    def test_only_that_entry_changes(self, preset):
        net, wg = preset
        new_net, _ = apply_defect(net, wg, InhibitCoupling(5, 6))
        mask = np.ones((7, 7), bool)
        mask[4, 5] = mask[5, 4] = False
        assert np.array_equal(new_net.coupling[mask], net.coupling[mask])

    def test_idempotent_on_zero_entry(self, preset):
        net, wg = preset
        once, _ = apply_defect(net, wg, InhibitCoupling(5, 6))
        twice, _ = apply_defect(once, wg, InhibitCoupling(5, 6))
        assert np.array_equal(once.coupling, twice.coupling)
        assert np.array_equal(once.epsilon, twice.epsilon)

    def test_input_not_mutated(self, preset):
        net, wg = preset
        before = np.array(net.coupling)
        apply_defect(net, wg, InhibitCoupling(1, 2))
        assert np.array_equal(net.coupling, before)

    def test_self_coupling_rejected(self, preset):
        net, wg = preset
        with pytest.raises(ScenarioError, match="itself"):
            apply_defect(net, wg, InhibitCoupling(3, 3))

    def test_out_of_range_rejected(self, preset):
        net, wg = preset
        with pytest.raises(ScenarioError, match="out of range"):
            apply_defect(net, wg, InhibitCoupling(1, 8))


class TestApplyRemove:
    def test_site_count_drops(self, preset):
        net, wg = preset
        new_net, new_wg = apply_defect(net, wg, RemoveSite(2))
        assert new_net.n_sites == 6
        assert new_net.labels == tuple(
            l for l in net.labels if l != "site 2"
        )

    def test_ports_remap_past_removed_site(self, preset):
        net, wg = preset
        _, new_wg = apply_defect(net, wg, RemoveSite(2))
        assert new_wg.ports == ((1, 10.0), (5, 10.0))

    def test_ports_below_removed_site_keep_index(self, preset):
        net, wg = preset
        _, new_wg = apply_defect(net, wg, RemoveSite(7))
        assert new_wg.ports == wg.ports

    def test_couplings_collapse_consistently(self, preset):
        net, wg = preset
        new_net, _ = apply_defect(net, wg, RemoveSite(2))
        # old (1,3) entry must now sit at (1,2)
        assert new_net.coupling[0, 1] == net.coupling[0, 2]
        assert new_net.epsilon[1] == net.epsilon[2]

    def test_losses_follow_their_sites(self, preset):
        net, wg = preset
        new_net, _ = apply_defect(net, wg, RemoveSite(2))
        assert new_net.loss_breakdown.sink[1] == pytest.approx(5.3)

    def test_port_site_rejected(self, preset):
        net, wg = preset
        with pytest.raises(ScenarioError, match="probed site 1"):
            apply_defect(net, wg, RemoveSite(1))
        with pytest.raises(ScenarioError, match="probed site 6"):
            apply_defect(net, wg, RemoveSite(6))

    def test_unknown_scenario_type_rejected(self, preset):
        net, wg = preset
        with pytest.raises(ScenarioError, match="unknown scenario"):
            apply_defect(net, wg, object())


class TestApplyPortRetune:
    def test_new_amplitudes_and_ohmic(self, preset):
        net, wg = preset
        new_net, new_wg = apply_defect(
            net, wg, SetPortAmplitudes(ports=((1, 10.0), (6, 0.1)))
        )
        assert dict(new_wg.ports) == {1: 10.0, 6: 0.1}
        # ohmic loss follows the induced width 2 g^2 / v_g at 1/20
        assert new_net.loss_breakdown.ohmic[5] == pytest.approx(0.05 * 2 * 0.1**2)
        assert new_net.loss_breakdown.dephasing[5] == pytest.approx(77.0)

    def test_site_structure_untouched(self, preset):
        net, wg = preset
        new_net, _ = apply_defect(
            net, wg, SetPortAmplitudes(ports=((1, 1.0), (6, 1.0)))
        )
        assert np.array_equal(new_net.coupling, net.coupling)
        assert np.array_equal(new_net.epsilon, net.epsilon)

    def test_baseline_ports_are_a_null_probe_on_any_wire(self):
        # the probe retunes g on the same wire, so the Ohmic fraction stays 0.5
        net, wg = fmo_preset(ohmic_fraction=0.5)
        new_net, new_wg = apply_defect(net, wg, SetPortAmplitudes(((1, 10.0), (6, 10.0))))
        assert np.array_equal(new_net.loss_breakdown.ohmic, [100, 0, 0, 0, 0, 100, 0])
        grid = ProbeGrid(-171.0, 893.0, 401)
        diff = spectral_difference(sweep_spectrum(net, wg, grid),
                                   sweep_spectrum(new_net, new_wg, grid))
        assert diff.as_dict() == {"l2": 0.0, "l_inf": 0.0, "area": 0.0, "extrema_delta": 0}

    @pytest.mark.parametrize("scenario", [RemoveSite(5), SetPortAmplitudes(((1, 10.0), (6, 0.1)))])
    def test_defects_keep_the_wire(self, scenario):
        net, wg = fmo_preset(ohmic_fraction=0.5, v_g=2.0)
        _, new_wg = apply_defect(net, wg, scenario)
        assert (new_wg.ohmic_fraction, new_wg.v_g) == (0.5, 2.0)


def constant_spectrum(value=0.7, n=50):
    grid = ProbeGrid(0.0, 10.0, n)
    T = np.full(n, value)
    return sweep_stub(grid, T)


def sweep_stub(grid, T):
    from excitonprobe.scattering import Spectrum

    T = np.asarray(T, float)
    zero = np.zeros_like(T)
    return Spectrum(grid=grid, T=T, R=zero, A_total=zero, A_channels={}, metadata={})


class TestFindExtrema:
    def test_constant_spectrum_has_none(self):
        assert find_extrema(constant_spectrum()) == []

    def test_prominence_must_be_positive(self, baseline_spectrum):
        with pytest.raises(ValueError, match="prominence"):
            find_extrema(baseline_spectrum, prominence=0.0)

    def test_single_lossless_resonance(self):
        net, wg = single_emitter(epsilon=5.0, g=10.0)
        grid = ProbeGrid(-295.0, 305.0, 2001)
        spec = sweep_spectrum(net, wg, grid)
        dips = [e for e in find_extrema(spec) if e.kind == "dip"]
        assert len(dips) == 1
        assert abs(dips[0].energy - 5.0) <= grid.spacing
        assert dips[0].T < 1e-4

    def test_results_sorted_by_energy(self, baseline_spectrum):
        ext = find_extrema(baseline_spectrum)
        energies = [e.energy for e in ext]
        assert energies == sorted(energies)

    def test_dip_count_matches_port_visible_eigenstates(self, preset, baseline_spectrum):
        # oracle: eigendecomposition of the network Hamiltonian; one dip per
        # eigenvector the ports can see (overlap above 1e-3)
        net, wg = preset
        H = np.diag(net.epsilon) + net.coupling
        _, evecs = np.linalg.eigh(H)
        w = wg.amplitude_vector(net.n_sites)
        overlaps = np.abs(evecs.T @ w) / np.linalg.norm(w)
        visible = int(np.sum(overlaps > 1e-3))
        assert dip_count(baseline_spectrum) == visible

    def test_gauge_shift_moves_extrema_rigidly(self, baseline_spectrum):
        shift = 500.0
        g = baseline_spectrum.grid
        shifted = dataclasses.replace(
            baseline_spectrum,
            grid=ProbeGrid(g.e_min + shift, g.e_max + shift, g.n_points),
        )
        a = find_extrema(baseline_spectrum)
        b = find_extrema(shifted)
        assert len(a) == len(b)
        for ea, eb in zip(a, b):
            assert eb.energy - ea.energy == pytest.approx(shift, abs=1e-9)
            assert eb.kind == ea.kind


class TestSpectralDifference:
    def test_self_difference_is_zero(self, baseline_spectrum):
        d = spectral_difference(baseline_spectrum, baseline_spectrum)
        assert d.l2 == 0.0 and d.l_inf == 0.0 and d.area == 0.0
        assert d.extrema_delta == 0

    def test_grid_mismatch_rejected(self, preset, baseline_spectrum):
        net, wg = preset
        other = sweep_spectrum(net, wg, ProbeGrid(-171.0, 893.0, 501))
        with pytest.raises(ValueError, match="grid mismatch"):
            spectral_difference(baseline_spectrum, other)

    def test_metrics_symmetric_under_swap(self, preset, preset_grid, baseline_spectrum):
        net, wg = preset
        d_net, d_wg = apply_defect(net, wg, InhibitCoupling(2, 3))
        mod = sweep_spectrum(d_net, d_wg, preset_grid)
        ab = spectral_difference(baseline_spectrum, mod)
        ba = spectral_difference(mod, baseline_spectrum)
        assert ab.l2 == pytest.approx(ba.l2)
        assert ab.l_inf == pytest.approx(ba.l_inf)
        assert ab.area == pytest.approx(ba.area)
        assert ab.extrema_delta == -ba.extrema_delta

    def test_strong_coupling_block_changes_more_than_weak(
        self, preset, preset_grid, baseline_spectrum
    ):
        net, wg = preset
        diffs = {}
        for sc in (InhibitCoupling(5, 6), InhibitCoupling(2, 3)):
            d_net, d_wg = apply_defect(net, wg, sc)
            diffs[sc.label] = spectral_difference(
                baseline_spectrum, sweep_spectrum(d_net, d_wg, preset_grid)
            )
        assert diffs["inhibit-J-5-6"].l_inf > diffs["inhibit-J-2-3"].l_inf

    def test_removing_a_site_loses_a_dip(self, preset, preset_grid, baseline_spectrum):
        net, wg = preset
        d_net, d_wg = apply_defect(net, wg, RemoveSite(2))
        d = spectral_difference(
            baseline_spectrum, sweep_spectrum(d_net, d_wg, preset_grid)
        )
        assert d.extrema_delta <= -1

    def test_as_dict_round_trip(self, baseline_spectrum):
        d = spectral_difference(baseline_spectrum, baseline_spectrum)
        assert d.as_dict() == {"l2": 0.0, "l_inf": 0.0, "area": 0.0, "extrema_delta": 0}


class TestDecouplingEquivalence:
    def test_full_decoupling_equals_removal(self, preset, preset_grid):
        # zero every bond to the site, silence its loss, leave it unprobed:
        # the stranded site must be invisible to the photon
        net, wg = preset
        site = 4
        k = net.site_index(site)
        J = np.array(net.coupling)
        J[k, :] = 0.0
        J[:, k] = 0.0
        bd = net.loss_breakdown
        channels = {name: np.array(getattr(bd, name)) for name in ("dephasing", "ohmic", "sink")}
        for arr in channels.values():
            arr[k] = 0.0
        stranded = SiteNetwork(
            n_sites=net.n_sites, epsilon=net.epsilon, coupling=J,
            loss=sum(channels.values()), loss_breakdown=LossBreakdown(**channels),
            labels=net.labels, reference_energy=net.reference_energy,
        )
        removed_net, removed_wg = apply_defect(net, wg, RemoveSite(site))
        a = sweep_spectrum(stranded, wg, preset_grid)
        b = sweep_spectrum(removed_net, removed_wg, preset_grid)
        assert np.max(np.abs(a.T - b.T)) < 1e-12
        assert np.max(np.abs(a.R - b.R)) < 1e-12


class TestScenarioSuite:
    def test_empty_scenario_list(self, preset, preset_grid):
        net, wg = preset
        report = run_scenario_suite(net, wg, preset_grid, [])
        assert report["scenarios"] == []
        assert report["baseline"]["label"] == "baseline"
        assert report["baseline"]["dip_count"] >= 1
        assert report["metadata"]["prominence"] == 0.01
        assert report["metadata"]["grid"]["n_points"] == preset_grid.n_points

    def test_failures_do_not_abort_the_rest(self, preset, preset_grid):
        net, wg = preset
        report = run_scenario_suite(
            net, wg, preset_grid,
            [RemoveSite(1), InhibitCoupling(2, 3)],
        )
        first, second = report["scenarios"]
        assert first["ok"] is False
        assert "cannot remove probed site 1" in first["error"]
        assert second["ok"] is True
        assert second["diff"]["l_inf"] > 0.0

    def test_on_spectrum_sees_baseline_then_each_success(self, preset, preset_grid):
        net, wg = preset
        scens = [InhibitCoupling(2, 3), RemoveSite(1), RemoveSite(5)]
        calls = []

        def record(entry, spec, base_spec):
            calls.append((entry, sorted(entry), spec, base_spec))

        report = run_scenario_suite(net, wg, preset_grid, scens, on_spectrum=record)
        assert report["scenarios"][1]["ok"] is False  # site 1 is probed
        assert [c[0]["label"] for c in calls] == ["baseline", "inhibit-J-2-3", "remove-site-5"]
        base_spec = calls[0][2]
        expected = [(report["baseline"], net, ["dip_count", "extrema", "label"])]
        for i in (0, 2):
            expected.append((report["scenarios"][i], apply_defect(net, wg, scens[i])[0],
                             ["diff", "dip_count", "extrema", "label", "ok"]))
        for (entry, keys, spec, base), (want, d_net, want_keys) in zip(calls, expected):
            assert entry is want and keys == want_keys
            assert base is base_spec
            assert spec.metadata["network_hash"] == network_fingerprint(d_net)
            assert entry["dip_count"] == dip_count(spec)

    def test_entries_keep_input_order(self, preset, preset_grid):
        net, wg = preset
        scens = [InhibitCoupling(1, 2), InhibitCoupling(2, 3), RemoveSite(5)]
        report = run_scenario_suite(net, wg, preset_grid, scens)
        assert [e["label"] for e in report["scenarios"]] == [s.label for s in scens]

    def test_blocking_strong_couplings_dominates_weak_ones(
        self, preset, preset_grid
    ):
        # the two strongest bonds sit on the probed corners of the network;
        # through the suite, blocking either must beat blocking the weak
        # bonds (6,7), the strongest and the largest in l2, (2,3), and
        # (5,7), the largest in l_inf (acceptance check 6 ranks every one)
        net, wg = preset
        strong, _, weak = conftest.bond_classes(net)
        assert strong == [(1, 2), (5, 6)]
        assert weak[:2] == [(6, 7), (2, 3)] and (5, 7) in weak
        pairs = strong + [(6, 7), (2, 3), (5, 7)]
        scens = [InhibitCoupling(*pair) for pair in pairs]
        report = run_scenario_suite(net, wg, preset_grid, scens)
        assert [e["label"] for e in report["scenarios"]] == [
            f"inhibit-J-{a}-{b}" for a, b in pairs
        ]
        diff = {e["label"]: e["diff"] for e in report["scenarios"]}
        for s in scens[:2]:
            for w in scens[2:]:
                for metric in ("l_inf", "l2"):
                    assert diff[s.label][metric] > diff[w.label][metric], (
                        f"{s.label} {metric} ({diff[s.label][metric]:.4f}) "
                        f"does not exceed {w.label} ({diff[w.label][metric]:.4f})"
                    )

    def test_asymmetric_probe_amplifies_the_strong_block(self, preset):
        from excitonprobe.scattering import default_grid

        net, wg = preset
        grid = default_grid(net)
        sym = run_scenario_suite(net, wg, grid, [InhibitCoupling(1, 2)])
        lop_net, lop_wg = apply_defect(
            net, wg, SetPortAmplitudes(ports=((1, 10.0), (6, 0.1)))
        )
        lop = run_scenario_suite(lop_net, lop_wg, grid, [InhibitCoupling(1, 2)])
        assert (
            lop["scenarios"][0]["diff"]["l_inf"]
            > sym["scenarios"][0]["diff"]["l_inf"]
        )
