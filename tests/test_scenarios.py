import dataclasses
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.signal import find_peaks

import conftest
from randnets import single_emitter

from excitonprobe import scenarios
from excitonprobe.model import (
    LossBreakdown, NetworkValidationError, ProbeGrid, SiteNetwork, WaveguideCoupling,
    fmo_preset, network_fingerprint,
)
from excitonprobe.scattering import default_grid, sweep_spectrum
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

    def test_constructors_check_field_types(self):
        for make in (lambda: InhibitCoupling(1.5, 2), lambda: RemoveSite(True),
                     lambda: ProbeGrid(0.0, 1.0, 2.5), lambda: WaveguideCoupling(((1.0, 10.0),)),
                     lambda: SetPortAmplitudes(((1, "10"),))):
            with pytest.raises(ValueError):
                make()
        removal = RemoveSite(np.int64(5))
        assert removal.site == 5 and type(removal.site) is int
        assert removal.label == "remove-site-5"
        assert InhibitCoupling(np.int64(2), np.int32(1)).label == "inhibit-J-1-2"
        assert WaveguideCoupling(((np.int64(6), 1),)).ports == ((6, 1.0),)


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
        # site 2 is gone; sites 3..7 become 2..6
        assert np.array_equal(new_net.epsilon, np.delete(net.epsilon, 1))

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

    def test_retune_to_an_infinite_loss_is_refused(self, preset, preset_grid):
        # g = 1e200 gives an Ohmic loss of inf: the defected network is never built
        net, wg = preset
        scenario = SetPortAmplitudes(((1, 1e200),))
        with pytest.raises(NetworkValidationError, match="^non-finite values in loss$"):
            apply_defect(net, wg, scenario)
        entry, = run_scenario_suite(net, wg, preset_grid, [scenario])["scenarios"]
        assert entry["error"] == "NetworkValidationError: non-finite values in loss"

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

    @pytest.mark.parametrize("value", [True, "0.01", None], ids=["bool", "string", "none"])
    def test_prominence_must_be_a_real_number(self, baseline_spectrum, value):
        with pytest.raises(ValueError,
                           match=re.escape(f"prominence must be a real number, got {value!r}")):
            dip_count(baseline_spectrum, value)

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


# Float arrays of any magnitude, and integer-valued ones, which have plateaus
# and ties; integer prominences test the >= at a tie.
PEAK_SAMPLES = st.one_of(
    st.lists(st.floats(allow_nan=False), max_size=200),
    st.lists(st.integers(-3, 3).map(float), max_size=200),
)
PEAK_PROMINENCE = st.one_of(st.floats(1e-12, 2.0), st.sampled_from([1.0, 2.0]))


class TestProminentPeaks:
    """scenarios._prominent_peaks against scipy.signal.find_peaks, its reference."""

    @settings(max_examples=1000, deadline=None, derandomize=True, database=None)
    @given(values=PEAK_SAMPLES, prominence=PEAK_PROMINENCE)
    def test_equals_scipy_on_random_arrays(self, values, prominence):
        x = np.array(values, dtype=float)
        assert np.array_equal(scenarios._prominent_peaks(x, prominence),
                              find_peaks(x, prominence=prominence)[0])

    @settings(max_examples=1000, deadline=None, derandomize=True, database=None)
    @given(runs=st.lists(st.tuples(st.integers(-3, 3), st.integers(1, 6)), max_size=40),
           prominence=PEAK_PROMINENCE)
    def test_equals_scipy_on_runs_of_equal_samples(self, runs, prominence):
        # every sample sits in a run of 1-6 equal ones, plateaus at both ends included
        x = np.repeat([float(v) for v, _ in runs], [k for _, k in runs])
        assert np.array_equal(scenarios._prominent_peaks(x, prominence),
                              find_peaks(x, prominence=prominence)[0])

    @pytest.mark.parametrize("values", [
        [], [1.0], [1.0, 2.0], [2.0, 1.0, 2.0],
        [4.0] * 7,                                  # all equal: one run
        [1.0, 1.0, 1.0, 2.0, 2.0],                  # two runs
        [2.0, 2.0, 1.0, 3.0, 3.0, 3.0, 0.0, 0.0],   # plateaus at both ends
        [0.0, 0.0, 3.0, 3.0, 1.0, 2.0, 2.0],        # a plateau peak, a rising end
        [5.0, 5.0, 1.0, 1.0, 4.0, 4.0, 4.0, 4.0],   # a falling start, no interior peak
        [0.0, 2.0, 2.0, 3.0, 3.0, 1.0, 1.0, 2.0],   # a flat step inside a rise
    ])
    def test_equals_scipy_on_edge_cases(self, values):
        x = np.array(values, dtype=float)
        # prominence 0 keeps every peak, so an end run taken for one shows
        for prominence in (0.0, 1e-12, 1.0, 2.0):
            assert np.array_equal(scenarios._prominent_peaks(x, prominence),
                                  find_peaks(x, prominence=prominence)[0])

    @pytest.mark.parametrize("n_points", [2001, 120001])
    def test_equals_scipy_on_preset_baseline(self, preset, n_points):
        net, wg = preset
        grid = default_grid(net, n_points=n_points)
        T = sweep_spectrum(net, wg, grid).T
        for x in (T, -T):
            for prominence in (1e-12, scenarios.DEFAULT_PROMINENCE, 0.1):
                expected = find_peaks(x, prominence=prominence)[0]
                assert np.array_equal(scenarios._prominent_peaks(x, prominence), expected)


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

    @pytest.mark.parametrize("scenario, l_inf, l2, area", [
        (InhibitCoupling(5, 6), 0.8575, 3.57, 60.1),
        (RemoveSite(5), 0.8706, 4.11, 62.3),
    ], ids=["inhibit-J-5-6", "remove-site-5"])
    def test_distance_values_match_a_written_out_quadrature(
        self, preset, preset_grid, baseline_spectrum, scenario, l_inf, l2, area
    ):
        # l2 = sqrt(h * sum dT^2), l_inf = max |dT|, area = trapezoid rule on |dT|
        net, wg = preset
        mod = sweep_spectrum(*apply_defect(net, wg, scenario), preset_grid)
        dT = [float(m - b) for m, b in zip(mod.T, baseline_spectrum.T)]
        h = (preset_grid.e_max - preset_grid.e_min) / (preset_grid.n_points - 1)
        want_l2 = (h * sum(d * d for d in dT)) ** 0.5
        want_area = sum(0.5 * h * (abs(a) + abs(b)) for a, b in zip(dT, dT[1:]))
        d = spectral_difference(baseline_spectrum, mod)
        assert d.l_inf == max(abs(x) for x in dT)
        assert d.l2 == pytest.approx(want_l2, rel=1e-12)
        assert d.area == pytest.approx(want_area, rel=1e-12)
        # the values README.md quotes for check 8's symmetric probe
        assert (round(d.l_inf, 4), round(d.l2, 2), round(d.area, 1)) == (l_inf, l2, area)

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
        k = site - 1
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
            reference_energy=net.reference_energy,
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

    def test_numpy_point_count_report_writes_as_json(self, preset):
        net, wg = preset
        grid = ProbeGrid(-171.0, 893.0, np.int64(101))
        report = run_scenario_suite(net, wg, grid, [RemoveSite(5)])
        # the form the CLI's scenario command writes report.json in
        text = json.dumps(report, indent=2, sort_keys=True, default=list)
        assert json.loads(text)["metadata"]["grid"]["n_points"] == 101

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

    def test_extrema_counted_once_per_spectrum(self, preset, monkeypatch):
        # the diff's extrema_delta comes from the entries' dip counts
        net, wg = preset
        grid = default_grid(net, n_points=401)
        scens = [InhibitCoupling(1, 2), RemoveSite(1), RemoveSite(5)]
        counted, specs = [], []
        real = scenarios.find_extrema

        def counting(spec, prominence=scenarios.DEFAULT_PROMINENCE):
            counted.append(spec)
            return real(spec, prominence)

        monkeypatch.setattr(scenarios, "find_extrema", counting)
        report = run_scenario_suite(net, wg, grid, scens,
                                    on_spectrum=lambda e, spec, base: specs.append(spec))
        assert len(counted) == len(specs) == 3  # baseline and the two that ran
        monkeypatch.undo()
        for entry, spec in zip((e for e in report["scenarios"] if e["ok"]), specs[1:]):
            assert entry["diff"] == spectral_difference(specs[0], spec).as_dict()

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
