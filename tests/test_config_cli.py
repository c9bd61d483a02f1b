import ast
import json
import os
import re
import subprocess
import sys
import warnings
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

import excitonprobe
from excitonprobe.cli import main
from excitonprobe.config import ConfigError, RunConfig, build_setup, parse_config
from excitonprobe.csvio import CSV_HEADER, FANO_CSV_HEADER, read_spectrum_csv
from excitonprobe.model import fmo_preset, network_fingerprint
from excitonprobe.scenarios import (
    SCENARIO_TYPES, InhibitCoupling, RemoveSite, SetPortAmplitudes, run_scenario_suite,
)

README = Path(__file__).resolve().parents[1] / "README.md"


def bundled_site_data():
    path = resources.files("excitonprobe.data").joinpath("fmo_hamiltonian.json")
    return json.loads(path.read_text(encoding="utf-8"))


def write_network_file(tmp_path, data, name="net.json"):
    (tmp_path / name).write_text(json.dumps(data))
    return name


def write_config(tmp_path, name="run.json", **overrides):
    path = tmp_path / name
    path.write_text(json.dumps(overrides, indent=1) + "\n")
    return str(path)


class TestParseConfig:
    def test_empty_object_gives_defaults(self, tmp_path):
        cfg = parse_config(write_config(tmp_path))
        assert cfg.g1 == 10.0 and cfg.g6 == 10.0
        assert cfg.gamma_dp == 77.0
        assert cfg.gamma_s == 5.3
        assert cfg.ohmic_fraction == pytest.approx(0.05)
        assert cfg.solver == "closed_form"
        assert cfg.prominence == 0.01
        assert cfg.network == "preset"
        assert cfg.scenarios == ()
        assert cfg.fit_windows == ()

    def test_misspelled_key_is_fatal_and_named(self, tmp_path):
        path = write_config(tmp_path, gama_dp=50.0)
        with pytest.raises(ConfigError, match="'gama_dp'"):
            parse_config(path)

    def test_json_syntax_error_reports_position(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"g1": 10,\n  "g6": }\n')
        with pytest.raises(ConfigError, match=r"broken\.json:2:"):
            parse_config(str(path))

    def test_boolean_is_not_a_number(self, tmp_path):
        path = write_config(tmp_path, g1=True)
        with pytest.raises(ConfigError, match="must be a real number, got True"):
            parse_config(path)

    def test_negative_amplitude_rejected(self, tmp_path):
        path = write_config(tmp_path, g6=-1.0)
        with pytest.raises(ConfigError, match=re.escape(
                f"{path}: config key 'g6' must be >= 0, got -1.0")):
            parse_config(path)

    @pytest.mark.parametrize("key", ["gamma_dp", "gamma_s", "ohmic_fraction"])
    def test_negative_loss_rate_rejected_and_named(self, tmp_path, key):
        assert getattr(parse_config(write_config(tmp_path, "zero.json", **{key: 0.0})), key) == 0.0
        path = write_config(tmp_path, **{key: -1.0})
        with pytest.raises(ConfigError, match=f"config key '{key}' must be >= 0"):
            parse_config(path)

    @pytest.mark.parametrize("solver", ["magic", []], ids=["magic", "list"])
    def test_unknown_solver_rejected(self, tmp_path, solver):
        path = write_config(tmp_path, solver=solver)
        with pytest.raises(ConfigError, match="solver"):
            parse_config(path)

    @pytest.mark.parametrize("overrides, message", [
        ({"prominence": float("nan")}, "config key 'prominence' must be finite, got nan"),
        ({"g1": float("inf")}, "config key 'g1' must be finite, got inf"),
        ({"v_g": float("nan")}, "config key 'v_g' must be finite, got nan"),
        ({"grid": {"e_min": 0, "e_max": float("inf")}}, "grid: e_max must be finite, got inf"),
        ({"fit_windows": [[0, float("inf")]]}, "fit window 0: hi must be finite, got inf"),
    ], ids=["prominence-nan", "g1-inf", "v_g-nan", "grid-e_max-inf", "fit-window-inf"])
    def test_non_finite_number_rejected_and_named(self, tmp_path, overrides, message):
        path = write_config(tmp_path, **overrides)
        with pytest.raises(ConfigError, match=re.escape(message)):
            parse_config(path)

    def test_run_config_checks_its_fields(self):
        with pytest.raises(ValueError, match="solver"):
            RunConfig(solver="magic")
        with pytest.raises(ValueError, match="fit window 0 is empty"):
            RunConfig(fit_windows=((700, 700),))

    @pytest.mark.parametrize("kwargs, message", [
        ({"fit_windows": [[1.0]]}, "fit window 0 must be a [lo, hi] pair of numbers, got [1.0]"),
        ({"fit_windows": "0,1"}, "config key 'fit_windows' must be a list of [lo, hi] pairs"),
        ({"network": "custom"}, "config key 'network' must be 'preset' or 'file', got 'custom'"),
        ({"network": "file"}, "network 'file' requires key 'network_file'"),
        ({"network_file": "net.json"}, "key 'network_file' requires network = 'file'"),
        ({"network": "file", "network_file": ""},
         "config key 'network_file' must be a non-empty string, got ''"),
        ({"output_dir": ""}, "config key 'output_dir' must be a non-empty string"),
        ({"emit_svg": "yes"}, "config key 'emit_svg' must be true or false"),
        ({"scenarios": "remove_site"}, "config key 'scenarios' must be a list"),
        ({"grid": {"e_min": 0.0, "e_max": 1.0}},
         "config key 'grid' must be a ProbeGrid, got {'e_min': 0.0, 'e_max': 1.0}"),
        ({"scenarios": [RemoveSite(5), {"type": "remove_site", "site": 5}]},
         "scenario 1 must be one of ['InhibitCoupling', 'RemoveSite', 'SetPortAmplitudes'], "
         "got {'type': 'remove_site', 'site': 5}"),
    ])
    def test_run_config_messages(self, kwargs, message):
        with pytest.raises(ValueError) as err:
            RunConfig(**kwargs)
        assert str(err.value) == message

    @pytest.mark.parametrize("text, message", [
        (None, "cannot read config {path!r}: [Errno 2] No such file or directory: {path!r}"),
        ("[]", "{path}: top level must be a JSON object"),
        ('{"grid": "x"}', "grid must be an object, got str"),
        ('{"grid": {"e_max": 1.0}}', "grid: missing key 'e_min'"),
    ])
    def test_config_file_messages(self, tmp_path, text, message):
        path = tmp_path / "run.json"
        if text is not None:
            path.write_text(text)
        with pytest.raises(ConfigError) as err:
            parse_config(str(path))
        assert str(err.value) == message.format(path=str(path))

    def test_nonpositive_prominence_rejected(self, tmp_path):
        path = write_config(tmp_path, prominence=0.0)
        with pytest.raises(ConfigError, match="prominence"):
            parse_config(path)

    def test_grid_block(self, tmp_path):
        path = write_config(tmp_path, grid={"e_min": 0, "e_max": 10, "n_points": 101})
        cfg = parse_config(path)
        assert cfg.grid.n_points == 101
        assert cfg.grid.e_min == 0.0

    def test_grid_unknown_key_rejected(self, tmp_path):
        path = write_config(
            tmp_path, grid={"e_min": 0, "e_max": 10, "n_points": 5, "step": 1}
        )
        with pytest.raises(ConfigError, match="'step'"):
            parse_config(path)

    def test_grid_fractional_points_rejected(self, tmp_path):
        path = write_config(tmp_path, grid={"e_min": 0, "e_max": 1, "n_points": 2.5})
        with pytest.raises(ConfigError, match="integer"):
            parse_config(path)

    def test_scenarios_parsed(self, tmp_path):
        path = write_config(tmp_path, scenarios=[
            {"type": "inhibit_coupling", "site_a": 1, "site_b": 2},
            {"type": "remove_site", "site": 5, "label": "drop5"},
            {"type": "set_port_amplitudes", "ports": [[1, 10.0], [6, 0.1]]},
        ])
        cfg = parse_config(path)
        kinds = [type(s) for s in cfg.scenarios]
        assert kinds == [InhibitCoupling, RemoveSite, SetPortAmplitudes]
        assert cfg.scenarios[1].label == "drop5"
        assert dict(cfg.scenarios[2].ports) == {1: 10.0, 6: 0.1}

    def test_unknown_scenario_type_rejected(self, tmp_path):
        path = write_config(tmp_path, scenarios=[{"type": "explode"}])
        with pytest.raises(ConfigError, match="explode"):
            parse_config(path)

    def test_unknown_scenario_key_rejected(self, tmp_path):
        path = write_config(tmp_path, scenarios=[
            {"type": "remove_site", "site": 5, "sight": 5}
        ])
        with pytest.raises(ConfigError, match="'sight'"):
            parse_config(path)

    def test_fit_windows_parsed(self, tmp_path):
        path = write_config(tmp_path, fit_windows=[[500, 700], [100, 200]])
        cfg = parse_config(path)
        assert cfg.fit_windows == ((500.0, 700.0), (100.0, 200.0))

    def test_empty_fit_window_rejected(self, tmp_path):
        path = write_config(tmp_path, fit_windows=[[700, 700]])
        with pytest.raises(ConfigError, match="window"):
            parse_config(path)

    def test_missing_network_file_rejected(self, tmp_path):
        path = write_config(tmp_path, network="file", network_file="nope.json")
        with pytest.raises(ConfigError, match="does not exist"):
            parse_config(path)

    def test_readme_sample_config_parses(self, tmp_path):
        blocks = re.findall(r"```json\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
        assert len(blocks) == 1
        path = tmp_path / "readme.json"
        path.write_text(blocks[0])
        cfg = parse_config(str(path))
        assert len(cfg.scenarios) == 3
        assert cfg.fit_windows == ((520.0, 620.0),)
        assert {type(s) for s in cfg.scenarios} == set(SCENARIO_TYPES.values())

    def test_readme_python_quick_start_runs(self, tmp_path):
        blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
        assert len(blocks) == 1
        src = str(Path(excitonprobe.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-W", "error", "-c", blocks[0]],
                              cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert lines[0] == "7"
        assert list(ast.literal_eval(lines[1])) == ["l2", "l_inf", "area", "extrema_delta"]

    def test_port_probe_defaults_to_run_ohmic_fraction(self, tmp_path):
        # Re-applying the baseline ports at the run's own fraction must be a null probe.
        path = write_config(
            tmp_path, ohmic_fraction=0.5,
            grid={"e_min": -171.0, "e_max": 893.0, "n_points": 401},
            scenarios=[{"type": "set_port_amplitudes", "ports": [[1, 10], [6, 10]]}],
        )
        cfg = parse_config(path)
        net, wg, grid = build_setup(cfg)
        report = run_scenario_suite(net, wg, grid, cfg.scenarios)
        entry = report["scenarios"][0]
        assert entry["ok"] is True
        assert entry["diff"] == {"l2": 0.0, "l_inf": 0.0, "area": 0.0, "extrema_delta": 0}

    @pytest.mark.parametrize("entry, message", [
        ({"type": "remove_site", "site": 2.9}, r"\(remove_site\): site must be an integer"),
        ({"type": "remove_site", "site": True}, r"\(remove_site\): site must be an integer"),
        ({"type": "remove_site", "site": "3"}, r"\(remove_site\): site must be an integer"),
        ({"type": "set_port_amplitudes", "ports": [[1, "10"]]},
         r"\(set_port_amplitudes\): ports: g at site 1 must be a real number, got '10'"),
        ({"type": "set_port_amplitudes", "ports": [[1, True]]},
         r"\(set_port_amplitudes\): ports: g at site 1 must be a real number, got True"),
        ({"type": "remove_site", "site": 3, "label": 5},
         r"\(remove_site\): label must be a string"),
        ({"type": "set_port_amplitudes", "ports": 5},
         r"\(set_port_amplitudes\): ports must be \(site, g\) pairs, got 5"),
        ({"type": "set_port_amplitudes", "ports": []}, r"\(set_port_amplitudes\): ports must list"),
        ({"type": "set_port_amplitudes", "ports": [[1]]},
         r"\(set_port_amplitudes\): ports must be \(site, g\) pairs, got \[\[1\]\]"),
        (5, "must be an object, got int"),
        ({"type": "set_port_amplitudes", "ports": [[1, float("inf")]]},
         r"\(set_port_amplitudes\): ports: g at site 1 must be finite, got inf"),
    ], ids=["site-float", "site-bool", "site-string", "amplitude-string", "amplitude-bool",
            "label-int", "ports-int", "ports-empty", "ports-short-pair", "entry-not-object",
            "amplitude-infinite"])
    def test_malformed_scenario_names_index_and_field(self, tmp_path, entry, message):
        path = write_config(tmp_path, scenarios=[{"type": "remove_site", "site": 4}, entry])
        with pytest.raises(ConfigError, match="^scenario 1 " + message):
            parse_config(path)

    @pytest.mark.parametrize("scenarios, message", [
        ([{"type": "inhibit_coupling", "site_a": 1, "site_b": 2},
          {"type": "remove_site", "site": 4},
          {"type": "inhibit_coupling", "site_a": 2, "site_b": 1}],
         "scenarios 0 and 2 share the label 'inhibit-J-1-2'"),
        ([{"type": "remove_site", "site": 4, "label": "baseline"}],
         "scenario 0: label 'baseline' is reserved"),
        ([{"type": "remove_site", "site": 4},
          {"type": "remove_site", "site": 5, "label": "../up"}],
         r"scenario 1: label '\.\./up' must not contain a path separator"),
        ([{"type": "remove_site", "site": 4, "label": "/tmp/escaped"}],
         "scenario 0: label '/tmp/escaped' must not contain a path separator"),
        ([{"type": "remove_site", "site": 4, "label": "a\u0000b"}],
         r"scenario 0: label 'a\\x00b' must not contain a NUL character"),
    ], ids=["duplicate", "baseline", "parent-dir", "absolute", "nul"])
    def test_scenario_labels_name_distinct_files(self, tmp_path, scenarios, message):
        path = write_config(tmp_path, scenarios=scenarios)
        with pytest.raises(ConfigError, match=message):
            parse_config(path)

    def test_port_probe_ohmic_fraction_key_rejected(self, tmp_path):
        # the Ohmic fraction belongs to the wire, set once per run
        path = write_config(tmp_path, scenarios=[
            {"type": "set_port_amplitudes", "ports": [[1, 10]], "ohmic_fraction": 0.5}])
        with pytest.raises(ConfigError, match="unknown key 'ohmic_fraction'"):
            parse_config(path)


class TestBuildSetup:
    def test_preset_with_ratio_metadata(self, tmp_path):
        from excitonprobe.scattering import sweep_spectrum

        path = write_config(tmp_path, g1=10.0, g6=0.1,
                            grid={"e_min": 0, "e_max": 10, "n_points": 21})
        net, wg, grid = build_setup(parse_config(path))
        spec = sweep_spectrum(net, wg, grid)
        assert spec.metadata["ports"] == ((1, 10.0), (6, 0.1))

    def test_custom_network_file(self, tmp_path):
        netfile = tmp_path / "toy.json"
        netfile.write_text(json.dumps({
            "reference_energy_cm1": 0.0,
            "labels": [f"site {i}" for i in range(1, 7)],
            "epsilon_cm1": [0.0, 10.0, 20.0, 30.0, 40.0, 50.0],
            "coupling_upper_triangle_cm1": [[1, 2, 5.0], [5, 6, 7.0]],
        }))
        path = write_config(tmp_path, network="file", network_file="toy.json")
        net, wg, grid = build_setup(parse_config(path))
        assert net.n_sites == 6
        assert net.coupling[4, 5] == 7.0
        assert [s for s, _ in wg.ports] == [1, 6]

    @pytest.mark.parametrize("rates, fingerprint", [
        ({}, "06d2e6bc69149c58"),
        ({"g1": 0.1, "g6": 10.0}, "bd3b385fd6ec7a87"),
        ({"g1": 2.0, "g6": 4.0, "gamma_dp": 10.0, "gamma_s": 1.0,
          "ohmic_fraction": 0.5, "v_g": 2.0}, "8d88069f6eb55051"),
    ])
    def test_copy_of_bundled_file_matches_preset(self, tmp_path, rates, fingerprint):
        name = write_network_file(tmp_path, bundled_site_data())
        path = write_config(tmp_path, network="file", network_file=name, **rates)
        net, wg, _ = build_setup(parse_config(path))
        preset_net, preset_wg = fmo_preset(**rates)
        assert network_fingerprint(preset_net) == fingerprint
        assert network_fingerprint(net) == fingerprint
        assert wg == preset_wg

    def test_file_loss_arrays_replace_rates(self, tmp_path):
        data = dict(bundled_site_data(),
                    loss_dephasing_cm1=[1.0] * 7, loss_sink_cm1=[0.0] * 6 + [2.0])
        name = write_network_file(tmp_path, data)
        path = write_config(tmp_path, network="file", network_file=name, ohmic_fraction=0.0)
        net, _, _ = build_setup(parse_config(path))
        assert np.array_equal(net.loss_breakdown.dephasing, [1.0] * 7)
        assert np.array_equal(net.loss, [1.0] * 6 + [3.0])

    @pytest.mark.parametrize("loss_key, rate", [
        ("loss_dephasing_cm1", "gamma_dp"),
        ("loss_sink_cm1", "gamma_s"),
    ])
    def test_file_loss_array_conflicts_with_config_rate(self, tmp_path, loss_key, rate):
        name = write_network_file(tmp_path, dict(bundled_site_data(), **{loss_key: [1.0] * 7}))
        path = write_config(tmp_path, network="file", network_file=name, **{rate: 1.0})
        with pytest.raises(ConfigError, match=f"'{rate}'.*'{loss_key}'"):
            parse_config(path)

    @pytest.mark.parametrize("change, message", [
        (lambda d: d["coupling_upper_triangle_cm1"].append([1.5, 2, -104.1]),
         r"coupling entry 21 \[1\.5, 2, -104\.1\].*integer sites"),
        (lambda d: d["coupling_upper_triangle_cm1"].append([2, 1, 999]),
         r"coupling entry 21 \[2, 1, 999\] repeats the pair \(1, 2\)"),
        (lambda d: d.update(loss_sink_cm=[0.0] * 7), "unknown site-data key 'loss_sink_cm'"),
        (lambda d: d.update(coupling_upper_triangle_cm1=5),
         "'coupling_upper_triangle_cm1' must be a list"),
        (lambda d: d.update(labels="abcdefg"), "'labels' must list one string per site"),
        (lambda d: d.update(labels=["only"]), "'labels' must list one string per site"),
        (lambda d: d.update(reference_energy_cm1="x"), "'reference_energy_cm1' must be a number"),
        (lambda d: d["epsilon_cm1"].__setitem__(2, float("nan")),
         "key 'epsilon_cm1' must hold finite numbers; site 3 has nan"),
        (lambda d: d["coupling_upper_triangle_cm1"][0].__setitem__(2, float("inf")),
         r"coupling entry 0 \[1, 2, inf\] must be .* and a finite J"),
    ], ids=["non-integer-site", "mirrored-pair", "unknown-key", "coupling-not-a-list",
            "labels-string", "labels-too-few", "reference-energy-string", "epsilon-nan",
            "coupling-infinite"])
    def test_malformed_network_file_rejected(self, tmp_path, change, message):
        data = bundled_site_data()
        change(data)
        path = write_config(tmp_path, network="file",
                            network_file=write_network_file(tmp_path, data))
        with pytest.raises(ConfigError, match=message):
            build_setup(parse_config(path))

    @pytest.mark.parametrize("loss_key", ["loss_dephasing_cm1", "loss_sink_cm1"])
    def test_negative_file_loss_rejected(self, tmp_path, loss_key):
        name = write_network_file(tmp_path, dict(bundled_site_data(),
                                                 **{loss_key: [0, 0, -5.3, 0, 0, 0, 0]}))
        path = write_config(tmp_path, network="file", network_file=name)
        with pytest.raises(ConfigError, match=re.escape(
                f"network file '{tmp_path / name}': key '{loss_key}' "
                "must hold finite rates >= 0; site 3 has -5.3")):
            build_setup(parse_config(path))

    def test_nan_reference_energy_exits_one_naming_key_and_file(self, tmp_path, capsys):
        # Python's JSON reader accepts NaN
        name = write_network_file(tmp_path, dict(bundled_site_data(),
                                                 reference_energy_cm1=float("nan")))
        out = tmp_path / "out"
        path = write_config(tmp_path, network="file", network_file=name, output_dir=str(out))
        assert run_cli("spectrum", "--config", path) == 1
        err = capsys.readouterr().err
        assert err == (f"error: network file '{tmp_path / name}': "
                       "key 'reference_energy_cm1' must be finite, got nan\n")
        assert not out.exists()

    @pytest.mark.parametrize("units", ["meV", "cm^-1", None])
    def test_network_file_in_other_units_rejected(self, tmp_path, capsys, units):
        name = write_network_file(tmp_path, dict(bundled_site_data(), units=units))
        out = tmp_path / "out"
        path = write_config(tmp_path, network="file", network_file=name, output_dir=str(out))
        assert run_cli("spectrum", "--config", path) == 1
        assert capsys.readouterr().err == (f"error: network file '{tmp_path / name}': "
                                           f"key 'units' must be 'cm-1', got {units!r}\n")
        assert not out.exists()

    def test_network_file_too_small(self, tmp_path):
        netfile = tmp_path / "toy.json"
        netfile.write_text(json.dumps({
            "reference_energy_cm1": 0.0,
            "labels": ["site 1", "site 2"],
            "epsilon_cm1": [0.0, 10.0],
            "coupling_upper_triangle_cm1": [[1, 2, 5.0]],
        }))
        path = write_config(tmp_path, network="file", network_file="toy.json")
        with pytest.raises(ConfigError, match=">= 6 sites"):
            build_setup(parse_config(path))


def run_cli(*argv):
    return main(list(argv))


@pytest.fixture()
def spectrum_setup(tmp_path):
    """A config whose outputs land inside the pytest tmp dir."""
    out = tmp_path / "out"
    cfg = write_config(
        tmp_path,
        output_dir=str(out),
        grid={"e_min": -171.0, "e_max": 893.0, "n_points": 401},
        scenarios=[
            {"type": "inhibit_coupling", "site_a": 2, "site_b": 3},
            {"type": "remove_site", "site": 5},
        ],
    )
    return cfg, out


class TestCliSpectrum:
    def test_writes_baseline_csv(self, spectrum_setup, capsys):
        cfg, out = spectrum_setup
        assert run_cli("spectrum", "--config", cfg) == 0
        assert (out / "baseline.csv").exists()
        assert "baseline.csv" in capsys.readouterr().out

    def test_deterministic_bytes(self, spectrum_setup):
        cfg, out = spectrum_setup
        run_cli("spectrum", "--config", cfg)
        first = (out / "baseline.csv").read_bytes()
        run_cli("spectrum", "--config", cfg)
        assert (out / "baseline.csv").read_bytes() == first

    def test_svg_flag(self, spectrum_setup):
        cfg, out = spectrum_setup
        assert run_cli("spectrum", "--config", cfg, "--svg") == 0
        svg = (out / "baseline.svg").read_text()
        assert svg.startswith("<svg")
        assert "polyline" in svg

    def test_decoupled_ports_pass_everything(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = write_config(
            tmp_path, g1=0.0, g6=0.0, output_dir=str(out),
            grid={"e_min": 0.0, "e_max": 100.0, "n_points": 51},
        )
        assert run_cli("spectrum", "--config", cfg) == 0
        spec = read_spectrum_csv(str(out / "baseline.csv"))
        assert np.all(spec.T == 1.0)

    def test_bad_config_exits_nonzero(self, tmp_path, capsys):
        cfg = write_config(tmp_path, gama_dp=1.0)
        assert run_cli("spectrum", "--config", cfg) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("command, overrides, name", [
        ("spectrum", {"solver": []}, "'solver'"),
        ("spectrum", {"g1": float("inf")}, "'g1'"),
        ("scenario", {"prominence": float("nan")}, "'prominence'"),
        ("spectrum", {"grid": {"e_min": 0, "e_max": float("inf")}}, "grid: e_max"),
        ("scenario", {"scenarios": [{"type": "set_port_amplitudes", "ports": [[1, float("inf")]]}]},
         "scenario 0 (set_port_amplitudes): ports: g at site 1"),
        ("spectrum", {"fit_windows": [[0, float("inf")]]}, "fit window 0: hi"),
    ], ids=["solver-list", "g1-inf", "prominence-nan", "grid-e_max-inf", "port-g-inf",
            "fit-window-inf"])
    def test_invalid_value_is_one_error_line_naming_it(self, tmp_path, capsys,
                                                        command, overrides, name):
        cfg = write_config(tmp_path, output_dir=str(tmp_path / "out"), **overrides)
        assert run_cli(command, "--config", cfg) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert name in captured.err
        assert not (tmp_path / "out").exists()


    def test_overflowing_grid_span_is_one_error_line(self, tmp_path, capsys):
        cfg = write_config(tmp_path, output_dir=str(tmp_path / "out"),
                           grid={"e_min": -1e308, "e_max": 1e308, "n_points": 5})
        assert run_cli("spectrum", "--config", cfg) == 1
        captured = capsys.readouterr()
        assert captured.err == ("error: grid: grid range [-1e+308, 1e+308] is too wide: "
                                "e_max - e_min overflows\n")
        assert captured.out == ""

    def test_subnormal_grid_spacing_is_one_error_line(self, tmp_path, capsys):
        # once the CSV was written, the SVG's tick step came out NaN
        cfg = write_config(tmp_path, output_dir=str(tmp_path / "out"),
                           grid={"e_min": 0, "e_max": 5e-324, "n_points": 2})
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run_cli("spectrum", "--config", cfg, "--svg") == 1
        assert caught == []
        captured = capsys.readouterr()
        assert captured.err == ("error: grid: grid range [0.0, 5e-324] is too narrow for "
                                "2 points: spacing 5e-324 is below the smallest normal float\n")
        assert captured.out == ""
        assert not (tmp_path / "out").exists()

    def test_overflowing_port_width_is_one_error_line(self, tmp_path, capsys):
        cfg = write_config(tmp_path, g1=1e200, output_dir=str(tmp_path / "out"))
        assert run_cli("spectrum", "--config", cfg) == 1
        assert capsys.readouterr().err == "error: non-finite values in loss\n"

    def test_grid_too_large_to_allocate_is_one_error_line(self, spectrum_setup, monkeypatch,
                                                          capsys):
        # a grid that fits no memory, simulated: a real one could be granted by an
        # overcommitting host and then exhaust it
        message = "Unable to allocate 7.28 TiB for an array with shape (1000000000000,)"

        def energies(grid):
            raise MemoryError(message)

        monkeypatch.setattr("excitonprobe.model.ProbeGrid.energies", energies)
        cfg, out = spectrum_setup
        assert run_cli("spectrum", "--config", cfg) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""


class TestCliScenario:
    @pytest.mark.parametrize("label", ["../up", "sub/escaped"])
    def test_label_with_path_separator_writes_nothing(self, tmp_path, capsys, label):
        out = tmp_path / "run" / "out"
        out.parent.mkdir()
        cfg = write_config(out.parent, output_dir=str(out),
                           grid={"e_min": -171.0, "e_max": 893.0, "n_points": 51},
                           scenarios=[{"type": "remove_site", "site": 5, "label": label}])
        assert run_cli("scenario", "--config", cfg) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "scenario 0: label" in captured.err
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["run", "run.json"]

    def test_label_with_nul_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "run" / "out"
        out.parent.mkdir()
        cfg = write_config(out.parent, output_dir=str(out),
                           grid={"e_min": -171.0, "e_max": 893.0, "n_points": 51},
                           scenarios=[{"type": "remove_site", "site": 5},
                                      {"type": "remove_site", "site": 4, "label": "a\u0000b"}])
        assert run_cli("scenario", "--config", cfg) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "scenario 1: label 'a\\x00b'" in captured.err
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["run", "run.json"]

    def test_report_and_csvs(self, spectrum_setup, capsys):
        cfg, out = spectrum_setup
        assert run_cli("scenario", "--config", cfg) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["baseline"]["dip_count"] >= 1
        labels = [e["label"] for e in report["scenarios"]]
        assert labels == ["inhibit-J-2-3", "remove-site-5"]
        for e in report["scenarios"]:
            assert e["ok"] is True
            assert os.path.exists(e["csv"])
        stdout = capsys.readouterr().out
        assert "baseline:" in stdout
        assert "report:" in stdout

    def test_every_emitted_file_referenced_exactly_once(self, spectrum_setup):
        cfg, out = spectrum_setup
        run_cli("scenario", "--config", cfg)
        report_text = (out / "report.json").read_text()
        emitted = sorted(os.listdir(out))
        for name in emitted:
            if name == "report.json":
                continue
            path = str(out / name)
            assert report_text.count(json.dumps(path)) == 1, path

    def test_svg_overlays_recorded(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(
            tmp_path, output_dir=str(out), emit_svg=True,
            grid={"e_min": -171.0, "e_max": 893.0, "n_points": 201},
            scenarios=[{"type": "inhibit_coupling", "site_a": 1, "site_b": 2}],
        )
        assert run_cli("scenario", "--config", cfg) == 0
        report = json.loads((out / "report.json").read_text())
        svg_path = report["scenarios"][0]["svg"]
        assert os.path.exists(svg_path)
        body = Path(svg_path).read_text()
        assert "stroke-dasharray" in body  # defect curve is dashed

    def test_failed_scenario_reported_not_fatal(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = write_config(
            tmp_path, output_dir=str(out),
            grid={"e_min": -171.0, "e_max": 893.0, "n_points": 101},
            scenarios=[
                {"type": "remove_site", "site": 1, "label": "bad"},
                {"type": "inhibit_coupling", "site_a": 2, "site_b": 3},
            ],
        )
        assert run_cli("scenario", "--config", cfg) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["scenarios"][0]["ok"] is False
        assert report["scenarios"][1]["ok"] is True
        assert "FAILED" in capsys.readouterr().out

    def test_write_error_ends_the_run(self, spectrum_setup, capsys):
        # a file that cannot be written is an I/O failure of the run, not a
        # failed scenario: exit 1 naming the path, no report
        cfg, out = spectrum_setup
        blocked = out / "inhibit-J-2-3.csv"
        blocked.mkdir(parents=True)
        assert run_cli("scenario", "--config", cfg) == 1
        assert f"error: [Errno 21] Is a directory: '{blocked}'" in capsys.readouterr().err
        assert not (out / "report.json").exists()


class TestCliDiff:
    def test_self_diff_is_zero(self, spectrum_setup, capsys):
        cfg, out = spectrum_setup
        run_cli("spectrum", "--config", cfg)
        path = str(out / "baseline.csv")
        capsys.readouterr()
        assert run_cli("diff", "--base", path, "--mod", path) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"area": 0.0, "extrema_delta": 0, "l2": 0.0, "l_inf": 0.0}

    def test_diff_between_scenarios(self, spectrum_setup, capsys):
        cfg, out = spectrum_setup
        run_cli("scenario", "--config", cfg)
        capsys.readouterr()
        rc = run_cli(
            "diff", "--base", str(out / "baseline.csv"),
            "--mod", str(out / "remove-site-5.csv"),
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["l_inf"] > 0.0

    @pytest.mark.parametrize("value, message", [
        ("nan", "prominence must be finite, got nan"),
        ("inf", "prominence must be finite, got inf"),
        ("0", "prominence must be > 0, got 0.0"),
    ], ids=["nan", "inf", "0"])
    def test_prominence_must_be_finite_and_positive(self, spectrum_setup, capsys, value, message):
        cfg, out = spectrum_setup
        run_cli("spectrum", "--config", cfg)
        path = str(out / "baseline.csv")
        capsys.readouterr()
        assert run_cli("diff", "--base", path, "--mod", path, "--prominence", value) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""

    def test_missing_file_is_an_error(self, tmp_path, capsys):
        assert run_cli("diff", "--base", "nope.csv", "--mod", "nope.csv") == 1
        assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["diff", "fano"])
def test_non_finite_spectrum_value_is_one_error_line(spectrum_setup, capsys, command):
    cfg, out = spectrum_setup
    run_cli("spectrum", "--config", cfg)
    path = out / "baseline.csv"
    lines = path.read_text().splitlines(keepends=True)
    row = lines.index(CSV_HEADER + "\n") + 2
    fields = lines[row].split(",")
    fields[1] = "nan"
    lines[row] = ",".join(fields)
    path.write_text("".join(lines))
    capsys.readouterr()
    argv = {"diff": ["--base", str(path), "--mod", str(path)],
            "fano": ["--spectrum", str(path), "--window", "540,700"]}[command]
    assert run_cli(command, *argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {path}:{row + 1}: non-finite value in column T\n"


class TestCliFano:
    def test_window_fit_prints_table(self, spectrum_setup, capsys):
        cfg, out = spectrum_setup
        run_cli("spectrum", "--config", cfg)
        capsys.readouterr()
        rc = run_cli(
            "fano", "--spectrum", str(out / "baseline.csv"),
            "--window", "540,700", "--label", "right-edge",
        )
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == FANO_CSV_HEADER
        assert lines[1].startswith("right-edge,")

    def test_windows_from_config(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = write_config(
            tmp_path, output_dir=str(out),
            grid={"e_min": -171.0, "e_max": 893.0, "n_points": 401},
            fit_windows=[[220, 300], [540, 700]],
        )
        run_cli("spectrum", "--config", cfg)
        capsys.readouterr()
        rc = run_cli("fano", "--spectrum", str(out / "baseline.csv"),
                     "--config", cfg)
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert [l.split(",")[0] for l in lines[1:]] == ["window-1", "window-2"]

    def test_fit_table_written(self, spectrum_setup, tmp_path, capsys):
        cfg, out = spectrum_setup
        run_cli("spectrum", "--config", cfg)
        table = tmp_path / "fits.csv"
        rc = run_cli(
            "fano", "--spectrum", str(out / "baseline.csv"),
            "--window", "540,700", "--out", str(table),
        )
        assert rc == 0
        assert table.read_text().splitlines()[0] == FANO_CSV_HEADER

    def test_label_with_several_windows_is_an_error(self, spectrum_setup, capsys):
        cfg, out = spectrum_setup
        run_cli("spectrum", "--config", cfg)
        capsys.readouterr()
        rc = run_cli("fano", "--spectrum", str(out / "baseline.csv"),
                     "--window", "220,300", "--window", "540,700", "--label", "edge")
        assert rc == 1
        captured = capsys.readouterr()
        assert "--label" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("label", ["a,b", "x\ny", "x\r", "x\u2028y"])
    def test_label_that_would_split_a_row_is_an_error(self, spectrum_setup, tmp_path,
                                                      capsys, label):
        cfg, out = spectrum_setup
        run_cli("spectrum", "--config", cfg)
        capsys.readouterr()
        table = tmp_path / "fits.csv"
        rc = run_cli("fano", "--spectrum", str(out / "baseline.csv"), "--window", "540,700",
                     "--label", label, "--out", str(table))
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.err == (f"error: Fano table label {label!r} must not contain "
                                f"a comma or a line break\n")
        assert captured.out == ""
        assert not table.exists()

    def test_window_and_config_are_exclusive(self, spectrum_setup, tmp_path, capsys):
        # the config is not read, so a missing one must not go unnoticed either
        cfg, out = spectrum_setup
        run_cli("spectrum", "--config", cfg)
        capsys.readouterr()
        rc = run_cli("fano", "--spectrum", str(out / "baseline.csv"), "--window", "540,700",
                     "--config", str(tmp_path / "missing.json"))
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.err == ("error: --window and --config both give fit windows; "
                                "pass one of them\n")
        assert captured.out == ""

    def test_no_windows_is_an_error(self, spectrum_setup, capsys):
        cfg, out = spectrum_setup
        run_cli("spectrum", "--config", cfg)
        capsys.readouterr()
        assert run_cli("fano", "--spectrum", str(out / "baseline.csv")) == 1
        assert "no fit windows" in capsys.readouterr().err

    @pytest.mark.parametrize("window, message", [
        ("0,inf", "hi must be finite, got inf"),
        ("-inf,600", "lo must be finite, got -inf"),
        ("nan,600", "lo must be finite, got nan"),
    ], ids=["0,inf", "-inf,600", "nan,600"])
    def test_non_finite_window_is_an_error(self, spectrum_setup, capsys, window, message):
        cfg, out = spectrum_setup
        run_cli("spectrum", "--config", cfg)
        capsys.readouterr()
        rc = run_cli("fano", "--spectrum", str(out / "baseline.csv"), f"--window={window}")
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: window {window!r}: {message}\n"
        assert captured.out == ""

    def test_empty_window_is_an_error(self, spectrum_setup, capsys):
        cfg, out = spectrum_setup
        run_cli("spectrum", "--config", cfg)
        capsys.readouterr()
        assert run_cli("fano", "--spectrum", str(out / "baseline.csv"), "--window", "5,5") == 1
        assert capsys.readouterr().err == "error: window '5,5' is empty: [5.0, 5.0]\n"

    @pytest.mark.parametrize("window", ["a,b", "1,", ",600"])
    def test_non_numeric_window_is_an_error(self, spectrum_setup, capsys, window):
        cfg, out = spectrum_setup
        run_cli("spectrum", "--config", cfg)
        capsys.readouterr()
        assert run_cli("fano", "--spectrum", str(out / "baseline.csv"), f"--window={window}") == 1
        assert capsys.readouterr().err == f"error: window ends must be numbers; got {window!r}\n"

    def test_malformed_window_is_an_error(self, spectrum_setup, capsys):
        cfg, out = spectrum_setup
        run_cli("spectrum", "--config", cfg)
        capsys.readouterr()
        rc = run_cli("fano", "--spectrum", str(out / "baseline.csv"),
                     "--window", "abc")
        assert rc == 1
        assert "error:" in capsys.readouterr().err


# Runs the CLI commands given as JSON in argv[1] in one fresh interpreter:
# no command imports scipy, not even the 16-site one (Schur route).
SCIPY_PROBE = """
import json, sys

# the XML, network and crypto stack: xml.sax.saxutils alone loads the other four
HEAVY = ("xml.sax", "urllib.request", "http.client", "ssl", "email")

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

def heavy_modules():
    return [m for m in HEAVY if m in sys.modules]

import excitonprobe
from excitonprobe.cli import main

assert not scipy_modules(), scipy_modules()[:5]
assert not heavy_modules(), heavy_modules()
seven_site, sixteen_site = json.loads(sys.argv[1])
for argv in seven_site:
    assert main(argv) == 0, argv
    assert not scipy_modules(), (argv, scipy_modules()[:5])
    assert not heavy_modules(), (argv, heavy_modules())
assert main(sixteen_site) == 0
assert not scipy_modules(), scipy_modules()[:5]
"""


class TestImports:
    def test_seven_site_commands_never_import_scipy(self, tmp_path):
        out = tmp_path / "out"
        grid = {"e_min": -171.0, "e_max": 893.0, "n_points": 401}
        seven = write_config(tmp_path, output_dir=str(out), grid=grid,
                             scenarios=[{"type": "remove_site", "site": 5}],
                             fit_windows=[[520.0, 620.0]])
        chain = [[i, i + 1, 20.0] for i in range(1, 16)]
        write_network_file(tmp_path, {
            "reference_energy_cm1": 0.0,
            "labels": [f"site {i}" for i in range(1, 17)],
            "epsilon_cm1": [10.0 * i for i in range(16)],
            "coupling_upper_triangle_cm1": chain,
        }, name="chain16.json")
        sixteen = write_config(tmp_path, name="chain16-run.json", network="file",
                               network_file="chain16.json", output_dir=str(tmp_path / "out16"),
                               grid={"e_min": -100.0, "e_max": 250.0, "n_points": 51})
        commands = [
            [["spectrum", "--config", seven, "--svg"],
             ["scenario", "--config", seven],
             ["diff", "--base", str(out / "baseline.csv"), "--mod", str(out / "remove-site-5.csv")],
             ["fano", "--spectrum", str(out / "baseline.csv"), "--config", seven]],
            ["spectrum", "--config", sixteen],
        ]
        src = str(Path(excitonprobe.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-c", SCIPY_PROBE, json.dumps(commands)],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "out16" / "baseline.csv").exists()
