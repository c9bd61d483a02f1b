"""Run configuration: strict JSON parsing and network construction.

Unknown keys are fatal everywhere; a typo in a physics parameter must not
silently fall back to a default. The grid block and each scenario entry
are the dataclass they describe (ProbeGrid, SCENARIO_TYPES): its fields are
the keys and its own checks the value rules. Syntax errors are reported with
the line and column from the JSON parser.
"""

from __future__ import annotations

import json
import os
from dataclasses import MISSING, dataclass, fields

from .model import (
    OHMIC_FRACTION_DEFAULT,
    ProbeGrid,
    SiteDataError,
    fmo_preset,
    network_from_site_data,
)
from .scattering import SOLVERS, default_grid
from .scenarios import DEFAULT_PROMINENCE, SCENARIO_TYPES


class ConfigError(ValueError):
    """Configuration file is syntactically or semantically invalid."""


# Per-site loss arrays a network file may carry, and the config rate each replaces.
_FILE_LOSS_RATES = {"loss_dephasing_cm1": "gamma_dp", "loss_sink_cm1": "gamma_s"}


@dataclass(frozen=True)
class RunConfig:
    network: str = "preset"
    network_file: str = ""
    g1: float = 10.0
    g6: float = 10.0
    v_g: float = 1.0
    gamma_dp: float = 77.0
    gamma_s: float = 5.3
    ohmic_fraction: float = OHMIC_FRACTION_DEFAULT
    grid: ProbeGrid | None = None
    solver: str = "closed_form"
    scenarios: tuple = ()
    output_dir: str = "out"
    emit_svg: bool = False
    prominence: float = DEFAULT_PROMINENCE
    fit_windows: tuple = ()


def _require_number(data, key):
    value = data[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"config key {key!r} must be a number, got {value!r}")
    return float(value)


def _read_json_object(path, what) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {what} {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from None
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")
    return data


def _build(cls, obj, ctx):
    """cls(**obj) for a config block whose keys are the fields of dataclass cls;
    every rejection is a ConfigError that starts with ctx."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{ctx} must be an object, got {type(obj).__name__}")
    unknown = set(obj) - {f.name for f in fields(cls)}
    if unknown:
        raise ConfigError(f"{ctx}: unknown key {sorted(unknown)[0]!r}")
    for f in fields(cls):
        if f.name not in obj and f.default is MISSING and f.default_factory is MISSING:
            raise ConfigError(f"{ctx}: missing key {f.name!r}")
    try:
        return cls(**obj)
    except ValueError as exc:
        raise ConfigError(f"{ctx}: {exc}") from None


def _parse_scenario(entry, index):
    ctx = f"scenario {index}"
    if not isinstance(entry, dict):
        raise ConfigError(f"{ctx} must be an object, got {type(entry).__name__}")
    kind = entry.get("type")
    if not isinstance(kind, str) or kind not in SCENARIO_TYPES:
        raise ConfigError(f"{ctx}: unknown type {kind!r}, "
                          f"expected one of {sorted(SCENARIO_TYPES)}")
    fields_only = {key: value for key, value in entry.items() if key != "type"}
    return _build(SCENARIO_TYPES[kind], fields_only, f"{ctx} ({kind})")


def parse_config(path) -> RunConfig:
    """Read and fully validate a JSON config file."""
    data = _read_json_object(path, "config")
    unknown = set(data) - {f.name for f in fields(RunConfig)}
    if unknown:
        raise ConfigError(f"unknown config key {sorted(unknown)[0]!r}")

    kwargs = {}

    network = data.get("network", "preset")
    if network not in ("preset", "file"):
        raise ConfigError(f"config key 'network' must be 'preset' or 'file', got {network!r}")
    kwargs["network"] = network
    if network == "file":
        net_file = data.get("network_file")
        if not isinstance(net_file, str) or not net_file:
            raise ConfigError("network 'file' requires key 'network_file'")
        base = os.path.dirname(os.path.abspath(path))
        net_path = net_file if os.path.isabs(net_file) else os.path.join(base, net_file)
        if not os.path.exists(net_path):
            raise ConfigError(f"network_file {net_file!r} does not exist")
        kwargs["network_file"] = net_path
    elif "network_file" in data:
        raise ConfigError("key 'network_file' requires network = 'file'")

    for key in ("g1", "g6", "v_g", "gamma_dp", "gamma_s", "ohmic_fraction", "prominence"):
        if key not in data:
            continue
        value = kwargs[key] = _require_number(data, key)
        if key in ("v_g", "prominence") and value <= 0:
            raise ConfigError(f"config key {key!r} must be > 0, got {value!r}")
        if value < 0:
            raise ConfigError("port amplitudes g1, g6 must be >= 0" if key in ("g1", "g6")
                              else f"config key {key!r} must be >= 0, got {value!r}")
    if network == "file":
        site_data = _read_json_object(kwargs["network_file"], "network file")
        for loss_key, rate in _FILE_LOSS_RATES.items():
            if loss_key in site_data and rate in data:
                raise ConfigError(
                    f"config key {rate!r} conflicts with {loss_key!r} in the network file")

    if "grid" in data:
        kwargs["grid"] = _build(ProbeGrid, data["grid"], "grid")

    if "solver" in data:
        solver = data["solver"]
        if solver not in SOLVERS:
            raise ConfigError(
                f"config key 'solver' must be one of {sorted(SOLVERS)}, got {solver!r}"
            )
        kwargs["solver"] = solver

    if "scenarios" in data:
        entries = data["scenarios"]
        if not isinstance(entries, list):
            raise ConfigError("config key 'scenarios' must be a list")
        kwargs["scenarios"] = tuple(_parse_scenario(entry, i) for i, entry in enumerate(entries))
        # each label names the scenario's output files
        first = {}
        for i, scenario in enumerate(kwargs["scenarios"]):
            if scenario.label == "baseline":
                raise ConfigError(f"scenario {i}: label 'baseline' is reserved for the baseline")
            j = first.setdefault(scenario.label, i)
            if j != i:
                raise ConfigError(f"scenarios {j} and {i} share the label {scenario.label!r}")

    if "output_dir" in data:
        out = data["output_dir"]
        if not isinstance(out, str) or not out:
            raise ConfigError("config key 'output_dir' must be a non-empty string")
        kwargs["output_dir"] = out

    if "emit_svg" in data:
        if not isinstance(data["emit_svg"], bool):
            raise ConfigError("config key 'emit_svg' must be true or false")
        kwargs["emit_svg"] = data["emit_svg"]

    if "fit_windows" in data:
        windows = data["fit_windows"]
        if not isinstance(windows, list):
            raise ConfigError("config key 'fit_windows' must be a list of [lo, hi] pairs")
        parsed = []
        for i, win in enumerate(windows):
            if (not isinstance(win, list) or len(win) != 2
                    or any(isinstance(v, bool) or not isinstance(v, (int, float)) for v in win)):
                raise ConfigError(f"fit window {i} must be a [lo, hi] pair of numbers")
            lo, hi = float(win[0]), float(win[1])
            if not lo < hi:
                raise ConfigError(f"fit window {i} is empty: [{lo}, {hi}]")
            parsed.append((lo, hi))
        kwargs["fit_windows"] = tuple(parsed)

    return RunConfig(**kwargs)


def build_setup(cfg: RunConfig):
    """(network, waveguide, grid) triple realized from a RunConfig."""
    rates = dict(g1=cfg.g1, g6=cfg.g6, gamma_dp=cfg.gamma_dp, gamma_s=cfg.gamma_s,
                 ohmic_fraction=cfg.ohmic_fraction, v_g=cfg.v_g)
    if cfg.network == "file":
        try:
            net, wg = network_from_site_data(
                _read_json_object(cfg.network_file, "network file"), **rates)
        except SiteDataError as exc:
            raise ConfigError(f"network file {cfg.network_file!r}: {exc}") from None
    else:
        net, wg = fmo_preset(**rates)
    grid = cfg.grid if cfg.grid is not None else default_grid(net)
    return net, wg, grid
