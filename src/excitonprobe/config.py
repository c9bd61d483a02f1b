"""Run configuration: strict JSON parsing and network construction.

Unknown keys are fatal everywhere; a typo in a physics parameter must not
silently fall back to a default. The top level, the grid block and each
scenario entry are the dataclass they describe (RunConfig, ProbeGrid,
SCENARIO_TYPES): its fields are the keys and its own checks the value rules.
Syntax errors are reported with the line and column from the JSON parser; a
key repeated in one object is an error too, since JSON would keep its last value.
"""

from __future__ import annotations

import json
import os
from dataclasses import MISSING, dataclass, fields, replace

from .fano import _fit_window
from .model import (
    OHMIC_FRACTION_DEFAULT,
    ProbeGrid,
    SiteDataError,
    _real_number,
    fmo_preset,
    network_from_site_data,
)
from .scattering import SOLVERS, default_grid
from .scenarios import DEFAULT_PROMINENCE, SCENARIO_TYPES


class ConfigError(ValueError):
    """Configuration file is syntactically or semantically invalid."""


# Per-site loss arrays a network file may carry, and the config rate each replaces.
_FILE_LOSS_RATES = {"loss_dephasing_cm1": "gamma_dp", "loss_sink_cm1": "gamma_s"}

# The float fields of RunConfig that must be > 0; the others must be >= 0.
_POSITIVE = ("v_g", "prominence")


@dataclass(frozen=True)
class RunConfig:
    """One run's settings. The fields are the config file's top-level keys,
    and each is checked here, so a RunConfig built in Python obeys the same
    rules as one read from a file."""

    network: str = "preset"
    network_file: str | None = None
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

    def __post_init__(self):
        for name in (f.name for f in fields(self) if f.type in ("float", float)):
            value = _real_number(getattr(self, name), f"config key {name!r}")
            if name in _POSITIVE and value <= 0:
                raise ValueError(f"config key {name!r} must be > 0, got {value!r}")
            if value < 0:
                raise ValueError(f"config key {name!r} must be >= 0, got {value!r}")
            object.__setattr__(self, name, value)
        if self.network not in ("preset", "file"):
            raise ValueError(
                f"config key 'network' must be 'preset' or 'file', got {self.network!r}")
        if self.network_file is None and self.network == "file":
            raise ValueError("network 'file' requires key 'network_file'")
        if self.network_file is not None and self.network != "file":
            raise ValueError("key 'network_file' requires network = 'file'")
        if self.network_file is not None and (
                not isinstance(self.network_file, str) or not self.network_file):
            raise ValueError(f"config key 'network_file' must be a non-empty string, "
                             f"got {self.network_file!r}")
        if not isinstance(self.solver, str) or self.solver not in SOLVERS:
            raise ValueError(
                f"config key 'solver' must be one of {sorted(SOLVERS)}, got {self.solver!r}")
        if not isinstance(self.output_dir, str) or not self.output_dir:
            raise ValueError("config key 'output_dir' must be a non-empty string")
        if not isinstance(self.emit_svg, bool):
            raise ValueError("config key 'emit_svg' must be true or false")
        if self.grid is not None and not isinstance(self.grid, ProbeGrid):
            raise ValueError(f"config key 'grid' must be a ProbeGrid, got {self.grid!r}")

        if not isinstance(self.scenarios, (list, tuple)):
            raise ValueError("config key 'scenarios' must be a list")
        object.__setattr__(self, "scenarios", tuple(self.scenarios))
        # each label names the scenario's output files inside output_dir
        separators = {"/", os.sep, os.altsep} - {None}
        first = {}
        for i, scenario in enumerate(self.scenarios):
            if not isinstance(scenario, tuple(SCENARIO_TYPES.values())):
                raise ValueError(f"scenario {i} must be one of "
                                 f"{[cls.__name__ for cls in SCENARIO_TYPES.values()]}, "
                                 f"got {scenario!r}")
            if scenario.label == "baseline":
                raise ValueError(f"scenario {i}: label 'baseline' is reserved for the baseline")
            if any(sep in scenario.label for sep in separators):
                raise ValueError(f"scenario {i}: label {scenario.label!r} must not contain "
                                 f"a path separator")
            if "\0" in scenario.label:
                raise ValueError(f"scenario {i}: label {scenario.label!r} must not contain "
                                 f"a NUL character")
            j = first.setdefault(scenario.label, i)
            if j != i:
                raise ValueError(f"scenarios {j} and {i} share the label {scenario.label!r}")

        if not isinstance(self.fit_windows, (list, tuple)):
            raise ValueError("config key 'fit_windows' must be a list of [lo, hi] pairs")
        object.__setattr__(self, "fit_windows", tuple(
            _fit_window(win, f"fit window {i}") for i, win in enumerate(self.fit_windows)))


def _read_json_object(path, what) -> dict:
    def unique_keys(pairs):
        obj = {}
        for key, value in pairs:
            if key in obj:
                raise ConfigError(f"{path}: repeated key {key!r}")
            obj[key] = value
        return obj

    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh, object_pairs_hook=unique_keys)
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
    blocks = {}
    if "grid" in data:
        blocks["grid"] = _build(ProbeGrid, data["grid"], "grid")
    if isinstance(data.get("scenarios"), list):
        blocks["scenarios"] = tuple(
            _parse_scenario(entry, i) for i, entry in enumerate(data["scenarios"]))
    cfg = _build(RunConfig, {**data, **blocks}, path)

    if cfg.network == "file":
        net_path = os.path.join(os.path.dirname(os.path.abspath(path)), cfg.network_file)
        if not os.path.exists(net_path):
            raise ConfigError(f"network_file {cfg.network_file!r} does not exist")
        cfg = replace(cfg, network_file=net_path)
        site_data = _read_json_object(net_path, "network file")
        for loss_key, rate in _FILE_LOSS_RATES.items():
            if loss_key in site_data and rate in data:
                raise ConfigError(
                    f"config key {rate!r} conflicts with {loss_key!r} in the network file")
    return cfg


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
