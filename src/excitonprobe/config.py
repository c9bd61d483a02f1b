"""Run configuration: strict JSON parsing and network construction.

Unknown keys are fatal everywhere; a typo in a physics parameter must not
silently fall back to a default. Syntax errors are reported with the line
and column from the JSON parser.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

from .model import (
    OHMIC_FRACTION_DEFAULT,
    ProbeGrid,
    SiteDataError,
    fmo_preset,
    network_from_site_data,
)
from .scattering import SOLVERS, default_grid
from .scenarios import DEFAULT_PROMINENCE, InhibitCoupling, RemoveSite, SetPortAmplitudes


class ConfigError(ValueError):
    """Configuration file is syntactically or semantically invalid."""


_TOP_KEYS = {
    "network", "network_file", "g1", "g6", "v_g", "gamma_dp", "gamma_s",
    "ohmic_fraction", "grid", "solver", "scenarios", "output_dir",
    "emit_svg", "prominence", "fit_windows",
}
_GRID_KEYS = {"e_min", "e_max", "n_points"}
_SCENARIO_KEYS = {
    "inhibit_coupling": {"type", "site_a", "site_b", "label"},
    "remove_site": {"type", "site", "label"},
    "set_port_amplitudes": {"type", "ports", "label"},
}
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


def _require_number(data, key, context="config"):
    value = data[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{context} key {key!r} must be a number, got {value!r}")
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


def _parse_scenario(entry, index):
    ctx = f"scenario {index}"
    if not isinstance(entry, dict):
        raise ConfigError(f"{ctx} must be an object, got {type(entry).__name__}")
    kind = entry.get("type")
    if kind not in _SCENARIO_KEYS:
        raise ConfigError(
            f"{ctx}: unknown type {kind!r}, expected one of {sorted(_SCENARIO_KEYS)}"
        )
    unknown = set(entry) - _SCENARIO_KEYS[kind]
    if unknown:
        raise ConfigError(f"{ctx}: unknown key {sorted(unknown)[0]!r} for type {kind!r}")
    label = entry.get("label", "")
    if kind == "inhibit_coupling":
        for key in ("site_a", "site_b"):
            if key not in entry:
                raise ConfigError(f"{ctx}: missing key {key!r}")
        return InhibitCoupling(int(entry["site_a"]), int(entry["site_b"]), label=label)
    if kind == "remove_site":
        if "site" not in entry:
            raise ConfigError(f"{ctx}: missing key 'site'")
        return RemoveSite(int(entry["site"]), label=label)
    ports = entry.get("ports")
    if not isinstance(ports, list) or not ports:
        raise ConfigError(f"{ctx}: 'ports' must be a non-empty list of [site, g] pairs")
    try:
        pairs = tuple((int(s), float(g)) for s, g in ports)
    except (TypeError, ValueError):
        raise ConfigError(f"{ctx}: 'ports' must be a list of [site, g] pairs") from None
    return SetPortAmplitudes(pairs, label=label)


def parse_config(path) -> RunConfig:
    """Read and fully validate a JSON config file."""
    data = _read_json_object(path, "config")
    unknown = set(data) - _TOP_KEYS
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
        if key in data:
            kwargs[key] = _require_number(data, key)
    if kwargs.get("g1", 10.0) < 0 or kwargs.get("g6", 10.0) < 0:
        raise ConfigError("port amplitudes g1, g6 must be >= 0")
    for key in ("gamma_dp", "gamma_s", "ohmic_fraction"):
        if kwargs.get(key, 0.0) < 0:
            raise ConfigError(f"config key {key!r} must be >= 0, got {kwargs[key]!r}")
    if kwargs.get("v_g", 1.0) <= 0:
        raise ConfigError("group velocity v_g must be > 0")
    if kwargs.get("prominence", DEFAULT_PROMINENCE) <= 0:
        raise ConfigError("prominence must be > 0")
    if network == "file":
        site_data = _read_json_object(kwargs["network_file"], "network file")
        for loss_key, rate in _FILE_LOSS_RATES.items():
            if loss_key in site_data and rate in data:
                raise ConfigError(
                    f"config key {rate!r} conflicts with {loss_key!r} in the network file")

    if "grid" in data:
        grid = data["grid"]
        if not isinstance(grid, dict):
            raise ConfigError("config key 'grid' must be an object")
        unknown = set(grid) - _GRID_KEYS
        if unknown:
            raise ConfigError(f"unknown key {sorted(unknown)[0]!r} in grid")
        for key in ("e_min", "e_max"):
            if key not in grid:
                raise ConfigError(f"grid is missing key {key!r}")
        n_points = grid.get("n_points", 2001)
        if isinstance(n_points, bool) or not isinstance(n_points, int):
            raise ConfigError("grid key 'n_points' must be an integer")
        try:
            kwargs["grid"] = ProbeGrid(
                e_min=_require_number(grid, "e_min", "grid"),
                e_max=_require_number(grid, "e_max", "grid"),
                n_points=n_points,
            )
        except ValueError as exc:
            raise ConfigError(f"invalid grid: {exc}") from None

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
