"""Defect scenarios and baseline-vs-defect spectrum comparison.

Three defect families cover the experiments this package runs: inhibiting a
single inter-site coupling, disconnecting a site entirely, and re-probing
the same network with different port amplitudes. Comparisons are made on
the transmission column only; reflection and absorption are carried along
in the emitted CSVs but not scored.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np
from scipy.signal import find_peaks

from .model import LossBreakdown, SiteNetwork, WaveguideCoupling, rebuild_port_losses
from .scattering import Spectrum, sweep_spectrum

DEFAULT_PROMINENCE = 0.01

# numpy 2 renamed trapz; support both.
_trapezoid = getattr(np, "trapezoid", None) or np.trapz


class ScenarioError(ValueError):
    """Scenario is not applicable to the target network."""


@dataclass(frozen=True)
class InhibitCoupling:
    """Zero the coupling between two sites, both directions."""

    site_a: int
    site_b: int
    label: str = ""

    def __post_init__(self):
        if not self.label:
            a, b = sorted((self.site_a, self.site_b))
            object.__setattr__(self, "label", f"inhibit-J-{a}-{b}")


@dataclass(frozen=True)
class RemoveSite:
    """Disconnect a site entirely: drop its row/column and its losses."""

    site: int
    label: str = ""

    def __post_init__(self):
        if not self.label:
            object.__setattr__(self, "label", f"remove-site-{self.site}")


@dataclass(frozen=True)
class SetPortAmplitudes:
    """Probe the unchanged network with different port amplitudes on the same wire."""

    ports: tuple
    label: str = ""

    def __post_init__(self):
        object.__setattr__(self, "ports", tuple((int(s), float(g)) for s, g in self.ports))
        if not self.label:
            tag = "-".join(f"{s}g{g:g}" for s, g in self.ports)
            object.__setattr__(self, "label", f"set-ports-{tag}")


def _check_site(net: SiteNetwork, site: int):
    if not 1 <= site <= net.n_sites:
        raise ScenarioError(f"site {site} out of range 1..{net.n_sites}")


def apply_defect(net: SiteNetwork, wg: WaveguideCoupling, scenario):
    """Return the defected (network, coupling) pair; inputs are not mutated.

    InhibitCoupling and RemoveSite leave the waveguide side untouched apart
    from port-index remapping; SetPortAmplitudes leaves the site structure
    untouched apart from retuning the per-port Ohmic loss at the wire's
    Ohmic fraction.
    """
    if isinstance(scenario, InhibitCoupling):
        _check_site(net, scenario.site_a)
        _check_site(net, scenario.site_b)
        if scenario.site_a == scenario.site_b:
            raise ScenarioError(f"cannot inhibit a site's coupling to itself (site {scenario.site_a})")
        i = net.site_index(scenario.site_a)
        j = net.site_index(scenario.site_b)
        J = np.array(net.coupling, dtype=float)
        J[i, j] = 0.0
        J[j, i] = 0.0
        return replace(net, coupling=J), wg

    if isinstance(scenario, RemoveSite):
        _check_site(net, scenario.site)
        port_sites = [s for s, _ in wg.ports]
        if scenario.site in port_sites:
            raise ScenarioError(
                f"cannot remove probed site {scenario.site} (ports are {sorted(port_sites)})"
            )
        k = net.site_index(scenario.site)
        keep = [i for i in range(net.n_sites) if i != k]
        breakdown = LossBreakdown(
            **{name: arr[keep] for name, arr in net.loss_breakdown.as_dict().items()}
        )
        new_net = replace(
            net,
            n_sites=net.n_sites - 1,
            epsilon=net.epsilon[keep],
            coupling=net.coupling[np.ix_(keep, keep)],
            loss=net.loss[keep],
            loss_breakdown=breakdown,
            labels=tuple(net.labels[i] for i in keep),
        )
        new_ports = tuple((s - 1 if s > scenario.site else s, g) for s, g in wg.ports)
        return new_net, replace(wg, ports=new_ports)

    if isinstance(scenario, SetPortAmplitudes):
        for s, _ in scenario.ports:
            _check_site(net, s)
        new_wg = replace(wg, ports=scenario.ports)
        return rebuild_port_losses(net, wg, new_wg), new_wg

    raise ScenarioError(f"unknown scenario type {type(scenario).__name__}")


class Extremum(NamedTuple):
    energy: float
    T: float
    kind: str


def find_extrema(spec: Spectrum, prominence: float = DEFAULT_PROMINENCE):
    """Interior dips and peaks of T with at least the given prominence."""
    if prominence <= 0:
        raise ValueError("prominence must be positive")
    energies = spec.energies
    out = []
    dip_idx, _ = find_peaks(-spec.T, prominence=prominence)
    peak_idx, _ = find_peaks(spec.T, prominence=prominence)
    for i in dip_idx:
        out.append(Extremum(float(energies[i]), float(spec.T[i]), "dip"))
    for i in peak_idx:
        out.append(Extremum(float(energies[i]), float(spec.T[i]), "peak"))
    out.sort(key=lambda e: e.energy)
    return out


def dip_count(spec: Spectrum, prominence: float = DEFAULT_PROMINENCE) -> int:
    return sum(1 for e in find_extrema(spec, prominence) if e.kind == "dip")


@dataclass(frozen=True)
class SpectralDiff:
    """Scalar distances between two transmission spectra on one grid."""

    l2: float
    l_inf: float
    area: float
    extrema_delta: int

    def as_dict(self):
        return {"l2": self.l2, "l_inf": self.l_inf, "area": self.area,
                "extrema_delta": self.extrema_delta}


def spectral_difference(base: Spectrum, mod: Spectrum,
                        prominence: float = DEFAULT_PROMINENCE) -> SpectralDiff:
    """Compare transmission columns; extrema_delta counts dips mod - base."""
    if base.grid != mod.grid:
        raise ValueError(
            f"grid mismatch: base {base.grid} vs mod {mod.grid}"
        )
    dT = mod.T - base.T
    h = base.grid.spacing
    return SpectralDiff(
        l2=float(np.sqrt(np.sum(dT ** 2) * h)),
        l_inf=float(np.max(np.abs(dT))),
        area=float(_trapezoid(np.abs(dT), base.energies)),
        extrema_delta=dip_count(mod, prominence) - dip_count(base, prominence),
    )


def _spectrum_entry(label: str, spec: Spectrum, prominence: float) -> dict:
    extrema = find_extrema(spec, prominence)
    return {
        "label": label,
        "dip_count": sum(1 for e in extrema if e.kind == "dip"),
        "extrema": [{"energy": e.energy, "T": e.T, "kind": e.kind} for e in extrema],
    }


def run_scenario_suite(net: SiteNetwork, wg: WaveguideCoupling, grid,
                       scenarios, solver: str = "closed_form",
                       prominence: float = DEFAULT_PROMINENCE,
                       on_spectrum=None) -> dict:
    """Baseline once, then each scenario: spectrum, diff, extrema.

    A scenario whose defect or sweep fails is recorded with ok=False and its
    error message; the remaining scenarios still run. on_spectrum, if given,
    is called as on_spectrum(entry, spec, base_spec) for the baseline and then
    for each successful scenario once its report entry is complete; it may add
    keys to the entry. Only the baseline and the current defect spectrum are
    held at any time.
    """
    base_spec = sweep_spectrum(net, wg, grid, solver=solver)
    base_entry = _spectrum_entry("baseline", base_spec, prominence)
    if on_spectrum is not None:
        on_spectrum(base_entry, base_spec, base_spec)

    entries = []
    for scenario in scenarios:
        try:
            d_net, d_wg = apply_defect(net, wg, scenario)
            d_spec = sweep_spectrum(d_net, d_wg, grid, solver=solver)
        except Exception as exc:
            entries.append({"label": scenario.label, "ok": False,
                            "error": f"{type(exc).__name__}: {exc}"})
            continue
        entry = _spectrum_entry(scenario.label, d_spec, prominence)
        entry.update(ok=True, diff=spectral_difference(base_spec, d_spec, prominence).as_dict())
        entries.append(entry)
        if on_spectrum is not None:
            on_spectrum(entry, d_spec, base_spec)

    return {
        "baseline": base_entry,
        "scenarios": entries,
        "metadata": dict(base_spec.metadata,
                         prominence=prominence,
                         grid={"e_min": grid.e_min, "e_max": grid.e_max,
                               "n_points": grid.n_points}),
    }
