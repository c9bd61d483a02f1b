"""Defect scenarios and baseline-vs-defect spectrum comparison.

Three defect families cover the experiments this package runs: inhibiting a
single inter-site coupling, disconnecting a site entirely, and re-probing
the same network with different port amplitudes. Comparisons are made on
the transmission column only; reflection and absorption are carried along
in the emitted CSVs but not scored.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from typing import NamedTuple

import numpy as np

from .model import (
    LossBreakdown, SiteNetwork, WaveguideCoupling, _real_number, rebuild_port_losses, site_number,
)
from .scattering import Spectrum, sweep_spectrum

DEFAULT_PROMINENCE = 0.01

# numpy 2 renamed trapz; support both.
_trapezoid = getattr(np, "trapezoid", None) or np.trapz


class ScenarioError(ValueError):
    """Scenario is not applicable to the target network."""


def _set_label(scenario, default: str):
    if not isinstance(scenario.label, str):
        raise ValueError(f"label must be a string, got {scenario.label!r}")
    if not scenario.label:
        object.__setattr__(scenario, "label", default)


@dataclass(frozen=True)
class InhibitCoupling:
    """Zero the coupling between two sites, both directions."""

    site_a: int
    site_b: int
    label: str = ""

    def __post_init__(self):
        for name in ("site_a", "site_b"):
            object.__setattr__(self, name, site_number(getattr(self, name), name))
        a, b = sorted((self.site_a, self.site_b))
        _set_label(self, f"inhibit-J-{a}-{b}")


@dataclass(frozen=True)
class RemoveSite:
    """Disconnect a site entirely: drop its row/column and its losses."""

    site: int
    label: str = ""

    def __post_init__(self):
        object.__setattr__(self, "site", site_number(self.site))
        _set_label(self, f"remove-site-{self.site}")


@dataclass(frozen=True)
class SetPortAmplitudes:
    """Probe the unchanged network with different port amplitudes on the same wire.

    ports: non-empty (site, g) pairs, checked by WaveguideCoupling."""

    ports: tuple
    label: str = ""

    def __post_init__(self):
        object.__setattr__(self, "ports", WaveguideCoupling(self.ports).ports)
        if not self.ports:
            raise ValueError("ports must list at least one (site, g) pair")
        tag = "-".join(f"{s}g{g:g}" for s, g in self.ports)
        _set_label(self, f"set-ports-{tag}")


# Config name of each scenario type; its fields are the entry's keys.
SCENARIO_TYPES = {
    "inhibit_coupling": InhibitCoupling,
    "remove_site": RemoveSite,
    "set_port_amplitudes": SetPortAmplitudes,
}


def _site_index(net: SiteNetwork, site: int) -> int:
    """0-based index of a 1-based site number; ScenarioError if net lacks the site."""
    if not 1 <= site <= net.n_sites:
        raise ScenarioError(f"site {site} out of range 1..{net.n_sites}")
    return site - 1


def apply_defect(net: SiteNetwork, wg: WaveguideCoupling, scenario):
    """Return the defected (network, coupling) pair; inputs are not mutated.

    InhibitCoupling and RemoveSite leave the waveguide side untouched apart
    from port-index remapping; SetPortAmplitudes leaves the site structure
    untouched apart from retuning the per-port Ohmic loss at the wire's
    Ohmic fraction.
    """
    if isinstance(scenario, InhibitCoupling):
        i = _site_index(net, scenario.site_a)
        j = _site_index(net, scenario.site_b)
        if i == j:
            raise ScenarioError(f"cannot inhibit a site's coupling to itself (site {scenario.site_a})")
        J = np.array(net.coupling, dtype=float)
        J[i, j] = 0.0
        J[j, i] = 0.0
        return replace(net, coupling=J), wg

    if isinstance(scenario, RemoveSite):
        k = _site_index(net, scenario.site)
        port_sites = [s for s, _ in wg.ports]
        if scenario.site in port_sites:
            raise ScenarioError(
                f"cannot remove probed site {scenario.site} (ports are {sorted(port_sites)})"
            )
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
        )
        new_ports = tuple((s - 1 if s > scenario.site else s, g) for s, g in wg.ports)
        return new_net, replace(wg, ports=new_ports)

    if isinstance(scenario, SetPortAmplitudes):
        for s, _ in scenario.ports:
            _site_index(net, s)
        new_wg = replace(wg, ports=scenario.ports)
        return rebuild_port_losses(net, wg, new_wg), new_wg

    raise ScenarioError(f"unknown scenario type {type(scenario).__name__}")


class Extremum(NamedTuple):
    energy: float
    T: float
    kind: str


def _walk_mins(values):
    """For each value, the minimum of it and of the values before it, back to
    the nearest one that is not <= it (or the start): the base that a walk
    out of a peak reaches on that side. One pass with a stack, O(len)."""
    stack = []  # (value, minimum since the entry below); values decrease upwards
    out = []
    for v in values:
        low = v
        while stack and stack[-1][0] <= v:
            low = min(low, stack.pop()[1])
        stack.append((v, low))
        out.append(low)
    return out


def _prominent_peaks(x, prominence):
    """Indices of the peaks of a NaN-free array x with at least the given prominence.

    The same indices as ``scipy.signal.find_peaks(x, prominence=prominence)[0]``;
    find_extrema states the rules.
    """
    if x.size < 3:
        return np.empty(0, dtype=np.intp)
    # The sign of each step x[k + 1] - x[k], as two bool flags: it rises, it
    # falls, or neither. Then the runs of steps of one sign.
    rise, fall = x[1:] > x[:-1], x[1:] < x[:-1]
    edge = rise[1:] != rise[:-1]
    edge |= fall[1:] != fall[:-1]
    start = np.concatenate(([0], np.flatnonzero(edge) + 1))
    stop = np.append(start[1:], rise.size)  # a run's last step reaches sample `stop`
    up = rise[start]
    moving = up | fall[start]  # a run of flat steps lies inside a run of equal samples
    if not moving.any():
        return np.empty(0, dtype=np.intp)
    up, start, stop = up[moving], start[moving], stop[moving]
    # The runs of equal samples that can turn: the first, the one between each
    # rising and falling moving run, and the last. Between two turning runs
    # the samples are monotone, so a walk out of a peak finds its minimum, and
    # its first higher sample, by turning runs.
    first = np.concatenate(([0], stop))
    last = np.append(start, x.size - 1)
    turn = np.flatnonzero(np.concatenate(([True], up[:-1] != up[1:], [True])))
    # a peak is entered by a rise and left by a fall; the end runs lack one of them
    peak = np.concatenate(([False], up[:-1] & ~up[1:], [False]))[turn].tolist()
    values = x[first[turn]].tolist()  # Python floats: an overflowing difference is inf, unwarned
    left, right = _walk_mins(values), _walk_mins(values[::-1])[::-1]
    kept = turn[[k for k, is_peak in enumerate(peak)
                 if is_peak and values[k] - max(left[k], right[k]) >= prominence]]
    return (first[kept] + last[kept]) // 2


def find_extrema(spec: Spectrum, prominence: float = DEFAULT_PROMINENCE):
    """Interior dips and peaks of T with at least the given prominence.

    The rules are those of ``scipy.signal.find_peaks``, applied to T for peaks
    and to -T for dips. A local maximum is a run of equal samples with a
    strictly lower sample on each side, so the first and last runs never
    count; its index is the middle of the run, ``(first + last) // 2``. Its
    prominence is its height less the higher of two bases, each the minimum
    of the samples from the peak outwards up to the first sample that is not
    <= the peak (or the end of the spectrum). A peak is kept when its
    prominence is >= ``prominence``.
    """
    prominence = _real_number(prominence, "prominence")
    if prominence <= 0:
        raise ValueError(f"prominence must be > 0, got {prominence!r}")
    out = []
    # dips first: the stable sort keeps a dip before a peak at the same energy
    for kind, values in (("dip", -spec.T), ("peak", spec.T)):
        rows = _prominent_peaks(values, prominence)
        out += [Extremum(energy, float(spec.T[i]), kind)
                for i, energy in zip(rows, spec.grid.energies(rows).tolist())]
    return sorted(out, key=lambda e: e.energy)


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
        return asdict(self)


def _distances(base: Spectrum, mod: Spectrum):
    """(l2, l_inf, area) between the transmission columns of two spectra on one grid."""
    if base.grid != mod.grid:
        raise ValueError(
            f"grid mismatch: base {base.grid} vs mod {mod.grid}"
        )
    dT = mod.T - base.T
    h = base.grid.spacing
    return (float(np.sqrt(np.sum(dT ** 2) * h)),
            float(np.max(np.abs(dT))),
            float(_trapezoid(np.abs(dT), base.energies)))


def spectral_difference(base: Spectrum, mod: Spectrum,
                        prominence: float = DEFAULT_PROMINENCE) -> SpectralDiff:
    """Compare transmission columns; extrema_delta counts dips mod - base."""
    return SpectralDiff(*_distances(base, mod),
                        extrema_delta=dip_count(mod, prominence) - dip_count(base, prominence))


def _spectrum_entry(label: str, spec: Spectrum, prominence: float) -> dict:
    extrema = find_extrema(spec, prominence)
    return {
        "label": label,
        "dip_count": sum(1 for e in extrema if e.kind == "dip"),
        "extrema": [e._asdict() for e in extrema],
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
        # the entries already hold each spectrum's dip count
        diff = SpectralDiff(*_distances(base_spec, d_spec),
                            extrema_delta=entry["dip_count"] - base_entry["dip_count"])
        entry.update(ok=True, diff=diff.as_dict())
        entries.append(entry)
        if on_spectrum is not None:
            on_spectrum(entry, d_spec, base_spec)

    return {
        "baseline": base_entry,
        "scenarios": entries,
        "metadata": dict(base_spec.metadata,
                         prominence=prominence,
                         grid=asdict(grid)),
    }
