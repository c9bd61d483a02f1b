"""Exciton site network data model, validation, and the built-in FMO preset.

Energies and rates are in cm^-1 throughout. Site energies are offsets from a
declared reference energy so that only differences enter the physics; the
reference is carried as metadata. Site numbers in the public API are 1-based
("site 1" ... "site N"); the underlying arrays are 0-based.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
from dataclasses import dataclass, replace
from importlib import resources

import numpy as np

# Named loss channels, in the order of the LossBreakdown fields; spectrum CSVs
# write their columns in another order (csvio._CSV_CHANNELS).
LOSS_CHANNELS = ("dephasing", "ohmic", "sink")

PRESET_DATA_FILE = "fmo_hamiltonian.json"

# Top-level keys of a site-data file: the bundled file's plus two optional loss arrays.
SITE_DATA_KEYS = {"comment", "units", "source", "labels", "reference_energy_cm1", "epsilon_cm1",
                  "coupling_upper_triangle_cm1", "loss_dephasing_cm1", "loss_sink_cm1"}

# Fraction of each port's induced width lost to Ohmic heating of the wire.
OHMIC_FRACTION_DEFAULT = 1.0 / 20.0


class PresetDataError(RuntimeError):
    """Raised when the bundled preset data file is missing or malformed."""


class SiteDataError(ValueError):
    """Site data (energies, couplings, loss arrays) is malformed."""


class NetworkValidationError(ValueError):
    """Input network or coupling violates a structural invariant."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


def induced_width(g, v_g=1.0):
    """Waveguide-induced decay width of a port site: Gamma = 2 g^2 / v_g."""
    return 2.0 * g * g / v_g


def _integer(value, name: str, kind: str = "an integer") -> int:
    """`value` as an int: an integer (numpy integers included), not a bool."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be {kind}, got {value!r}")
    return int(value)


def site_number(value, name: str = "site") -> int:
    """`value` as a site number: an integer (numpy integers included), not a bool.

    Only the type is checked; whether the site exists depends on the network.
    """
    return _integer(value, name, "an integer site number")


def _real_number(value, name: str) -> float:
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return float(value)


def _frozen_array(values, dtype=float):
    arr = np.array(values, dtype=dtype)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class LossBreakdown:
    """Per-site non-negative loss rates split by named channel (cm^-1)."""

    dephasing: np.ndarray
    ohmic: np.ndarray
    sink: np.ndarray

    def __post_init__(self):
        for name in LOSS_CHANNELS:
            object.__setattr__(self, name, _frozen_array(getattr(self, name)))

    def total(self) -> np.ndarray:
        return self.dephasing + self.ohmic + self.sink

    def as_dict(self) -> dict:
        return {name: getattr(self, name) for name in LOSS_CHANNELS}

    @classmethod
    def zeros(cls, n: int) -> "LossBreakdown":
        return cls(np.zeros(n), np.zeros(n), np.zeros(n))


@dataclass(frozen=True)
class SiteNetwork:
    """An N-site excitonic network with per-site loss rates.

    epsilon[n] is the site energy offset from `reference_energy`, coupling is
    the real symmetric inter-site coupling matrix with zero diagonal, and
    loss[n] is the total non-Hermitian width of site n, which must equal the
    sum of its loss_breakdown channels. A network that breaks a rule of
    validate_network raises NetworkValidationError when it is built.
    """

    n_sites: int
    epsilon: np.ndarray
    coupling: np.ndarray
    loss: np.ndarray
    loss_breakdown: LossBreakdown
    reference_energy: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "n_sites", _integer(self.n_sites, "n_sites"))
        object.__setattr__(self, "epsilon", _frozen_array(self.epsilon))
        object.__setattr__(self, "coupling", _frozen_array(self.coupling))
        object.__setattr__(self, "loss", _frozen_array(self.loss))
        object.__setattr__(self, "reference_energy",
                           _real_number(self.reference_energy, "reference_energy"))
        violations = validate_network(self)
        if violations:
            raise NetworkValidationError(violations)


@dataclass(frozen=True)
class WaveguideCoupling:
    """Which sites couple to the waveguide and with what amplitude.

    Each port is a (site, g) pair with an integer 1-based site number and a
    finite real coupling amplitude g >= 0, in units such that the induced
    width is 2 g^2 / v_g; v_g is finite and > 0.
    All ports sit at the same waveguide position (zero separation), so a
    photon sees a single combined scatterer. ohmic_fraction (finite, >= 0) is
    the share of each port's induced width lost to Ohmic heating of the wire;
    a change of ports keeps it.
    """

    ports: tuple[tuple[int, float], ...]
    v_g: float = 1.0
    ohmic_fraction: float = OHMIC_FRACTION_DEFAULT

    def __post_init__(self):
        try:
            pairs = [(site, g) for site, g in self.ports]
        except (TypeError, ValueError):
            raise ValueError(f"ports must be (site, g) pairs, got {self.ports!r}") from None
        object.__setattr__(self, "ports", tuple(
            (site_number(site, "ports: site"), _real_number(g, f"ports: g at site {site}"))
            for site, g in pairs))
        sites = [s for s, _ in self.ports]
        if len(set(sites)) != len(sites):
            raise ValueError(f"duplicate port sites: {sites}")
        for s, g in self.ports:
            if s < 1:
                raise ValueError(f"port site {s} is not a valid 1-based site number")
            if g < 0:
                raise ValueError(f"negative port amplitude g={g} at site {s}")
        object.__setattr__(self, "v_g", _real_number(self.v_g, "group velocity v_g"))
        if self.v_g <= 0:
            raise ValueError(f"group velocity must be positive, got {self.v_g}")
        object.__setattr__(self, "ohmic_fraction",
                           _real_number(self.ohmic_fraction, "ohmic_fraction"))
        if self.ohmic_fraction < 0:
            raise ValueError(f"ohmic_fraction must be >= 0, got {self.ohmic_fraction}")

    def amplitude_vector(self, n_sites: int) -> np.ndarray:
        """Coupling amplitudes as a length-N vector (zero off-port).

        The one map from ports onto sites: NetworkValidationError lists every
        port site outside 1..n_sites.
        """
        bad = [s for s, _ in self.ports if not 1 <= s <= n_sites]
        if bad:
            raise NetworkValidationError(
                [f"port site {s} out of range 1..{n_sites}" for s in bad])
        w = np.zeros(n_sites)
        for s, g in self.ports:
            w[s - 1] = g
        return w

    def port_widths(self) -> dict[int, float]:
        """Induced width per port site, {site: 2 g^2 / v_g}."""
        return {s: induced_width(g, self.v_g) for s, g in self.ports}


@dataclass(frozen=True)
class ProbeGrid:
    """Uniform probe-energy grid (cm^-1, same reference as the network)."""

    e_min: float
    e_max: float
    n_points: int = 2001

    def __post_init__(self):
        for name in ("e_min", "e_max"):
            object.__setattr__(self, name, _real_number(getattr(self, name), name))
        object.__setattr__(self, "n_points", _integer(self.n_points, "n_points"))
        if self.n_points < 2:
            raise ValueError(f"grid needs at least 2 points, got {self.n_points}")
        if not self.e_min < self.e_max:
            raise ValueError(f"empty grid range [{self.e_min}, {self.e_max}]")
        if not math.isfinite(self.e_max - self.e_min):
            raise ValueError(f"grid range [{self.e_min}, {self.e_max}] is too wide: "
                             f"e_max - e_min overflows")
        if self.spacing < np.finfo(float).tiny:
            raise ValueError(f"grid range [{self.e_min}, {self.e_max}] is too narrow for "
                             f"{self.n_points} points: spacing {self.spacing!r} is below "
                             f"the smallest normal float")

    @property
    def spacing(self) -> float:
        return (self.e_max - self.e_min) / (self.n_points - 1)

    def energies(self, rows=slice(None)) -> np.ndarray:
        """The energies at rows: a slice, or a 1-D array of indices in 0..n_points - 1.

        Bit for bit ``np.linspace(e_min, e_max, n_points)[rows]``: index k holds
        k * spacing + e_min, the last index e_max. So a slice of the grid costs
        no full-length array.
        """
        if isinstance(rows, slice):
            k = np.arange(*rows.indices(self.n_points), dtype=float)
        else:
            k = np.asarray(rows)
            if k.size and not (0 <= k.min() and k.max() < self.n_points):
                raise IndexError(f"grid rows outside 0..{self.n_points - 1}")
            k = k.astype(float)
        last = k == self.n_points - 1
        k *= self.spacing
        k += self.e_min
        k[last] = self.e_max
        return k


def validate_network(net: SiteNetwork) -> list[str]:
    """Check all SiteNetwork invariants; returns one message per violation.

    An empty list means the network is well formed. Messages use 1-based
    site numbers. SiteNetwork calls it when built; `net` may be any record
    with a SiteNetwork's fields.
    """
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
        if not np.isfinite(arr).all():
            violations.append(f"non-finite values in {name}")

    # Flag the diagonal and the asymmetric pairs in one matrix, so that the
    # row-major order of np.nonzero lists site i's diagonal before its pairs (i, j > i).
    J = net.coupling
    bad = J != J.T
    np.fill_diagonal(bad, J.diagonal() != 0.0)
    if bad.any():
        for i, j in zip(*np.nonzero(np.triu(bad))):
            violations.append(f"nonzero coupling diagonal at site {i + 1}" if i == j
                              else f"asymmetric coupling ({i + 1},{j + 1})")

    for name, arr in net.loss_breakdown.as_dict().items():
        violations.extend(f"negative {name} loss at site {i + 1}" for i in np.flatnonzero(arr < 0))
    loss = net.loss
    negative = loss < 0
    # np.isclose(loss, total, rtol=0, atol=1e-12): equal infinities are close, NaN never is.
    # inf + -inf across channels gives NaN, so the total is summed under errstate too.
    with np.errstate(invalid="ignore"):
        total = net.loss_breakdown.total()
        mismatch = ~((loss == total) | (np.abs(loss - total) <= 1e-12))
    for i in np.flatnonzero(negative | mismatch):
        if negative[i]:
            violations.append(f"negative loss at site {i + 1}")
        if mismatch[i]:
            violations.append(f"loss_breakdown mismatch at site {i + 1}")

    return violations


def network_fingerprint(net: SiteNetwork) -> str:
    """Deterministic short hash of the network's physical content."""
    h = hashlib.sha256()
    h.update(np.int64(net.n_sites).tobytes())
    h.update(np.float64(net.reference_energy).tobytes())
    for arr in (net.epsilon, net.coupling, net.loss):
        h.update(np.ascontiguousarray(arr, dtype=np.float64).tobytes())
    for name in LOSS_CHANNELS:
        h.update(np.ascontiguousarray(getattr(net.loss_breakdown, name), dtype=np.float64).tobytes())
    return h.hexdigest()[:16]


def _site_values(data: dict, key: str, n: int) -> np.ndarray:
    values = data[key]
    if (not isinstance(values, list) or len(values) != n
            or any(type(v) not in (int, float) for v in values)):
        raise SiteDataError(f"key {key!r} must list one number per site ({n} sites)")
    values = np.array(values, dtype=float)
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        i = bad[0]
        raise SiteDataError(f"key {key!r} must hold finite numbers; "
                            f"site {i + 1} has {values[i]:g}")
    return values


def _loss_values(data: dict, key: str, n: int) -> np.ndarray:
    values = _site_values(data, key, n)
    bad = np.flatnonzero(values < 0)
    if bad.size:
        i = bad[0]
        raise SiteDataError(f"key {key!r} must hold finite rates >= 0; "
                            f"site {i + 1} has {values[i]:g}")
    return values


def _coupling_matrix(entries, n: int) -> np.ndarray:
    if not isinstance(entries, list):
        raise SiteDataError("key 'coupling_upper_triangle_cm1' must be a list of [site, site, J]")
    J = np.zeros((n, n))
    seen = set()
    for k, entry in enumerate(entries):
        if not (isinstance(entry, list) and len(entry) == 3
                and all(type(s) is int and 1 <= s <= n for s in entry[:2])
                and entry[0] != entry[1] and type(entry[2]) in (int, float)
                and math.isfinite(entry[2])):
            raise SiteDataError(f"coupling entry {k} {entry!r} must be [site, site, J] "
                                f"with distinct integer sites in 1..{n} and a finite J")
        s, m, value = entry
        pair = (min(s, m), max(s, m))
        if pair in seen:
            raise SiteDataError(f"coupling entry {k} {entry!r} repeats the pair {pair}")
        seen.add(pair)
        J[s - 1, m - 1] = J[m - 1, s - 1] = value
    return J


def _port_ohmic_losses(wg: WaveguideCoupling, n_sites: int) -> np.ndarray:
    """Per-site Ohmic loss: wg.ohmic_fraction times each port's induced width, zero off-port."""
    # as in float arithmetic, a width that overflows is inf and 0 * inf is nan, unwarned
    with np.errstate(over="ignore", invalid="ignore"):
        return wg.ohmic_fraction * induced_width(wg.amplitude_vector(n_sites), wg.v_g)


def network_from_site_data(
    data: dict, *, g1: float, g6: float, gamma_dp: float, gamma_s: float,
    ohmic_fraction: float, v_g: float,
) -> tuple[SiteNetwork, WaveguideCoupling]:
    """Network probed through sites 1 and 6, built from parsed site data.

    `data` has the schema of the bundled preset file (SITE_DATA_KEYS).
    Dephasing broadening gamma_dp sits on the two port sites, the sink rate
    gamma_s on site 3 (transfer to the reaction center), and each port
    carries an Ohmic loss of ohmic_fraction times its induced width
    2 g^2 / v_g, a fraction the returned coupling carries. A per-site
    `loss_dephasing_cm1` or `loss_sink_cm1` array in the data replaces the
    matching placement; its rates must be finite and >= 0. Malformed data
    raises SiteDataError naming the offending key or entry.
    """
    unknown = set(data) - SITE_DATA_KEYS
    if unknown:
        raise SiteDataError(f"unknown site-data key {sorted(unknown)[0]!r}")
    if data.get("units", "cm-1") != "cm-1":  # every energy and rate is read in cm^-1
        raise SiteDataError(f"key 'units' must be 'cm-1', got {data['units']!r}")
    for key in ("epsilon_cm1", "coupling_upper_triangle_cm1"):
        if key not in data:
            raise SiteDataError(f"site data lacks key {key!r}")
    n = len(data["epsilon_cm1"]) if isinstance(data["epsilon_cm1"], list) else 0
    if n < 6:
        raise SiteDataError(f"key 'epsilon_cm1' must list >= 6 sites for ports 1 and 6, got {n}")
    ports = ((1, float(g1)), (6, float(g6)))
    wg = WaveguideCoupling(ports=ports, v_g=v_g, ohmic_fraction=ohmic_fraction)

    dephasing = np.zeros(n)
    dephasing[[site - 1 for site, _ in ports]] = gamma_dp
    sink = np.zeros(n)
    sink[3 - 1] = gamma_s
    if "loss_dephasing_cm1" in data:
        dephasing = _loss_values(data, "loss_dephasing_cm1", n)
    if "loss_sink_cm1" in data:
        sink = _loss_values(data, "loss_sink_cm1", n)
    labels = data.get("labels", [])  # they describe the sites: checked, not kept
    if not (isinstance(labels, list) and len(labels) in (0, n)
            and all(isinstance(label, str) for label in labels)):
        raise SiteDataError(f"key 'labels' must list one string per site ({n} sites)")
    reference = data.get("reference_energy_cm1", 0.0)
    if type(reference) not in (int, float):
        raise SiteDataError(f"key 'reference_energy_cm1' must be a number, got {reference!r}")
    if not math.isfinite(reference):
        raise SiteDataError(f"key 'reference_energy_cm1' must be finite, got {reference!r}")
    breakdown = LossBreakdown(dephasing, _port_ohmic_losses(wg, n), sink)
    net = SiteNetwork(
        n_sites=n,
        epsilon=_site_values(data, "epsilon_cm1", n),
        coupling=_coupling_matrix(data["coupling_upper_triangle_cm1"], n),
        loss=breakdown.total(),
        loss_breakdown=breakdown,
        reference_energy=reference,
    )
    return net, wg


def fmo_preset(
    g1: float = 10.0,
    g6: float = 10.0,
    gamma_dp: float = 77.0,
    gamma_s: float = 5.3,
    ohmic_fraction: float = OHMIC_FRACTION_DEFAULT,
    v_g: float = 1.0,
) -> tuple[SiteNetwork, WaveguideCoupling]:
    """Seven-site FMO network probed through sites 1 and 6: the bundled
    site data run through network_from_site_data."""
    try:
        # the package this module is in, under whatever name it was imported
        path = resources.files(__package__) / "data" / PRESET_DATA_FILE
        data = json.loads(path.read_text(encoding="utf-8"))
        return network_from_site_data(data, g1=g1, g6=g6, gamma_dp=gamma_dp, gamma_s=gamma_s,
                                      ohmic_fraction=ohmic_fraction, v_g=v_g)
    except (OSError, json.JSONDecodeError, SiteDataError) as exc:
        raise PresetDataError(f"preset data file {PRESET_DATA_FILE!r}: {exc}") from exc


def rebuild_port_losses(net: SiteNetwork, old_wg: WaveguideCoupling,
                        new_wg: WaveguideCoupling) -> SiteNetwork:
    """Recompute per-port Ohmic losses after the port amplitudes change.

    The Ohmic channel follows the waveguide-induced width of each port, so
    retuning g must retune it as well; dephasing and sink channels are left
    untouched. Old port sites that are no longer ports lose their Ohmic term.
    A port site of either coupling that net lacks raises NetworkValidationError.
    """
    for wg in (old_wg, new_wg):
        wg.amplitude_vector(net.n_sites)  # range-checks the ports before they index
    ohmic = np.array(net.loss_breakdown.ohmic)
    ohmic[[site - 1 for site, _ in old_wg.ports + new_wg.ports]] = 0.0
    ohmic += _port_ohmic_losses(new_wg, net.n_sites)
    breakdown = replace(net.loss_breakdown, ohmic=ohmic)
    return replace(net, loss=breakdown.total(), loss_breakdown=breakdown)
