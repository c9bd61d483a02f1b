"""Single-photon transmission spectroscopy of lossy exciton site networks.

Builds scattering spectra for a 1-D waveguide probing a coupled-site
network, applies structural defects, quantifies the spectral changes, and
fits Fano lineshapes to selected windows.
"""

from .model import (
    LossBreakdown,
    NetworkValidationError,
    OHMIC_FRACTION_DEFAULT,
    PresetDataError,
    ProbeGrid,
    SiteDataError,
    SiteNetwork,
    WaveguideCoupling,
    fmo_preset,
    induced_width,
    network_fingerprint,
    network_from_site_data,
    rebuild_port_losses,
    validate_network,
)
from .scattering import (
    FluxLedger,
    PoleError,
    ScatteringSolution,
    Spectrum,
    default_grid,
    effective_hamiltonian,
    solve_closed_form,
    solve_direct,
    sweep_spectrum,
)
from .scenarios import (
    Extremum,
    InhibitCoupling,
    RemoveSite,
    ScenarioError,
    SetPortAmplitudes,
    SpectralDiff,
    apply_defect,
    dip_count,
    find_extrema,
    run_scenario_suite,
    spectral_difference,
)
from .fano import FanoFit, fano_gradient, fano_profile, fit_fano, fit_fano_window
from .config import ConfigError, RunConfig, build_setup, parse_config

__version__ = "0.1.0"

__all__ = [
    "LossBreakdown", "OHMIC_FRACTION_DEFAULT", "PresetDataError", "ProbeGrid",
    "SiteDataError", "SiteNetwork", "WaveguideCoupling", "fmo_preset", "induced_width",
    "network_fingerprint", "network_from_site_data", "rebuild_port_losses", "validate_network",
    "FluxLedger", "NetworkValidationError", "PoleError", "ScatteringSolution",
    "Spectrum", "default_grid", "effective_hamiltonian", "solve_closed_form",
    "solve_direct", "sweep_spectrum",
    "Extremum", "InhibitCoupling", "RemoveSite", "ScenarioError",
    "SetPortAmplitudes", "SpectralDiff", "apply_defect", "dip_count",
    "find_extrema", "run_scenario_suite", "spectral_difference",
    "FanoFit", "fano_gradient", "fano_profile", "fit_fano", "fit_fano_window",
    "ConfigError", "RunConfig", "build_setup", "parse_config",
    "__version__",
]
