"""Pseudo-spectral Ericksen-Leslie nematic solver with energy-law verification."""

__version__ = "0.1.0"  # the only copy: pyproject.toml reads it from here

from .coeffs import (DissipationForm, LeslieCoefficients, RegimeReport,
                     dissipation_form, eta_margin, from_alpha, validate)
from .diagnostics import (BlowupMonitorState, EnergyReport,
                          case2_lower_bound_check, channels, energy_law_audit,
                          write_timeseries)
from .errors import BlowUpError, ConfigError, ParameterError, RegimeError
from .physics import (ConstitutiveBundle, FieldState, RegularizationConfig,
                      constitutive, penalty, rhs_hat)
from .solver import Stepper, TimeStepperConfig, Trajectory, run
from .spectral import (SpectralGrid, load_snapshot, random_band_limited,
                       save_snapshot)

__all__ = [
    "BlowUpError", "BlowupMonitorState", "ConfigError", "ConstitutiveBundle",
    "DissipationForm", "EnergyReport", "FieldState", "LeslieCoefficients",
    "ParameterError", "RegimeError", "RegimeReport", "RegularizationConfig",
    "SpectralGrid", "Stepper", "TimeStepperConfig", "Trajectory",
    "case2_lower_bound_check", "channels", "constitutive",
    "dissipation_form", "energy_law_audit", "eta_margin",
    "from_alpha", "load_snapshot", "penalty", "random_band_limited",
    "rhs_hat", "run", "save_snapshot", "validate", "write_timeseries",
]
