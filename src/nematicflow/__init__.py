"""Pseudo-spectral Ericksen-Leslie nematic solver with energy-law verification."""

__version__ = "0.1.0"  # the only copy: pyproject.toml reads it from here

from .coeffs import (DissipationForm, LeslieCoefficients, RegimeReport,
                     dissipation_form, eta_margin, from_alpha, validate)
from .diagnostics import (BlowupMonitorState, EnergyReport,
                          case2_lower_bound_check, channels, energy_law_audit,
                          quantity_A, quantity_Ys, total_energy,
                          write_timeseries)
from .errors import BlowUpError, ConfigError, ParameterError, RegimeError
from .physics import (ConstitutiveBundle, FieldState, RegularizationConfig,
                      constitutive, director_rhs, ericksen_stress,
                      leslie_stress, momentum_rhs, penalty)
from .solver import (Stepper, TimeStepperConfig, Trajectory,
                     reconstruct_pressure, run, step)
from .spectral import (SpectralGrid, load_snapshot, random_band_limited,
                       save_snapshot)

__all__ = [
    "BlowUpError", "BlowupMonitorState", "ConfigError", "ConstitutiveBundle",
    "DissipationForm", "EnergyReport", "FieldState", "LeslieCoefficients",
    "ParameterError", "RegimeError", "RegimeReport", "RegularizationConfig",
    "SpectralGrid", "Stepper", "TimeStepperConfig", "Trajectory",
    "case2_lower_bound_check", "channels", "constitutive",
    "director_rhs", "dissipation_form", "energy_law_audit", "ericksen_stress",
    "eta_margin", "from_alpha", "leslie_stress", "load_snapshot",
    "momentum_rhs", "penalty", "quantity_A", "quantity_Ys",
    "random_band_limited", "reconstruct_pressure", "run", "save_snapshot",
    "step", "total_energy", "validate", "write_timeseries",
]
