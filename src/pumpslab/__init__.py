"""pumpslab: scalar model of a pumped nonlinear crystal slab.

Computes down-/up-conversion rainbow angles, boundary-matching
amplitudes, intensity coefficients and zeropoint-subtracted photon
fluxes, together with brute-force oracles that validate every closed
form.  All quantities use c = 1 units.
"""
from .coupled import channel_report, epsilon_roots, quartic_wavenumbers, rainbow_split
from .dispersion import DispersionModel, calibrate_degenerate_angle
from .errors import (
    CalibrationError,
    ConditioningError,
    DegenerateRootError,
    EvanescentError,
    GeometryError,
    GuardBandError,
    NoResonanceError,
    OutOfBandError,
    PumpslabError,
    SeriesDomainError,
    StrongGainError,
    SweepError,
    UndefinedSplitError,
    ValidityWarning,
)
from .kinematics import degenerate_closed_forms, pdc_resonance, puc_resonance
from .lamina import fresnel_step, slab_coefficients
from .oracle import series_sum, thickness_averaged_intensities
from .scenario import CrystalScenario
from .sweep import SweepRequest, compare_oracle, degenerate_rows, run_sweep

__all__ = [
    "channel_report",
    "epsilon_roots",
    "quartic_wavenumbers",
    "rainbow_split",
    "DispersionModel",
    "calibrate_degenerate_angle",
    "CalibrationError",
    "ConditioningError",
    "DegenerateRootError",
    "EvanescentError",
    "GeometryError",
    "GuardBandError",
    "NoResonanceError",
    "OutOfBandError",
    "PumpslabError",
    "SeriesDomainError",
    "StrongGainError",
    "SweepError",
    "UndefinedSplitError",
    "ValidityWarning",
    "degenerate_closed_forms",
    "pdc_resonance",
    "puc_resonance",
    "fresnel_step",
    "slab_coefficients",
    "series_sum",
    "thickness_averaged_intensities",
    "CrystalScenario",
    "SweepRequest",
    "compare_oracle",
    "degenerate_rows",
    "run_sweep",
]

__version__ = "0.1.0"
