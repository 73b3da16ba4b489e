"""pumpslab: scalar model of a pumped nonlinear crystal slab.

Computes down-/up-conversion rainbow angles, boundary-matching
amplitudes, intensity coefficients and zeropoint-subtracted photon
fluxes, together with brute-force oracles that validate every closed
form.  All quantities use c = 1 units.
"""
from .coupled import (
    ChannelReport,
    EpsilonRoots,
    channel_report,
    csinc,
    epsilon_roots,
    quartic_wavenumbers,
    rainbow_split,
)
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
    SweepError,
    UndefinedSplitError,
    ValidityWarning,
)
from .kinematics import (
    ModeKinematics,
    ResonancePoint,
    degenerate_closed_forms,
    longitudinal,
    partner_frequency,
    pdc_resonance,
    puc_resonance,
)
from .lamina import FresnelStep, fresnel_step, slab_coefficients
from .oracle import (
    BoundarySystem,
    ScatterSolution,
    build_boundary_system,
    exact_solve,
    poynting_intensities,
    series_sum,
    thickness_averaged_intensities,
)
from .scenario import CrystalScenario
from .sweep import SweepRequest, compare_oracle, degenerate_rows, run_sweep

__all__ = [
    "ChannelReport",
    "EpsilonRoots",
    "ScatterSolution",
    "channel_report",
    "csinc",
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
    "SweepError",
    "UndefinedSplitError",
    "ValidityWarning",
    "ModeKinematics",
    "ResonancePoint",
    "degenerate_closed_forms",
    "longitudinal",
    "partner_frequency",
    "pdc_resonance",
    "puc_resonance",
    "FresnelStep",
    "fresnel_step",
    "slab_coefficients",
    "BoundarySystem",
    "build_boundary_system",
    "exact_solve",
    "poynting_intensities",
    "series_sum",
    "thickness_averaged_intensities",
    "CrystalScenario",
    "SweepRequest",
    "compare_oracle",
    "degenerate_rows",
    "run_sweep",
]

__version__ = "0.1.0"
