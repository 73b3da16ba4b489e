"""Linear dielectric slab in the incoherent multiple-reflection approximation.

Amplitudes keep the sign conventions of a first boundary pass (reflection
coefficient negative when the internal wavenumber exceeds the external
one); only intensity ratios are consumed elsewhere.  Interference between
successive internal reflections is deliberately ignored, which makes the
overall slab coefficients independent of thickness.
"""
from dataclasses import dataclass

import numpy as np

from .errors import PumpslabError, SeriesDomainError


@dataclass(frozen=True, slots=True)
class FresnelStep:
    """Single-interface amplitudes and the matching intensity coefficients.

    R0, A0: reflected / internal amplitudes for a unit incident wave.
    r0, t0: intensity (Poynting z-ratio) coefficients, r0 + t0 = 1.
    """

    R0: float
    A0: float
    r0: float
    t0: float


def fresnel_step(omega_out, omega_in):
    """First matching step at a single interface.

    omega_out is the free-space longitudinal wavenumber, omega_in the
    internal one; both must be positive (propagating regime), which a NaN
    is not.  Floats or arrays, elementwise.
    """
    return FresnelStep(*_fresnel(omega_out, omega_in))


def _fresnel(omega_out, omega_in):
    """fresnel_step's (R0, A0, r0, t0), on floats or arrays."""
    good = (omega_out > 0.0) & (omega_in > 0.0)
    if not (good.all() if isinstance(good, np.ndarray) else good):
        raise PumpslabError(
            f"longitudinal wavenumbers must be positive, got "
            f"({omega_out}, {omega_in})"
        )
    R0 = (omega_out - omega_in) / (omega_out + omega_in)
    A0 = 2.0 * omega_out / (omega_out + omega_in)
    return R0, A0, R0 * R0, A0 * A0 * omega_in / omega_out


def slab_coefficients(r0):
    """Overall slab (r, t) from fresnel_step's r0, summing all internal bounces.

    Closed forms of the geometric series r0 + r0 t0^2 + r0^3 t0^2 + ...;
    thickness drops out and r + t = 1 exactly.  Floats or arrays,
    elementwise; an r0 outside [0, 1], NaN included, is a SeriesDomainError.
    """
    inside = (0.0 <= r0) & (r0 <= 1.0)
    if not (inside.all() if isinstance(inside, np.ndarray) else inside):
        raise SeriesDomainError(f"r0={np.ravel(r0)[np.argmin(np.ravel(inside))]:g} outside [0, 1]")
    denominator = 1.0 + r0
    return 2.0 * r0 / denominator, (1.0 - r0) / denominator
