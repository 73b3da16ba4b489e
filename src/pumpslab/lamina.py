"""Linear dielectric slab in the incoherent multiple-reflection approximation.

Only intensity ratios are consumed elsewhere, so the single interface
gives its reflectance r0 alone, the square of the first boundary pass's
reflection amplitude.  Interference between successive internal
reflections is deliberately ignored, which makes the overall slab
coefficients independent of thickness.
"""
import numpy as np

from .errors import GeometryError, SeriesDomainError


def fresnel_step(omega_out, omega_in):
    """Single-interface reflectance r0, the square of the reflection
    amplitude (omega_out - omega_in) / (omega_out + omega_in).

    omega_out is the free-space longitudinal wavenumber, omega_in the
    internal one; both must be positive (propagating regime), which a NaN
    is not, or it is a GeometryError naming the first refused pair.
    Floats or arrays, elementwise.
    """
    good = (omega_out > 0.0) & (omega_in > 0.0)
    if not (good.all() if isinstance(good, np.ndarray) else good):
        first = np.argmin(np.ravel(good))
        out, inside = (np.ravel(w)[first] for w in np.broadcast_arrays(omega_out, omega_in))
        raise GeometryError(f"longitudinal wavenumbers must be positive, got ({out}, {inside})")
    R0 = (omega_out - omega_in) / (omega_out + omega_in)
    return R0 * R0


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
