"""Linear dielectric slab in the incoherent multiple-reflection approximation.

Amplitudes keep the sign conventions of a first boundary pass (reflection
coefficient negative when the internal wavenumber exceeds the external
one); only intensity ratios are consumed elsewhere.  Interference between
successive internal reflections is deliberately ignored, which makes the
overall slab coefficients independent of thickness.
"""
from dataclasses import dataclass

from .errors import PumpslabError


@dataclass(frozen=True)
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
    internal one; both must be positive (propagating regime).
    """
    if omega_out <= 0.0 or omega_in <= 0.0:
        raise PumpslabError(
            f"longitudinal wavenumbers must be positive, got "
            f"({omega_out}, {omega_in})"
        )
    R0 = (omega_out - omega_in) / (omega_out + omega_in)
    A0 = 2.0 * omega_out / (omega_out + omega_in)
    r0 = R0 * R0
    t0 = A0 * A0 * omega_in / omega_out
    return FresnelStep(R0=R0, A0=A0, r0=r0, t0=t0)


def slab_coefficients(step):
    """Overall slab (r, t) from summing intensities of all internal bounces.

    Closed forms of the geometric series r0 + r0 t0^2 + r0^3 t0^2 + ...;
    thickness drops out and r + t = 1 exactly.
    """
    r0 = step.r0
    r = 2.0 * r0 / (1.0 + r0)
    t = (1.0 - r0) / (1.0 + r0)
    return r, t
