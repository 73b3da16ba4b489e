"""Longitudinal wavenumbers, phase-matching resonances and rainbow angles.

A mode is labelled by its frequency omega and the magnitude p of its
transverse wavenumber (p^2 = px^2 + py^2).  All square roots take the
positive real branch; requests that would make any of them imaginary are
rejected as evanescent.

Down-conversion pairs (omega, omega0 - omega) resonate where

    Omega1(p0) + Omega2(p0) = omega0 * mu(omega0)

and up-conversion pairs (omega, omega0 + omega) where

    Omega_up(p0) - Omega1(p0) = omega0 * mu(omega0).

Both residuals are strictly monotone in p on the physical branch, so a
bracketed bisection with a secant polish finds p0 robustly.
"""
import math
from dataclasses import dataclass

from .errors import EvanescentError, GeometryError, GuardBandError, NoResonanceError

BRACKET_SHRINK = 0.999
RESIDUAL_TOL = 1e-12  # relative to omega0

_KINDS = ("pdc", "puc")


@dataclass(frozen=True)
class ModeKinematics:
    """Longitudinal wavenumbers of one (omega, p) mode pair.

    Omega1 / Omega10 are the internal / free-space values at omega;
    Omega2 / Omega20 the same at the partner frequency (omega0 - omega
    for pdc, omega0 + omega for puc).
    """

    omega: float
    partner: float
    p: float
    kind: str
    Omega1: float
    Omega2: float
    Omega10: float
    Omega20: float

    @property
    def theta(self):
        """Exterior angle of the omega mode: asin(p / omega)."""
        return math.asin(self.p / self.omega)

    @property
    def theta_deg(self):
        return math.degrees(self.theta)


@dataclass(frozen=True)
class ResonancePoint(ModeKinematics):
    """ModeKinematics at the phase-matching p = p0, plus the residual left there."""

    residual: float


def partner_frequency(scenario, omega, kind):
    if kind not in _KINDS:
        raise ValueError(f"conjugate kind must be one of {_KINDS}, got {kind!r}")
    return scenario.omega0 - omega if kind == "pdc" else scenario.omega0 + omega


def check_guard_band(scenario, omega):
    """Reject omega within guard_width * omega0 of any multiple of omega0.

    The conjugate frequency omega0 -+ omega sits at the same distance from
    the multiples, so guarding omega guards the pair.
    """
    m = omega / scenario.omega0
    nearest = max(1.0, round(m))
    if abs(m - nearest) <= scenario.guard_width:
        raise GuardBandError(
            f"omega={omega:g} is within {scenario.guard_width:g}*omega0 of "
            f"{int(nearest)}*omega0"
        )


def _mode_pair(cls, omega, partner, p, kind, mu1, mu2, **extra):
    """Build a cls record from the indices at both frequencies.

    Raises EvanescentError if any longitudinal wavenumber is not real.
    """
    values = {}
    for name, field, radicand in (
        ("internal", "Omega1", omega * omega * mu1 * mu1 - p * p),
        ("free-space", "Omega10", omega * omega - p * p),
        ("partner internal", "Omega2", partner * partner * mu2 * mu2 - p * p),
        ("partner free-space", "Omega20", partner * partner - p * p),
    ):
        if radicand <= 0.0:
            raise EvanescentError(
                f"{name} wave at omega={omega:g}, p={p:g} is evanescent"
            )
        values[field] = math.sqrt(radicand)
    return cls(omega=omega, partner=partner, p=p, kind=kind, **values, **extra)


def longitudinal(scenario, omega, p, kind="pdc"):
    """Full ModeKinematics for one (omega, p) pair, or a regime error."""
    if kind not in _KINDS:
        raise ValueError(f"conjugate kind must be one of {_KINDS}, got {kind!r}")
    if omega <= 0.0:
        raise GeometryError("mode frequency must be positive")
    if kind == "pdc" and not omega < scenario.omega0:
        raise GeometryError("down-conversion requires omega < omega0")
    if p < 0.0:
        raise GeometryError("transverse wavenumber magnitude must be >= 0")
    check_guard_band(scenario, omega)
    w2 = partner_frequency(scenario, omega, kind)
    mu1 = scenario.dispersion.mu(omega)
    mu2 = scenario.dispersion.mu(w2)
    return _mode_pair(ModeKinematics, omega, w2, p, kind, mu1, mu2)


def _bisect_with_secant(f, lo, hi, f_lo, f_hi, tol):
    """Bracketed bisection, finished with derivative-free secant steps."""
    a, b, fa, fb = lo, hi, f_lo, f_hi
    for _ in range(200):
        mid = 0.5 * (a + b)
        fm = f(mid)
        if fm == 0.0:
            return mid, 0.0
        if (fa < 0.0) == (fm < 0.0):
            a, fa = mid, fm
        else:
            b, fb = mid, fm
        if b - a <= 1e-15 * max(1.0, abs(b)):
            break
    root, froot = (a, fa) if abs(fa) < abs(fb) else (b, fb)
    x0, x1, f0, f1 = a, b, fa, fb
    for _ in range(8):
        if f1 == f0:
            break
        x2 = x1 - f1 * (x1 - x0) / (f1 - f0)
        if not lo <= x2 <= hi:
            break
        f2 = f(x2)
        x0, f0, x1, f1 = x1, f1, x2, f2
        if abs(f2) < abs(froot):
            root, froot = x2, f2
        if abs(f2) <= tol:
            break
    return root, froot


def _resonance(scenario, omega, kind):
    check_guard_band(scenario, omega)
    w2 = partner_frequency(scenario, omega, kind)
    if kind == "pdc" and not 0.0 < omega < scenario.omega0:
        raise GeometryError("down-conversion requires 0 < omega < omega0")
    if omega <= 0.0:
        raise GeometryError("mode frequency must be positive")
    mu = scenario.dispersion.mu
    target = scenario.pump_wavenumber()
    mu1, mu2 = mu(omega), mu(w2)

    def internal(w, m, p):
        return math.sqrt(w * w * m * m - p * p)

    if kind == "pdc":
        p_max = BRACKET_SHRINK * min(omega, w2)

        def residual(p):
            return internal(omega, mu1, p) + internal(w2, mu2, p) - target

    else:
        p_max = BRACKET_SHRINK * omega

        def residual(p):
            return internal(w2, mu2, p) - internal(omega, mu1, p) - target

    f0, f1 = residual(0.0), residual(p_max)
    if abs(f0) <= RESIDUAL_TOL * scenario.omega0:
        p0, fr = 0.0, f0
    elif (f0 < 0.0) == (f1 < 0.0):
        raise NoResonanceError(
            f"no {kind} phase-matching root for omega={omega:g}: residual "
            f"spans [{f1:.3e}, {f0:.3e}] over p in [0, {p_max:g}]",
            bracket=(0.0, p_max),
        )
    else:
        p0, fr = _bisect_with_secant(
            residual, 0.0, p_max, f0, f1, RESIDUAL_TOL * scenario.omega0
        )
    if abs(fr) > RESIDUAL_TOL * scenario.omega0:
        raise NoResonanceError(
            f"{kind} root polish stalled at residual {fr:.3e} for omega={omega:g}",
            bracket=(0.0, p_max),
        )
    if p0 >= omega:
        raise GeometryError("resonant p0 leaves no exterior angle")
    return _mode_pair(ResonancePoint, omega, w2, p0, kind, mu1, mu2, residual=fr)


def pdc_resonance(scenario, omega):
    """Down-conversion rainbow point for omega (partner omega0 - omega)."""
    return _resonance(scenario, omega, "pdc")


def puc_resonance(scenario, omega):
    """Up-conversion rainbow point for omega (partner omega0 + omega)."""
    return _resonance(scenario, omega, "puc")


def degenerate_closed_forms(mu1, mu2, mu3):
    """Closed-form squared sines of the two rainbow angles at omega0/2.

    mu1, mu2, mu3 are the indices at omega0/2, omega0 and 3*omega0/2.
    Returns (q_d, q_u_exact, q_u_quadratic) where q = sin(theta)^2; the
    quadratic form assumes mu3^2 = mu2^2 - q_d.
    """
    if min(mu1, mu2, mu3) <= 1.0:
        raise GeometryError("refractive indices must exceed 1")
    m1, m2, m3 = mu1 * mu1, mu2 * mu2, mu3 * mu3
    q_d = m1 - m2
    q_u_exact = (36.0 * m1 * m3 - (9.0 * m3 - 4.0 * m2 + m1) ** 2) / (16.0 * m2)
    q_u_quadratic = 6.0 * q_d - 25.0 * q_d * q_d / (4.0 * m2)
    for name, q in (("q_d", q_d), ("q_u", q_u_exact)):
        if not 0.0 <= q < 1.0:
            raise GeometryError(f"{name}={q:g} leaves no real exterior angle")
    return q_d, q_u_exact, q_u_quadratic
