"""Pump-coupled mode pairs: wavenumber shifts, intensity coefficients, fluxes.

Inside the pumped slab a mode at omega is coupled to its conjugate at
omega0 - omega (down-conversion) or omega0 + omega (up-conversion).  The
four internal wavenumbers k_r solve a quartic compatibility condition;
for weak coupling two of them sit a small shift eps away from the
uncoupled value and carry all the interesting physics.  The product of
the paired shifts is positive for down-conversion (imaginary shifts on
resonance: gain) and negative for up-conversion (real shifts: the input
beam is attenuated below its zeropoint level).

Intensity bookkeeping follows the incoherent multiple-reflection
approximation of the linear-lamina module, with every pass through the
slab picking up the first-order excess factor gamma.
"""
import cmath
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateRootError,
    EvanescentError,
    GeometryError,
    UndefinedSplitError,
    ValidityWarning,
)
from .kinematics import _resonance
from .lamina import fresnel_step

DETUNING_WARN_FRACTION = 0.01
_SINC_SERIES_CUTOFF = 1e-4


def csinc(z):
    """sin(z)/z on complex arguments, series-evaluated near the origin."""
    z = complex(z)
    if abs(z) < _SINC_SERIES_CUTOFF:
        z2 = z * z
        return 1.0 - z2 / 6.0 + z2 * z2 / 120.0
    return cmath.sin(z) / z


@dataclass(frozen=True)
class EpsilonRoots:
    """Wavenumber shifts of the four internal modes for one working p.

    eps1, eps2 shift the strongly coupled pair away from the uncoupled
    wavenumber; eps1 is the root that vanishes as g -> 0 at fixed
    detuning.  eps3 and eps4 shift the two counter-propagating modes.
    xi = (eps1 - eps2) * l / 2 is purely real (up-conversion) or purely
    imaginary (down-conversion on resonance), so sinc(xi)^2 is real.
    """

    eps1: complex
    eps2: complex
    eps3: float
    eps4: float
    xi: complex
    kind: str
    detuning_sum: float
    product: float

    @property
    def sinc_sq(self):
        s = csinc(self.xi)
        return (s * s).real


def epsilon_roots(scenario, res, p=None):
    """Perturbative wavenumber shifts at working transverse wavenumber p.

    res is the ResonancePoint (its p is the resonant p0); p defaults to
    p0 and must lie in [0, min(omega, partner)), where both free-space
    waves propagate.  Valid for g << 1 and |p - p0| << omega; a
    ValidityWarning is issued beyond |p - p0| = DETUNING_WARN_FRACTION * omega.
    """
    omega, partner, p0 = res.omega, res.partner, res.p
    w1, w2 = res.Omega1, res.Omega2
    if w1 <= 0.0 or w2 <= 0.0:
        raise GeometryError("resonant internal wavenumbers must be positive")
    if p is None:
        p = p0
    if p < 0.0:
        raise GeometryError(f"working p={p:g} is negative")
    if p >= omega or p >= partner:
        raise EvanescentError(
            f"working p={p:g} is evanescent: a free-space wave needs "
            f"p < min(omega, partner) = {min(omega, partner):g}"
        )
    if abs(p - p0) > DETUNING_WARN_FRACTION * omega:
        warnings.warn(
            f"|p - p0| = {abs(p - p0):g} exceeds "
            f"{DETUNING_WARN_FRACTION:g} * omega; shift formulas degrade",
            ValidityWarning,
            stacklevel=2,
        )
    g, w0 = scenario.g, scenario.omega0
    strength = g * g * w0 * w0 * omega * partner
    if res.kind == "pdc":
        detuning = (p - p0) * p0 * (w1 + w2) / (w1 * w2)
        product = strength / (4.0 * w1 * w2)
        eps3 = -strength / (8.0 * (w1 + w2) * w1 * w1)
        eps4 = +strength / (8.0 * (w1 + w2) * w2 * w2)
    else:
        detuning = (p - p0) * p0 * (w2 - w1) / (w1 * w2)
        product = -strength / (4.0 * w1 * w2)
        eps3 = +strength / (8.0 * (w2 - w1) * w1 * w1)
        eps4 = -strength / (8.0 * (w2 - w1) * w2 * w2)
    root = cmath.sqrt(detuning * detuning - 4.0 * product)
    cand = ((detuning + root) / 2.0, (detuning - root) / 2.0)
    a0, a1 = abs(cand[0]), abs(cand[1])
    if abs(a0 - a1) > 1e-12 * max(a0, a1, 1e-300):
        eps1, eps2 = cand if a0 < a1 else (cand[1], cand[0])
    else:
        # symmetric pair: put the +imaginary (or +real) branch first
        key = (cand[0].imag, cand[0].real)
        eps1, eps2 = cand if key >= (cand[1].imag, cand[1].real) else (cand[1], cand[0])
    xi = (eps1 - eps2) * scenario.l / 2.0
    return EpsilonRoots(
        eps1=eps1,
        eps2=eps2,
        eps3=eps3,
        eps4=eps4,
        xi=xi,
        kind=res.kind,
        detuning_sum=detuning,
        product=product,
    )


def quartic_coefficients(scenario, kin):
    """Coefficients of (k^2 - A)((k + sign K0)^2 - B) - G, highest power first.

    Returns (coeffs, K0, A, B, G, sign) with A = Omega1^2, B = Omega2^2,
    G = g^2 omega0^2 omega partner the coupling strength and sign = -1 for
    down-conversion, +1 for up-conversion (the conjugate wave is carried
    against / along the pump phase respectively).
    """
    K0 = scenario.pump_wavenumber()
    A = kin.Omega1**2
    B = kin.Omega2**2
    G = scenario.g**2 * scenario.omega0**2 * kin.omega * kin.partner
    sign = -1.0 if kin.kind == "pdc" else 1.0
    coeffs = [
        1.0,
        2.0 * sign * K0,
        K0 * K0 - B - A,
        -2.0 * A * sign * K0,
        -A * (K0 * K0 - B) - G,
    ]
    return coeffs, K0, A, B, G, sign


def quartic_wavenumbers(scenario, kin):
    """The four exact internal wavenumbers, sorted to match the anchors.

    Roots of (k^2 - Omega1^2)((k -+ K0)^2 - Omega2^2) = strength, with the
    pump wavenumber K0 entering with a minus sign for down-conversion and
    a plus sign for up-conversion (see quartic_coefficients).  Returned as
    [k1, k2, k3, k4] where k1, k2 hug +Omega1, k3 hugs -Omega1 and k4 is
    the far counter-propagating partner root.
    """
    coeffs, K0 = quartic_coefficients(scenario, kin)[:2]
    roots = np.roots(coeffs)
    # uncoupled wavenumbers the four roots collapse to at g = 0
    a12, a3 = kin.Omega1, -kin.Omega1
    a4 = K0 + kin.Omega2 if kin.kind == "pdc" else -(K0 + kin.Omega2)
    scale = max(abs(a12), abs(a4))

    order4 = sorted(range(4), key=lambda i: abs(roots[i] - a4))
    gap4 = abs(abs(roots[order4[0]] - a4) - abs(roots[order4[1]] - a4))
    k4 = roots[order4[0]]
    rest = [roots[i] for i in order4[1:]]
    order3 = sorted(range(3), key=lambda i: abs(rest[i] - a3))
    gap3 = abs(abs(rest[order3[0]] - a3) - abs(rest[order3[1]] - a3))
    k3 = rest[order3[0]]
    pair = [rest[i] for i in order3[1:]]
    if min(gap4, gap3) < 1e-12 * scale:
        alt = np.array([pair[0], pair[1], rest[order3[1]], roots[order4[1]]])
        raise DegenerateRootError(
            "two quartic roots are equidistant from the sorting anchors",
            assignments=(np.array([pair[0], pair[1], k3, k4]), alt),
        )
    d0, d1 = abs(pair[0] - a12), abs(pair[1] - a12)
    if abs(d0 - d1) > 1e-12 * max(d0, d1, 1e-300):
        k1, k2 = (pair[0], pair[1]) if d0 < d1 else (pair[1], pair[0])
    else:
        key0 = ((pair[0] - a12).imag, (pair[0] - a12).real)
        key1 = ((pair[1] - a12).imag, (pair[1] - a12).real)
        k1, k2 = (pair[0], pair[1]) if key0 >= key1 else (pair[1], pair[0])
    return np.array([k1, k2, k3, k4])


@dataclass(frozen=True)
class ChannelReport:
    """Intensity coefficients and zeropoint-subtracted fluxes for one pair.

    Fluxes are photon numbers per unit area per unit zeropoint input;
    flux_omega combines the idler at omega with the signal generated by
    the conjugate input, flux_partner the same for the other channel.
    For up-conversion flux_partner is negative: that channel stays below
    the zeropoint level and triggers no detections.
    """

    omega: float
    partner: float
    kind: str
    gamma: float
    r10: float
    r20: float
    r1: float
    t1: float
    r2: float
    t2: float
    n_idler: float
    n_signal: float
    flux_omega: float
    flux_partner: float
    ratio: float

    def flux_identity_terms(self):
        """(excess, partner side, gamma / (1 + r10)) of the flux identity.

        The excess t1 + r1 - 1 is sign-flipped for up-conversion; both
        sides equal the third term to first order in gamma.
        """
        excess = self.t1 + self.r1 - 1.0
        if self.kind == "puc":
            excess = -excess
        partner_side = (self.omega / self.partner) * (self.t2 + self.r2)
        return excess, partner_side, self.gamma / (1.0 + self.r10)

    def identity_residual(self):
        """Relative residual of the single-pair flux identity."""
        lhs, mid, rhs = self.flux_identity_terms()
        scale = max(abs(rhs), 1e-300)
        return max(abs(lhs - rhs), abs(mid - rhs)) / scale


def channel_report(scenario, omega, kind="pdc", p=None):
    """Full intensity/flux report for the (omega, conjugate) pair.

    Resonance geometry is solved first; p (default: the resonant p0)
    detunes the coupled-pair shifts without moving the rainbow angles.
    """
    return resonance_report(scenario, _resonance(scenario, omega, kind), p)


def resonance_report(scenario, res, p):
    """channel_report for an already solved ResonancePoint res.

    p is the working transverse wavenumber, or None for the resonant p0.
    Raises UndefinedSplitError where the partner flux vanishes.
    """
    eps = epsilon_roots(scenario, res, p=p)
    omega, partner, kind = res.omega, res.partner, res.kind
    g, l, w0 = scenario.g, scenario.l, scenario.omega0
    w1, w2, w10, w20 = res.Omega1, res.Omega2, res.Omega10, res.Omega20
    gamma = (
        g * g * l * l * w0 * w0 * omega * partner / (4.0 * w1 * w2) * eps.sinc_sq
    )
    r10 = fresnel_step(w10, w1).r0
    r20 = fresnel_step(w20, w2).r0
    sign = 1.0 if kind == "pdc" else -1.0
    r1 = 2.0 * r10 / (1.0 + r10) + sign * gamma * r10 / (1.0 + r10) ** 2
    t1 = (1.0 - r10) / (1.0 + r10) + sign * gamma / (1.0 + r10) ** 2
    freq_ratio = partner / omega
    r2 = freq_ratio * gamma * r20 / ((1.0 + r10) * (1.0 + r20))
    t2 = freq_ratio * gamma / ((1.0 + r10) * (1.0 + r20))
    n_idler = (t1 + r1 - 1.0) / 2.0
    n_signal = (t2 + r2) * w10 / (2.0 * w20)
    cos_ratio = (w20 / partner) / (w10 / omega)
    if kind == "pdc":
        bracket_omega = 1.0 / (1.0 + r10) + cos_ratio / (1.0 + r20)
        bracket_partner = 1.0 / (1.0 + r20) + (1.0 / cos_ratio) / (1.0 + r10)
    else:
        bracket_omega = cos_ratio / (1.0 + r20) - 1.0 / (1.0 + r10)
        bracket_partner = (1.0 / cos_ratio) / (1.0 + r10) - 1.0 / (1.0 + r20)
    if bracket_partner == 0.0:
        raise UndefinedSplitError(
            f"{kind} flux ratio undefined at omega={omega:g}: the partner flux "
            "vanishes (collinear resonance, equal Fresnel steps)"
        )
    return ChannelReport(
        omega=omega,
        partner=partner,
        kind=kind,
        gamma=gamma,
        r10=r10,
        r20=r20,
        r1=r1,
        t1=t1,
        r2=r2,
        t2=t2,
        n_idler=n_idler,
        n_signal=n_signal,
        flux_omega=0.5 * gamma * bracket_omega,
        flux_partner=0.5 * gamma * bracket_partner,
        ratio=bracket_omega / bracket_partner,
    )


def rainbow_split(report):
    """(forward, backward) shares of the total outgoing intensity.

    The forward rainbow carries (t1, t2), the backward one (r1, r2);
    without pump-induced excess there is no rainbow to split.
    """
    if report.gamma == 0.0:
        raise UndefinedSplitError("no pump-induced excess; split undefined")
    forward = report.t1 + report.t2
    backward = report.r1 + report.r2
    total = forward + backward
    return forward / total, backward / total
