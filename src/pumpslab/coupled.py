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

Shifts (_shifts) and reports (_reports, csinc included) are function
bodies over mode pairs (_Pairs): one array per field plus a status per
pair.  _tabulate runs a body on numpy arrays or on Python floats, one
resonance at a time; kinematics owns that choice and the primitives that
differ between the two.  The sweep and oracle tables tabulate the pairs of
a resonance grid, and the scalar epsilon_roots and channel_report run the
bodies on the floats of one pair.  Either way every element carries the
bits a scalar evaluation in the same operation order would give.
"""
import math
import sys
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    DegenerateRootError,
    EvanescentError,
    GeometryError,
    StrongGainError,
    UndefinedSplitError,
    ValidityWarning,
)
from .kinematics import (EVANESCENT, GEOMETRY, OK, SKIP_REASONS, _ARRAYS, _on,
                         _resonance, _small, _stack, kind_sign)
from .lamina import fresnel_step, slab_coefficients

DETUNING_WARN_FRACTION = 0.01
_SINC_SERIES_CUTOFF = 1e-4
_SINC_MAX_IMAG = 700.0  # sin(z) ~ e^|Im z| / 2 overflows a float near 710.5
UNDEFINED_RATIO = len(SKIP_REASONS)  # report-stage status: no partner flux
STATUS_REASONS = SKIP_REASONS + ("undefined_ratio",)
_DBL_MIN = sys.float_info.min  # a Python float: its comparisons stay fast on floats


def csinc(z):
    """sin(z)/z of complex z, floats or arrays, series-evaluated near the
    origin.  Each step is CPython's complex arithmetic written in real
    parts, so an element carries the same bits on both; a StrongGainError
    names the first element with |Im z| > _SINC_MAX_IMAG, before sin(z)
    can overflow."""
    on, x, y = _on(z), z.real, z.imag
    if on.any(bad := abs(y) > _SINC_MAX_IMAG):
        raise StrongGainError(f"sinc of xi={complex(np.ravel(z)[np.argmax(bad)]):g} "
                              f"overflows: |Im xi| exceeds {_SINC_MAX_IMAG:g}")
    series = on.cabs(z) < _SINC_SERIES_CUTOFF
    zr, zi = x * x - y * y, x * y + y * x  # z * z
    sr, si = (s := on.csin(z)).real, s.imag
    by_real = abs(x) >= abs(y)  # the quotient divides through by the larger part
    big, small = on.where(by_real, x, y), on.where(by_real, y, x)
    big = on.where(big == 0.0, 1.0, big)  # only at z = 0, in the series, or beside a NaN
    ratio = small / big
    denom = big + small * ratio
    re = on.where(series, 1.0 - zr / 6.0 + (zr * zr - zi * zi) / 120.0,
                  on.where(by_real, sr + si * ratio, sr * ratio + si) / denom)
    im = on.where(series, 0.0 - zi / 6.0 + (zr * zi + zi * zr) / 120.0,
                  on.where(by_real, si - sr * ratio, si * ratio - sr) / denom)
    return (re + 0j).conjugate() + im * complex(-0.0, 1.0)  # re + 1j * im loses -0.0


def _sinc_sq(xi):
    s, on = csinc(xi), _on(xi)
    value = s.real * s.real - s.imag * s.imag
    if on.any(bad := on.where(on.all_finite((value,)), False, True)):
        raise StrongGainError(f"sinc(xi)^2 is not finite at "
                              f"xi={complex(np.ravel(xi)[np.argmax(bad)]):g}")
    return value


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
        return _sinc_sq(self.xi)


class _Pairs(NamedTuple):
    """Resonant mode pairs: floats for one pair, 1-d arrays for several.

    sign is the kind's kind_sign, +1 for pdc and -1 for puc; every
    wavenumber is positive.  _shifts and _reports also take one pair as a
    plain sequence of floats in this field order.
    """

    omega: object
    partner: object
    sign: object
    p0: object
    Omega1: object
    Omega2: object
    Omega10: object
    Omega20: object

    @classmethod
    def of_record(cls, kin):
        """The one mode pair of record kin, as floats; a GeometryError unless
        its frequencies and wavenumbers are positive, which a NaN is not."""
        if not (kin.omega > 0.0 and kin.partner > 0.0 and kin.Omega1 > 0.0
                and kin.Omega2 > 0.0 and kin.Omega10 > 0.0 and kin.Omega20 > 0.0):
            raise GeometryError(f"frequencies, resonant internal wavenumbers and their "
                                f"free-space values must be positive, got {kin!r}")
        return cls(kin.omega, kin.partner, kind_sign(kin.kind), kin.p,
                   kin.Omega1, kin.Omega2, kin.Omega10, kin.Omega20)

    @classmethod
    def of_grid(cls, grid, elements):
        """The mode pairs of grid's flat elements, each a resonance (status
        OK), as 1-d arrays in the order of elements."""
        k, i = np.divmod(elements, grid.omega.size)
        signs = np.array([kind_sign(kind) for kind in grid.kinds])
        rest = np.array([grid.partner, grid.p, grid.Omega1, grid.Omega2,
                         grid.Omega10, grid.Omega20]).reshape(6, -1)[:, elements]
        return cls(grid.omega[i], rest[0], signs[k], *rest[1:])


def _shift_pair(detuning, disc, l):
    """(eps1, eps2, xi) from the detuning sum and the real discriminant.

    The shifts are (detuning +- sqrt(disc)) / 2; eps1 is the one of smaller
    modulus, or for moduli equal to 1e-12 relative (a symmetric pair) the
    +imaginary, then +real, one.  Every element carries the bits of the
    same steps on Python complexes, because each step is the float
    arithmetic CPython performs:
    - cmath.sqrt of a real disc is sqrt(|disc|) in the real part (disc >= 0)
      or the imaginary part, except that it takes the root of 8 * (|disc|
      / 8), which rounds where |disc| lies in [DBL_MIN, 8 DBL_MIN); below
      DBL_MIN it rescales exactly instead.
    - numpy's complex +, -, * and / by a float round as Python's do.
    - abs() of a complex is the primitives' cabs.
    - On a tie the + root leads: a complex pair's moduli are equal and its
      + root is the +imaginary one; a real pair's + root is the larger.
    On floats the steps run on Python complexes themselves.
    """
    on = _on(disc)
    size = abs(disc)
    s = on.sqrt(size)
    if on.any(size < 8.0 * _DBL_MIN):
        s = on.sqrt(on.where(size < _DBL_MIN, size, size / 8.0 * 8.0))
    root = on.where(disc >= 0.0, s + 0j, 1j * s)
    plus, minus = (detuning + root) / 2.0, (detuning - root) / 2.0
    a_plus, a_minus = on.cabs(plus), on.cabs(minus)
    swap = a_plus - a_minus > 1e-12 * on.maximum(a_plus, 1e-300)
    eps1, eps2 = on.where(swap, minus, plus), on.where(swap, plus, minus)
    return eps1, eps2, (eps1 - eps2) * l / 2.0


def _shifts(scenario, pairs, p):
    """Status, detuned and EpsilonRoots columns (but kind) of mode pairs at
    working p, on floats or arrays.

    Status per element: GEOMETRY for a negative or NaN p, else EVANESCENT
    for p >= min(omega, partner), else OK.  An element whose p lies
    farther than omega from p0, never OK, computes its shifts at p0, so
    that no overflow or NaN reaches the arithmetic.  detuned is |p - p0|
    where an OK element lies beyond DETUNING_WARN_FRACTION * omega, else
    0.0.
    """
    on = _on(p)
    omega, partner, sign, p0, w1, w2 = pairs[:6]
    status = on.where(p >= 0.0, on.where((p >= omega) | (p >= partner), EVANESCENT, OK),
                      GEOMETRY)
    offset = abs(p - p0)
    detuned = on.where((status == OK) & (offset > DETUNING_WARN_FRACTION * omega),
                       offset, 0.0)
    p = on.where(offset <= omega, p, p0)
    g, w0 = scenario.g, scenario.omega0
    strength = g * g * w0 * w0 * omega * partner
    arm = w2 + sign * w1  # w1 + w2 for pdc, w2 - w1 for puc
    detuning = (p - p0) * p0 * arm / (w1 * w2)
    signed = sign * strength
    product = signed / (4.0 * w1 * w2)
    disc = detuning * detuning - 4.0 * product
    eps1, eps2, xi = _shift_pair(detuning, disc, scenario.l)
    arm8 = 8.0 * arm
    # 0 below omega0 ~ 1e-108: a NaN shift, not a ZeroDivisionError on floats
    far1, far2 = arm8 * w1 * w1, arm8 * w2 * w2
    return status, detuned, {
        "eps1": eps1, "eps2": eps2, "eps3": -signed / on.where(far1 == 0.0, math.nan, far1),
        "eps4": signed / on.where(far2 == 0.0, math.nan, far2), "xi": xi,
        "detuning_sum": detuning, "product": product,
    }


def _finite_shifts(scenario, pair, p):
    """_shifts of one pair, on floats, refusing an OK pair whose shifts are
    not finite with a StrongGainError naming its omega: where g^2 omega0^2
    omega partner overflows, or where eps3 and eps4 divide by an 8 arm
    Omega^2 that underflows to 0."""
    status, detuned, columns = _shifts(scenario, pair, p)
    if status == OK and not all(math.isfinite(part) for column in columns.values()
                                for part in (column.real, column.imag)):
        raise StrongGainError(f"wavenumber shifts are not finite at omega={pair[0]:g}: "
                              f"product={columns['product']:g}")
    return status, detuned, columns


def _tabulate(build, scenario, pairs, p, stacklevel=2):
    """build's (status, columns) of mode pairs at working p, with one
    ValidityWarning for every in-range pair with |p - p0| >
    DETUNING_WARN_FRACTION * omega, raised stacklevel frames up: a public
    entry point passes the depth that names its own caller.

    Floats give floats.  Arrays run build once, as silently as floats
    overflow, or, where kinematics finds them _small, once per pair on its
    Python floats, the results stacked back into arrays.
    """
    if not isinstance(p, np.ndarray):
        status, detuned, columns = build(scenario, pairs, p)
    elif _small(p.size):
        status, detuned, fields = zip(*(
            build(scenario, pair, q)
            for *pair, q in zip(*(column.tolist() for column in pairs), p.tolist())))
        status, *values = _stack((status, *zip(*(f.values() for f in fields))), p.shape)
        columns, detuned = dict(zip(fields[0], values)), max(detuned)
    else:
        with _ARRAYS.quiet():
            status, detuned, columns = build(scenario, pairs, p)
        detuned = detuned.max(initial=0.0)
    if detuned:
        warnings.warn(
            f"|p - p0| = {detuned:g} exceeds {DETUNING_WARN_FRACTION:g} * omega; "
            "shift formulas degrade",
            ValidityWarning,
            stacklevel=stacklevel,
        )
    return status, columns


def _one_pair(record, build, scenario, res, p):
    """record (EpsilonRoots or ChannelReport) of the one mode pair of record
    res at working p (None: its p0): build's columns, and res's fields for
    the rest.  A skip status raises its typed error."""
    p = res.p if p is None else float(p)
    # the caller of epsilon_roots or channel_report, which call _one_pair
    status, values = _tabulate(build, scenario, _Pairs.of_record(res), p, stacklevel=4)
    if status == GEOMETRY:
        raise GeometryError(f"working p={p:g} is " + ("negative" if p < 0.0
                                                      else "not a number"))
    if status == EVANESCENT:
        raise EvanescentError(
            f"working p={p:g} is evanescent: a free-space wave needs "
            f"p < min(omega, partner) = {min(res.omega, res.partner):g}"
        )
    if status == UNDEFINED_RATIO:
        raise UndefinedSplitError(
            f"{res.kind} flux ratio undefined at omega={res.omega:g}: the partner "
            "flux vanishes (collinear resonance, equal Fresnel steps)"
        )
    return record(**{name: values[name] if name in values else getattr(res, name)
                     for name in record.__dataclass_fields__})


def epsilon_roots(scenario, res, p=None):
    """Perturbative wavenumber shifts at working transverse wavenumber p.

    res is the ResonancePoint (its p is the resonant p0); p defaults to
    p0 and must lie in [0, min(omega, partner)), where both free-space
    waves propagate.  Valid for g << 1 and |p - p0| << omega; a
    ValidityWarning is issued beyond |p - p0| = DETUNING_WARN_FRACTION * omega.
    A NaN p is a GeometryError, and shifts that are not finite a
    StrongGainError.  _shifts' arithmetic, which compare_oracle tabulates
    over the pairs of a grid, on the floats of one pair.
    """
    return _one_pair(EpsilonRoots, _finite_shifts, scenario, res, p)


def _quartic(scenario, pairs):
    """(coeffs, K0, A, B, G, sign) of the quartic (k^2 - A)((k - sign K0)^2
    - B) - G of the _Pairs pairs, floats for one or 1-d columns for several.

    coeffs, highest power first, are a row (5,) or rows (n, 5), as
    _quartic_roots takes them; A = Omega1^2 and B = Omega2^2, G = g^2
    omega0^2 omega partner the coupling strength, bit for bit _shifts', and
    sign the kind_sign: +1 for pdc, whose conjugate wave is carried against
    the pump phase, -1 for puc, carried along it.  A coefficient outside the
    float range, A and B included, is a StrongGainError.
    """
    omega, partner, sign, _, w1, w2 = pairs[:6]
    K0, on = scenario.pump_wavenumber(), _on(w1)
    with on.quiet():
        A, B = w1 * w1, w2 * w2
        G = scenario.g * scenario.g * scenario.omega0 * scenario.omega0 * omega * partner
        coeffs = [-2.0 * sign * K0, K0 * K0 - B - A, 2.0 * A * sign * K0,
                  -A * (K0 * K0 - B) - G]
    if on.any(bad := on.where(on.all_finite(coeffs), False, True)):
        raise StrongGainError(f"quartic coefficients overflow at omega="
                              f"{np.ravel(omega)[np.argmax(bad)]:g}")
    return np.array([np.ones_like(A), *coeffs]).T, K0, A, B, G, sign


def _quartic_roots(coeffs):
    """The roots of each row of (n, 5) quartic coefficients, as an (n, 4)
    complex array, for the exact oracle: the eigenvalues of the stacked
    companion matrices from one batched call, row by row np.roots' values and
    order.  Every row needs a nonzero leading and constant coefficient."""
    coeffs = np.asarray(coeffs, dtype=float).reshape(-1, 5)
    companion = np.zeros((len(coeffs), 4, 4))
    companion[:, 0] = -coeffs[:, 1:] / coeffs[:, :1]
    companion[:, 1:, :3] = np.eye(3)
    return np.linalg.eigvals(companion).astype(complex)


def quartic_wavenumbers(scenario, kin):
    """The four exact internal wavenumbers [k1, k2, k3, k4] of the mode pair
    record kin, _anchored_roots of the record alone: k1 and k2 hug +Omega1,
    k3 hugs -Omega1 and k4 is the far counter-propagating partner root."""
    pair = _Pairs.of_record(kin)._replace(p0=0.0)  # zero detuning, as at any p = p0 >= 0
    _, K0, _, _, G, _ = _quartic(scenario, pair)
    start = {name: np.array([v]) for name, v in _shifts(scenario, pair, 0.0)[2].items()}
    return _anchored_roots(K0, _Pairs(*np.array([pair]).T), G, start)[0][:, 0]


_ROOT_STEPS = 6  # Newton steps of every anchored root: no convergence test


def _anchored_roots(K0, pairs, G, start):
    """(k, x), each (4, n): the roots k1..k4 of mode pairs' quartics (see
    _quartic) and their offsets x from the anchors (Omega1, Omega1, -Omega1,
    sign (K0 + Omega2)), by _ROOT_STEPS Newton steps from start's eps1..eps4
    (_shifts' columns) at strength G.  The quartic is prod_j (k - z_j) - G, z =
    (Omega1, -Omega1, sign (K0 + Omega2), Omega1 - d), d = Omega1 + sign Omega2
    - sign K0 by a two-sum; root anchor + x has the factors c + x, c = anchor -
    z, all in units of Omega1, so none leaves the float range.  The steps are
    elementwise, and one that is not finite is not taken.  Two roots that meet
    (equal, or equal pair offsets) are a DegenerateRootError, but for the pair's
    genuine double root at G = 0.
    """
    w1, w2, sign = pairs.Omega1, pairs.Omega2, pairs.sign
    t = w1 + sign * w2
    tail = t - w1
    d = (t - sign * K0) + ((w1 - (t - tail)) + (sign * w2 - tail))  # t - sign K0 is exact
    anchors = np.array([w1, w1, -w1, sign * (K0 + w2)])
    r, a, G = d / w1, anchors / w1, G / w1 / w1 / w1 / w1  # a is exactly (1, 1, -1, f)
    c = np.array([a - 1.0, a + 1.0, a - a[3], a - 1.0 + r])  # c[j]: factor j of each root
    x = np.array([start["eps1"], start["eps2"], start["eps3"], start["eps4"]]) / w1
    with _ARRAYS.quiet():  # a zero slope or an overflow gives a step that is not taken
        for _ in range(_ROOT_STEPS):
            f0, f1, f2, f3 = c + x
            f01, f23 = f0 * f1, f2 * f3
            step = (f01 * f23 - G) / ((f0 + f1) * f23 + f01 * (f2 + f3))
            np.subtract(x, step, out=x, where=np.isfinite(step))
    x = x * w1
    k = anchors + x
    met = (k[:, None] == k)[[0, 0, 0, 1, 1, 2], [1, 2, 3, 2, 3, 3]]  # (k1, k2) first
    met[0] = (x[0] == x[1]) & (G != 0.0)
    if met.any():
        raise DegenerateRootError(f"two quartic roots meet at omega="
                                  f"{pairs.omega[np.argmax(met.any(axis=0))]:g}")
    return k, x


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
        """_flux_identity of this report."""
        return _flux_identity(kind_sign(self.kind), self.omega, self.partner, self.t1,
                              self.r1, self.t2, self.r2, self.gamma, self.r10)

    def identity_residual(self):
        """Relative residual of the single-pair flux identity."""
        lhs, mid, rhs = self.flux_identity_terms()
        scale = max(abs(rhs), 1e-300)
        return max(abs(lhs - rhs), abs(mid - rhs)) / scale


def _flux_identity(sign, omega, partner, t1, r1, t2, r2, gamma, r10):
    """(excess, partner side, gamma / (1 + r10)) of the flux identity, on
    floats or arrays: the excess t1 + r1 - 1 is sign-flipped for up-conversion
    (sign, the kind's kind_sign), and both sides equal gamma / (1 + r10) to
    first order in gamma."""
    return sign * (t1 + r1 - 1.0), (omega / partner) * (t2 + r2), gamma / (1.0 + r10)


def _reports(scenario, pairs, p):
    """Status, detuned (see _shifts) and report columns of mode pairs at
    working p, on floats or arrays.

    The coupled pair's status, with UNDEFINED_RATIO where the partner flux
    vanishes; the columns are ChannelReport's fields, plus the forward
    share of rainbow_split (meaningful where gamma > 0).  Elementwise
    arithmetic in scalar order, as in _shifts; sinc(xi)^2 is taken
    on OK elements only, and at xi = 0 elsewhere.
    """
    status, detuned, shifts = _shifts(scenario, pairs, p)
    on = _on(status)
    omega, partner, sign, _, w1, w2, w10, w20 = pairs
    g, l, w0 = scenario.g, scenario.l, scenario.omega0
    ok = status == OK
    sinc_sq = _sinc_sq(on.where(ok, shifts["xi"], 0j))
    # a gain past the float range leaves inf or nan cells, refused below
    gamma = g * g * l * l * w0 * w0 * omega * partner / (4.0 * w1 * w2) * sinc_sq
    r10, r20 = fresnel_step(w10, w1), fresnel_step(w20, w2)
    slab_r, slab_t = slab_coefficients(r10)  # the uncoupled slab
    pass10, pass20 = 1.0 + r10, 1.0 + r20
    r1 = slab_r + sign * gamma * r10 / (pass10 * pass10)
    t1 = slab_t + sign * gamma / (pass10 * pass10)
    freq_ratio = partner / omega
    r2 = freq_ratio * gamma * r20 / (pass10 * pass20)
    t2 = freq_ratio * gamma / (pass10 * pass20)
    cos_ratio = (w20 / partner) / (w10 / omega)
    # pdc adds the two terms of each bracket, puc subtracts one from the other
    bracket_omega = cos_ratio / pass20 + sign / pass10
    bracket_partner = (1.0 / cos_ratio) / pass10 + sign / pass20
    undefined = bracket_partner == 0.0
    status = on.where(undefined & ok, UNDEFINED_RATIO, status)
    ratio = bracket_omega / on.where(undefined, math.nan, bracket_partner)
    columns = dict(
        gamma=gamma, r10=r10, r20=r20, r1=r1, t1=t1, r2=r2, t2=t2,
        n_idler=(t1 + r1 - 1.0) / 2.0, n_signal=(t2 + r2) * w10 / (2.0 * w20),
        flux_omega=0.5 * gamma * bracket_omega,
        flux_partner=0.5 * gamma * bracket_partner,
        ratio=ratio, forward_fraction=_split(t1, t2, r1, r2)[0],
    )
    if on.any(bad := on.where(on.all_finite(columns.values()), False, status == OK)):
        j = np.argmax(bad)
        raise StrongGainError(f"channel report overflows at omega="
                              f"{np.ravel(omega)[j]:g}: gamma={np.ravel(gamma)[j]:g}")
    return status, detuned, columns


def channel_report(scenario, omega, kind="pdc", p=None):
    """Full intensity/flux report for the (omega, conjugate) pair.

    Resonance geometry is solved first; p (default: the resonant p0)
    detunes the coupled-pair shifts without moving the rainbow angles.
    """
    return _one_pair(ChannelReport, _reports, scenario, _resonance(scenario, omega, kind), p)


def _split(t1, t2, r1, r2):
    forward = t1 + t2
    backward = r1 + r2
    total = forward + backward
    return forward / total, backward / total


def rainbow_split(report):
    """(forward, backward) shares of the total outgoing intensity.

    The forward rainbow carries (t1, t2), the backward one (r1, r2);
    without pump-induced excess there is no rainbow to split.
    """
    if report.gamma == 0.0:
        raise UndefinedSplitError("no pump-induced excess; split undefined")
    return _split(report.t1, report.t2, report.r1, report.r2)
