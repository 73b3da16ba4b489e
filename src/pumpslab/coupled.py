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

Shifts and reports are computed as columns over a whole resonance grid
(epsilon_table, report_table), one array per field plus a status per
element.  The scalar epsilon_roots, resonance_report and channel_report
are one-element calls into the same code, and every element carries the
bits a scalar evaluation in the same operation order would give.
"""
import cmath
import math
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
from .kinematics import EVANESCENT, GEOMETRY, OK, SKIP_REASONS, _resonance
from .lamina import fresnel_step

DETUNING_WARN_FRACTION = 0.01
_SINC_SERIES_CUTOFF = 1e-4
_SINC_MAX_IMAG = 700.0  # sin(z) ~ e^|Im z| / 2 overflows a float near 710.5
UNDEFINED_RATIO = len(SKIP_REASONS)  # report-stage status: no partner flux
STATUS_REASONS = SKIP_REASONS + ("undefined_ratio",)
_DBL_MIN = np.finfo(float).smallest_normal


def csinc(z):
    """sin(z)/z on complex arguments, series-evaluated near the origin.

    Raises StrongGainError where |Im z| > _SINC_MAX_IMAG, before sin(z)
    can overflow.
    """
    z = complex(z)
    if abs(z) < _SINC_SERIES_CUTOFF:
        z2 = z * z
        return 1.0 - z2 / 6.0 + z2 * z2 / 120.0
    if abs(z.imag) > _SINC_MAX_IMAG:
        raise StrongGainError(
            f"sinc of xi={z:g} overflows: |Im xi| exceeds {_SINC_MAX_IMAG:g}"
        )
    return cmath.sin(z) / z


def _sinc_sq(xi):
    s = csinc(xi)
    value = (s * s).real
    if not math.isfinite(value):
        raise StrongGainError(f"sinc(xi)^2 is not finite at xi={complex(xi):g}")
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

    sign is +1 for pdc and -1 for puc; every wavenumber is positive.
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
        """The one mode pair of record kin, as floats."""
        if kin.Omega1 <= 0.0 or kin.Omega2 <= 0.0:
            raise GeometryError("resonant internal wavenumbers must be positive")
        return cls(kin.omega, kin.partner, 1.0 if kin.kind == "pdc" else -1.0, kin.p,
                   kin.Omega1, kin.Omega2, kin.Omega10, kin.Omega20)

    @classmethod
    def of_grid(cls, grid):
        """The grid's resonances in (kind, omega) order, and their flat indices."""
        ok = np.flatnonzero(grid.status == OK)
        k, i = np.divmod(ok, grid.omega.size)
        signs = np.array([1.0 if kind == "pdc" else -1.0 for kind in grid.kinds])
        rest = np.array([grid.partner, grid.p, grid.Omega1, grid.Omega2,
                         grid.Omega10, grid.Omega20]).reshape(6, -1)[:, ok]
        return ok, cls(grid.omega[i], rest[0], signs[k], *rest[1:])


def _cabs(z):
    """abs() of each complex as a scalar rounds it; array abs does not."""
    return np.hypot(z.real, z.imag)


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
    - abs() of a complex is _cabs.
    - On a tie the + root leads: a complex pair's moduli are equal and its
      + root is the +imaginary one; a real pair's + root is the larger.
    """
    size = np.abs(disc)
    s = np.sqrt(size)
    if (size < 8.0 * _DBL_MIN).any():
        s = np.sqrt(np.where(size < _DBL_MIN, size, size / 8.0 * 8.0))
    root = np.where(disc >= 0.0, s, 1j * s)
    plus, minus = (detuning + root) / 2.0, (detuning - root) / 2.0
    a_plus, a_minus = _cabs(plus), _cabs(minus)
    swap = a_plus - a_minus > 1e-12 * np.maximum(a_plus, 1e-300)
    eps1, eps2 = np.where(swap, minus, plus), np.where(swap, plus, minus)
    return eps1, eps2, (eps1 - eps2) * l / 2.0


# Per-element Python steps, on floats and arrays alike: csinc, whose
# cmath.sin rests on the C library's sinh and cosh (numpy's differ from
# them in the last bit on about a quarter of inputs), and pow, whose
# x ** 2 numpy's multiply does not reproduce on about 1e-3 of inputs.  On
# arrays they give object arrays, which _column types.
_SINC_SQ = np.frompyfunc(_sinc_sq, 1, 1)
_POW = np.frompyfunc(pow, 2, 1)


def _column(values, dtype):
    return values.astype(dtype) if isinstance(values, np.ndarray) else values


def _coupled_pair(scenario, pairs, p):
    """Status and coupled-pair shifts of mode pairs at working p.

    Status per element: GEOMETRY for a negative p, else EVANESCENT for
    p >= min(omega, partner), else OK.  One ValidityWarning covers every
    in-range element with |p - p0| > DETUNING_WARN_FRACTION * omega.
    Returns (status, strength, arm, columns), columns holding eps1, eps2,
    xi, detuning_sum and product.  numpy's +, -, * and / round exactly
    as Python's float operators do, so each element is bit for bit a
    scalar evaluation in the same operation order.
    """
    omega, partner, sign, p0, w1, w2 = pairs[:6]
    status = np.where(p < 0.0, GEOMETRY,
                      np.where((p >= omega) | (p >= partner), EVANESCENT, OK))
    offset = np.abs(p - p0)
    far = (status == OK) & (offset > DETUNING_WARN_FRACTION * omega)
    if np.count_nonzero(far):
        warnings.warn(
            f"|p - p0| = {np.max(offset, where=far, initial=0.0):g} exceeds "
            f"{DETUNING_WARN_FRACTION:g} * omega; shift formulas degrade",
            ValidityWarning,
            stacklevel=3,
        )
    g, w0 = scenario.g, scenario.omega0
    strength = g * g * w0 * w0 * omega * partner
    arm = w2 + sign * w1  # w1 + w2 for pdc, w2 - w1 for puc
    detuning = (p - p0) * p0 * arm / (w1 * w2)
    product = sign * strength / (4.0 * w1 * w2)
    disc = detuning * detuning - 4.0 * product
    eps1, eps2, xi = _shift_pair(detuning, disc, scenario.l)
    return status, strength, arm, {
        "eps1": eps1, "eps2": eps2, "xi": xi, "detuning_sum": detuning,
        "product": product,
    }


def _shifts(scenario, pairs, p):
    """Status and EpsilonRoots columns of mode pairs at working p."""
    status, strength, arm, columns = _coupled_pair(scenario, pairs, p)
    sign, w1, w2 = pairs.sign, pairs.Omega1, pairs.Omega2
    columns["eps3"] = -sign * strength / (8.0 * arm * w1 * w1)
    columns["eps4"] = sign * strength / (8.0 * arm * w2 * w2)
    return status, columns


def _items(values):
    """One mode pair's columns as Python floats and complexes."""
    return {name: value.item() if isinstance(value, (np.ndarray, np.generic)) else value
            for name, value in values.items()}


def _raise_skip(code, kin, p):
    """Raise the typed error that report-stage status code stands for."""
    if code == GEOMETRY:
        raise GeometryError(f"working p={p:g} is negative")
    if code == EVANESCENT:
        raise EvanescentError(
            f"working p={p:g} is evanescent: a free-space wave needs "
            f"p < min(omega, partner) = {min(kin.omega, kin.partner):g}"
        )
    if code == UNDEFINED_RATIO:
        raise UndefinedSplitError(
            f"{kin.kind} flux ratio undefined at omega={kin.omega:g}: the partner "
            "flux vanishes (collinear resonance, equal Fresnel steps)"
        )


@dataclass(frozen=True)
class GridTable:
    """Columns over the resonances of a ResonanceGrid.

    status holds a code per (kind, omega) element: the grid's own where
    it found no resonance, else OK or a report-stage skip, GEOMETRY or
    EVANESCENT for a working p outside [0, min(omega, partner)) and
    UNDEFINED_RATIO where the partner flux vanishes.  STATUS_REASONS
    names every code.  columns maps each field to one array over the
    resonances in (kind, omega) order; index[k, i] is the position of
    element (k, i) there, -1 where the grid found no resonance.  Values
    are defined where status is OK.
    """

    status: np.ndarray
    index: np.ndarray
    columns: dict


def _on_grid(build, scenario, grid, detuning, located=None):
    """build's GridTable over grid at p = p0 + detuning * omega; located
    is _Pairs.of_grid(grid), computed here where not given."""
    ok, pairs = located or _Pairs.of_grid(grid)
    codes, columns = build(scenario, pairs, pairs.p0 + detuning * pairs.omega)
    status = grid.status.copy()
    status.ravel()[ok] = codes
    index = np.full(status.shape, -1)
    index.ravel()[ok] = np.arange(ok.size)
    return GridTable(status, index, columns)


def epsilon_table(scenario, grid, detuning=0.0):
    """epsilon_roots of every resonance of grid, as a GridTable.

    The working p is p0 + detuning * omega; the columns are the fields
    of EpsilonRoots but kind.
    """
    return _on_grid(_shifts, scenario, grid, detuning)


def epsilon_roots(scenario, res, p=None):
    """Perturbative wavenumber shifts at working transverse wavenumber p.

    res is the ResonancePoint (its p is the resonant p0); p defaults to
    p0 and must lie in [0, min(omega, partner)), where both free-space
    waves propagate.  Valid for g << 1 and |p - p0| << omega; a
    ValidityWarning is issued beyond |p - p0| = DETUNING_WARN_FRACTION * omega.
    A one-element epsilon_table.
    """
    p = res.p if p is None else p
    status, values = _shifts(scenario, _Pairs.of_record(res), p)
    _raise_skip(int(status), res, p)
    return EpsilonRoots(kind=res.kind, **_items(values))


def quartic_coefficients(scenario, kin):
    """Coefficients of (k^2 - A)((k + sign K0)^2 - B) - G, highest power first.

    Returns (coeffs, K0, A, B, G, sign) with A = Omega1^2, B = Omega2^2,
    G = g^2 omega0^2 omega partner the coupling strength and sign = -1 for
    down-conversion, +1 for up-conversion (the conjugate wave is carried
    against / along the pump phase respectively).
    """
    return _quartic(scenario, kin.omega, kin.partner, kin.Omega1, kin.Omega2,
                    -1.0 if kin.kind == "pdc" else 1.0)


def _quartic(scenario, omega, partner, w1, w2, sign):
    """quartic_coefficients of mode pairs: floats for one, 1-d arrays for
    several, squaring with Python's pow as the scalar code does."""
    K0 = scenario.pump_wavenumber()
    A, B = _column(_POW(w1, 2), float), _column(_POW(w2, 2), float)
    G = scenario.g**2 * scenario.omega0**2 * omega * partner
    coeffs = [1.0, 2.0 * sign * K0, K0 * K0 - B - A, -2.0 * A * sign * K0,
              -A * (K0 * K0 - B) - G]
    return coeffs, K0, A, B, G, sign


def _pair_coefficients(scenario, pairs):
    """The (n, 5) quartic coefficient rows of the mode pair columns pairs."""
    coeffs = _quartic(scenario, *pairs[:2], pairs.Omega1, pairs.Omega2, -pairs.sign)[0]
    return np.column_stack(np.broadcast_arrays(*coeffs))


def _quartic_roots(coeffs):
    """The roots of each row of (n, 5) quartic coefficients, as an (n, 4) array.

    The eigenvalues of the stacked companion matrices from one batched
    call: row by row the values and the order np.roots gives, always as
    complex.  Every row needs a nonzero leading and constant coefficient,
    which np.roots would strip.
    """
    coeffs = np.asarray(coeffs, dtype=float).reshape(-1, 5)
    companion = np.zeros((len(coeffs), 4, 4))
    companion[:, 0] = -coeffs[:, 1:] / coeffs[:, :1]
    companion[:, 1:, :3] = np.eye(3)
    return np.linalg.eigvals(companion).astype(complex)


def quartic_wavenumbers(scenario, kin):
    """The four exact internal wavenumbers, sorted to match the anchors.

    Roots of (k^2 - Omega1^2)((k -+ K0)^2 - Omega2^2) = strength, with the
    pump wavenumber K0 entering with a minus sign for down-conversion and
    a plus sign for up-conversion (see quartic_coefficients).  Returned as
    [k1, k2, k3, k4] where k1, k2 hug +Omega1, k3 hugs -Omega1 and k4 is
    the far counter-propagating partner root.
    """
    sign = 1.0 if kin.kind == "pdc" else -1.0
    return _sorted_wavenumbers(scenario.pump_wavenumber(), kin.Omega1, kin.Omega2, sign,
                               _quartic_roots(quartic_coefficients(scenario, kin)[0]))[0]


def _nearest(candidates, anchor):
    """Each row of candidates in a stable order of distance to anchor, as
    sorted() orders them, and the gap between the two nearest distances."""
    dist = _cabs(candidates - np.asarray(anchor)[..., None])
    order = np.argsort(dist, axis=1, kind="stable")
    near = np.take_along_axis(dist, order[:, :2], axis=1)
    return order, np.abs(near[:, 0] - near[:, 1])


def _sorted_wavenumbers(K0, w1, w2, sign, roots):
    """quartic_wavenumbers of mode pairs from their (n, 4) unsorted roots;
    w1, w2 (Omega1, Omega2) and sign (+1 pdc) are floats or 1-d columns.
    Each row sorts as alone; the first with an equidistant pair raises."""
    # uncoupled wavenumbers the four roots collapse to at g = 0
    a12, a4 = w1, sign * (K0 + w2)
    scale = np.maximum(np.abs(a12), np.abs(a4))
    order4, gap4 = _nearest(roots, a4)
    rest = np.take_along_axis(roots, order4[:, 1:], axis=1)
    order3, gap3 = _nearest(rest, -a12)
    k3 = np.take_along_axis(rest, order3[:, :1], axis=1)
    k4 = np.take_along_axis(roots, order4[:, :1], axis=1)
    pair = np.take_along_axis(rest, order3[:, 1:], axis=1)
    tied4, tied3 = gap4 < 1e-12 * scale, gap3 < 1e-12 * scale
    if (tied4 | tied3).any():
        j = np.argmax(tied4 | tied3)
        chosen = np.array([*pair[j], k3[j, 0], k4[j, 0]])
        # the other assignment swaps the tied roots: k4 with the runner-up
        # for k4 (rest[0], at position (2, 0, 1)[m] where order3[m] == 0),
        # or else k3 with the runner-up for k3 (pair[0])
        if tied4[j]:
            a, b = 3, (2, 0, 1)[order3[j].tolist().index(0)]
        else:
            a, b = 2, 0
        other = chosen.copy()
        other[[a, b]] = chosen[[b, a]]
        raise DegenerateRootError(
            "two quartic roots are equidistant from the sorting anchors",
            assignments=(chosen, other),
        )
    # k1 is the root nearer Omega1, as eps1 is the shift nearer 0; for
    # distances equal to 1e-12 relative, the +imaginary, then +real, one
    d0, d1 = (pair - np.asarray(a12)[..., None]).T
    a0, a1 = _cabs(d0), _cabs(d1)
    by_size = np.abs(a0 - a1) > 1e-12 * np.maximum(np.maximum(a0, a1), 1e-300)
    first = np.where(by_size, a0 < a1,
                     (d0.imag > d1.imag) | ((d0.imag == d1.imag) & (d0.real >= d1.real)))
    return np.column_stack((np.where(first[:, None], pair, pair[:, ::-1]), k3, k4))


_REPORT_FIELDS = ("gamma", "r10", "r20", "r1", "t1", "r2", "t2", "n_idler",
                  "n_signal", "flux_omega", "flux_partner", "ratio")


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


def _reports(scenario, pairs, p):
    """Status and report columns of flat mode pairs at working p.

    The coupled pair's status, with UNDEFINED_RATIO where the partner flux
    vanishes; the columns are ChannelReport's fields, plus the forward
    share of rainbow_split (meaningful where gamma > 0).  Elementwise
    arithmetic in scalar order, as in _coupled_pair.
    """
    status, _, _, shifts = _coupled_pair(scenario, pairs, p)
    omega, partner, sign, _, w1, w2, w10, w20 = pairs
    g, l, w0 = scenario.g, scenario.l, scenario.omega0
    sinc_sq = _column(_SINC_SQ(shifts["xi"]), float)
    # a gain past the float range leaves inf or nan cells, refused below
    with np.errstate(over="ignore", invalid="ignore"):
        gamma = g * g * l * l * w0 * w0 * omega * partner / (4.0 * w1 * w2) * sinc_sq
        r10 = fresnel_step(w10, w1).r0
        r20 = fresnel_step(w20, w2).r0
        pass10, pass20 = 1.0 + r10, 1.0 + r20
        pass_sq = _column(_POW(pass10, 2), float)
        r1 = 2.0 * r10 / pass10 + sign * gamma * r10 / pass_sq
        t1 = (1.0 - r10) / pass10 + sign * gamma / pass_sq
        freq_ratio = partner / omega
        r2 = freq_ratio * gamma * r20 / (pass10 * pass20)
        t2 = freq_ratio * gamma / (pass10 * pass20)
        cos_ratio = (w20 / partner) / (w10 / omega)
        # pdc adds the two terms of each bracket, puc subtracts one from the other
        bracket_omega = cos_ratio / pass20 + sign / pass10
        bracket_partner = (1.0 / cos_ratio) / pass10 + sign / pass20
        undefined = bracket_partner == 0.0
        status[undefined & (status == OK)] = UNDEFINED_RATIO
        ratio = bracket_omega / np.where(undefined, np.nan, bracket_partner)
        columns = dict(
            gamma=gamma, r10=r10, r20=r20, r1=r1, t1=t1, r2=r2, t2=t2,
            n_idler=(t1 + r1 - 1.0) / 2.0, n_signal=(t2 + r2) * w10 / (2.0 * w20),
            flux_omega=0.5 * gamma * bracket_omega,
            flux_partner=0.5 * gamma * bracket_partner,
            ratio=ratio, forward_fraction=_split(t1, t2, r1, r2)[0],
        )
    bad = np.flatnonzero((status == OK) & ~np.isfinite(list(columns.values())).all(axis=0))
    if bad.size:
        raise StrongGainError(f"channel report overflows at omega="
                              f"{np.ravel(omega)[bad[0]]:g}: gamma={np.ravel(gamma)[bad[0]]:g}")
    return status, columns


def report_table(scenario, grid, detuning=0.0):
    """channel_report of every resonance of grid, as a GridTable.

    The working p is p0 + detuning * omega.  The columns are the fields
    of ChannelReport but omega, partner and kind, plus forward_fraction,
    the forward share of rainbow_split where gamma > 0.
    """
    return _on_grid(_reports, scenario, grid, detuning)


def channel_report(scenario, omega, kind="pdc", p=None):
    """Full intensity/flux report for the (omega, conjugate) pair.

    Resonance geometry is solved first; p (default: the resonant p0)
    detunes the coupled-pair shifts without moving the rainbow angles.
    """
    return resonance_report(scenario, _resonance(scenario, omega, kind), p)


def resonance_report(scenario, res, p):
    """channel_report for an already solved ResonancePoint res.

    p is the working transverse wavenumber, or None for the resonant p0.
    Raises UndefinedSplitError where the partner flux vanishes.  A
    one-element report_table.
    """
    p = res.p if p is None else p
    status, values = _reports(scenario, _Pairs.of_record(res), p)
    _raise_skip(int(status), res, p)
    values = _items(values)
    return ChannelReport(omega=res.omega, partner=res.partner, kind=res.kind,
                         **{name: values[name] for name in _REPORT_FIELDS})


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
