"""Longitudinal wavenumbers, phase-matching resonances and rainbow angles.

A mode is labelled by its frequency omega and the magnitude p of its
transverse wavenumber (p^2 = px^2 + py^2).  All square roots take the
positive real branch; requests that would make any of them imaginary are
rejected as evanescent.

Down-conversion pairs (omega, omega0 - omega) resonate where

    Omega1(p0) + Omega2(p0) = omega0 * mu(omega0)

and up-conversion pairs (omega, omega0 + omega) where

    Omega_up(p0) - Omega1(p0) = omega0 * mu(omega0).

Both residuals are strictly monotone in p, and as each Omega^2 + p^2 does
not depend on p they have a closed-form root; one Newton step in p with the
residual in double-double arithmetic (two at small internal angles)
polishes it into the double nearest the exact root, whatever the grid.  One
kernel, _resonance_grid, solves a whole grid of frequencies and both
kinds at once; the scalar solvers are its one-element calls.

This module alone picks the path of every table, this grid and coupled's
tables alike: a whole table of ARRAY_MIN elements or more runs each body
once on numpy arrays, a smaller one once per element on Python floats
(_small, asked by _resonance_grid and coupled._tabulate only), and _stack
turns per-element results into arrays.  Only the _Primitives are picked
by input type (_on); they round alike on both and none calls Python per
element, so an element carries the same bits either way, and a
one-element call costs Python arithmetic, not numpy's per-call overhead.
"""
import cmath
import contextlib
import math
import sys
from dataclasses import dataclass
from functools import partial
from typing import NamedTuple

import numpy as np

from .errors import EvanescentError, GeometryError, GuardBandError, NoResonanceError

BRACKET_SHRINK = 0.999
RESIDUAL_TOL = 1e-12  # relative to omega0, or 4 eps K0 where that is larger
FREEZE_TOL = 1e-13  # polish convergence: the last step's |d| / p
MAX_ITERATIONS = 200  # polish steps per root
ARRAY_MIN = 16  # tables this large run on numpy arrays, smaller ones on floats
_SPLIT = 134217729.0  # 2**27 + 1: Dekker's split of a double into halves
_DBL_MAX = sys.float_info.max

KINDS = ("pdc", "puc")  # also the row order of a two-kind grid

# per-element status codes of _resonance_grid, in order of precedence
OK, GUARD_BAND, GEOMETRY, OUT_OF_BAND, EVANESCENT, NO_BRACKET, STALLED = range(7)
SKIP_REASONS = ("ok", "guard_band", "geometry", "out_of_band", "evanescent",
                "no_resonance", "no_resonance")


@dataclass(frozen=True)
class ResonancePoint:
    """One phase-matched mode pair: its longitudinal wavenumbers at the
    resonant p = p0, the residual left there and the polish steps that
    reached it from the closed-form start (0 where p0 = 0).

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
    residual: float
    iterations: int

    @property
    def theta(self):
        """Exterior angle of the omega mode: asin(p / omega)."""
        return math.asin(self.p / self.omega)

    @property
    def theta_deg(self):
        return _theta_deg(self.p, self.omega)


def _theta_deg(p, omega):
    """The exterior angle in degrees of a mode with transverse p at omega."""
    return math.degrees(math.asin(p / omega))


def kind_sign(kind):
    """+1.0 for pdc (partner omega0 - omega), -1.0 for puc (omega0 + omega)."""
    if kind not in KINDS:
        raise ValueError(f"conjugate kind must be one of {KINDS}, got {kind!r}")
    return 1.0 if kind == "pdc" else -1.0


class _Primitives(NamedTuple):
    """The elementwise primitives of a function body that runs on arrays
    and on Python floats alike.  On both, +, -, *, / by a float, sqrt and
    round (half to even) round alike, maximum and minimum agree but for
    NaN, cabs is libm's hypot and csin gives cmath.sin's bits (a test pins it)."""

    sqrt: object
    where: object
    any: object
    maximum: object
    minimum: object
    round: object
    cabs: object  # abs() of a complex, as a scalar rounds it
    csin: object  # the sine of a complex, as cmath.sin rounds it
    all_finite: object  # per element, whether every column of a sequence is finite
    quiet: object  # a context that silences floating-point warnings


_ARRAYS = _Primitives(
    np.sqrt, np.where, np.ndarray.any, np.maximum, np.minimum, np.round,
    lambda z: np.hypot(z.real, z.imag), np.sin,
    lambda columns: np.isfinite(list(columns)).all(axis=0),
    partial(np.errstate, all="ignore"))
_FLOATS = _Primitives(
    math.sqrt, lambda condition, x, y: x if condition else y, bool, max, min, round, abs,
    cmath.sin, lambda columns: all(map(math.isfinite, columns)),
    lambda context=contextlib.nullcontext(): context)


def _on(x):
    """The primitives for x: numpy's for an array, else Python's."""
    return _ARRAYS if isinstance(x, np.ndarray) else _FLOATS


def _small(n):
    """Whether a whole table of n elements runs on floats: ARRAY_MIN's one reader."""
    return 0 < n < ARRAY_MIN


def _stack(fields, shape):
    """Per-element Python results, one sequence per field, as one array of
    shape per field from a single exact conversion: int, complex or float,
    as the field's elements are."""
    stacked = np.array(fields).reshape((len(fields), *shape))
    return [column if type(field[0]) is complex
            else column.real.astype(int) if type(field[0]) is int else column.real
            for field, column in zip(fields, stacked)]


def _in_guard_band(scenario, omega):
    """Per-element guard-band test and the nearest multiple of omega0, on
    floats or arrays.

    The conjugate frequency omega0 -+ omega sits at the same distance from
    the multiples, so guarding omega guards the pair.  A non-finite omega,
    or one whose ratio to omega0 overflows, is tested as 0, which no guard
    band reaches.
    """
    w0 = scenario.omega0
    on = _on(omega)
    m = on.where(abs(omega) < _DBL_MAX * w0, omega, 0.0) / w0
    nearest = on.maximum(1.0, on.round(m))
    return abs(m - nearest) <= scenario.guard_width, nearest


@dataclass(frozen=True)
class ResonanceGrid:
    """Phase-matching solutions on a (len(kinds), len(omega)) grid.

    status holds one code per element (OK ... STALLED).  Every array is
    finite but partner, omega0 -+ omega, where omega is not; p, residual,
    iterations and the Omegas describe a resonance where status is OK, and
    f0, f1 are the residuals at p = 0 and p_max, with the band's low end in
    place of a frequency outside the band.
    """

    scenario: object
    omega: np.ndarray
    kinds: tuple
    partner: np.ndarray
    status: np.ndarray
    p: np.ndarray
    residual: np.ndarray
    iterations: np.ndarray
    Omega1: np.ndarray
    Omega2: np.ndarray
    Omega10: np.ndarray
    Omega20: np.ndarray
    p_max: np.ndarray
    f0: np.ndarray
    f1: np.ndarray

    def point(self, k, i):
        """The ResonancePoint of element (k, i), whose status must be OK."""
        return ResonancePoint(
            omega=self.omega.item(i), partner=self.partner.item(k, i),
            p=self.p.item(k, i), kind=self.kinds[k],
            Omega1=self.Omega1.item(k, i), Omega2=self.Omega2.item(k, i),
            Omega10=self.Omega10.item(k, i), Omega20=self.Omega20.item(k, i),
            residual=self.residual.item(k, i),
            iterations=self.iterations.item(k, i),
        )

    def theta_deg(self):
        """Per kind, the exterior angle in degrees of each omega's mode, as
        ResonancePoint.theta_deg gives it; None where status is not OK."""
        omegas = self.omega.tolist()
        return [
            [_theta_deg(p, omega) if code == OK else None
             for omega, p, code in zip(omegas, ps, codes)]
            for ps, codes in zip(self.p.tolist(), self.status.tolist())
        ]

    def raise_error(self, k, i):
        """Raise the typed error that element (k, i) stands for."""
        kind = self.kinds[k]
        omega = float(self.omega[i])
        code = self.status[k, i]
        bracket = (0.0, float(self.p_max[k, i]))
        if code == GUARD_BAND:
            nearest = _in_guard_band(self.scenario, omega)[1]
            raise GuardBandError(
                f"omega={omega:g} is within {self.scenario.guard_width:g}*omega0 "
                f"of {int(nearest)}*omega0"
            )
        if code == GEOMETRY:
            if kind == "pdc":
                raise GeometryError("down-conversion requires 0 < omega < omega0")
            raise GeometryError("mode frequency must be positive")
        if code == OUT_OF_BAND:
            for w in (omega, float(self.partner[k, i])):
                self.scenario.dispersion.mu(w)  # raises for the first one out
        if code == EVANESCENT:
            raise EvanescentError(
                f"an internal wave at omega={omega:g} is evanescent at the "
                f"bracket end p={bracket[1]:g}"
            )
        if code == NO_BRACKET:
            raise NoResonanceError(
                f"no {kind} phase-matching root for omega={omega:g}: residual "
                f"spans [{self.f1[k, i]:.3e}, {self.f0[k, i]:.3e}] over p in "
                f"[0, {bracket[1]:g}]",
                bracket=bracket,
            )
        raise NoResonanceError(
            f"{kind} root polish stalled at residual {self.residual[k, i]:.3e} "
            f"for omega={omega:g}",
            bracket=bracket,
        )


def _resonance_grid(scenario, omegas, kinds):
    """Phase-matching p0 for every (kind, omega) pair of a grid at once.

    Status precedence per element: guard band; geometry (omega <= 0, or a
    down-conversion omega >= omega0); out of band; an internal wave
    evanescent at the bracket end p_max = BRACKET_SHRINK * min(omega,
    partner); residuals of one sign at p = 0 and p_max; a stalled solve.
    The first three depend on the frequencies alone (_classify); the
    bracket takes the band's low end for a frequency outside the band, so
    no non-finite or overflowing frequency reaches the arithmetic.  One mu
    call per grid evaluates each omega once and each partner.  Past the
    bracket checks every radicand is positive at p0 <= p_max < omega, so a
    solved element is a valid resonance.

    A grid that is not _small runs each step once on arrays, a small one
    once per element on Python floats (_each): the same bodies, whose
    arithmetic rounds alike on both.  |f(0)| <= max(RESIDUAL_TOL * omega0,
    4 eps K0) gives p0 = 0; every other bracketed element is solved by
    _newton_roots.  p0 is the double nearest the exact root of the
    residual at the grid's float coefficients, so it depends neither on
    the grid's size nor on the path that solved it.
    """
    omega = np.asarray(omegas, dtype=float).ravel()
    n, shape = omega.size, (len(kinds), omega.size)
    signs = [kind_sign(kind) for kind in kinds]
    if on_arrays := not _small(len(kinds) * n):
        w1, s = np.tile(omega, len(kinds)), np.repeat(np.array(signs), n)
    else:
        w1, s = omega.tolist() * len(kinds), [x for x in signs for _ in range(n)]
    w2, code, v1, v2 = _each(partial(_classify, scenario), w1, s)
    mu = scenario.dispersion.mu(
        np.concatenate((v1[:n], v2)) if on_arrays else [*v1[:n], *v2])
    mu1 = np.tile(mu[:n], len(kinds)) if on_arrays else mu[:n] * len(kinds)
    columns = (w2, *_each(partial(_solve, scenario), v1, v2, s, mu1, mu[n:], code))
    # the columns come in ResonanceGrid's field order
    return ResonanceGrid(scenario, omega, tuple(kinds), *(
        [column.reshape(shape) for column in columns] if on_arrays
        else _stack(columns, shape)))


def _each(body, *columns):
    """body over element columns: one call on arrays, else one call per
    element on the Python floats of lists, its results regrouped into one
    tuple per field."""
    if isinstance(columns[0], np.ndarray):
        return body(*columns)
    return tuple(zip(*map(body, *columns)))


def _classify(scenario, w1, s):
    """(partner, code, omega', partner') of elements from their frequencies
    alone, on floats or arrays.  code is GUARD_BAND, GEOMETRY, OUT_OF_BAND
    or OK, in that precedence; omega' and partner' are the frequencies the
    bracket is computed at: each frequency itself where it lies in the
    band, else the band's low end."""
    on = _on(w1)
    lo, hi = scenario.dispersion.band
    w0 = scenario.omega0
    w2 = w0 - s * w1  # the partner: omega0 - omega (pdc), omega0 + omega (puc)
    in1, in2 = (w1 >= lo) & (w1 <= hi), (w2 >= lo) & (w2 <= hi)  # NaN is not
    code = on.where(_in_guard_band(scenario, w1)[0], GUARD_BAND,
                    on.where((w1 <= 0.0) | ((s > 0.0) & (w1 >= w0)), GEOMETRY,
                             on.where(in1 & in2, OK, OUT_OF_BAND)))
    return w2, code, on.where(in1, w1, lo), on.where(in2, w2, lo)


def _solve(scenario, w1, w2, s, mu1, mu2, code):
    """The ResonanceGrid fields after partner of elements at frequencies
    w1, w2 and indices mu1, mu2, with code from _classify: the bracket
    checks, the root and the four Omegas at it, on floats or arrays."""
    on = _on(w1)
    K0 = scenario.pump_wavenumber()
    # the residual Omega2 + s Omega1 - K0 rounds to about eps K0, above
    # RESIDUAL_TOL * omega0 where mu(omega0) exceeds about 1,100
    tol = max(RESIDUAL_TOL * scenario.omega0, 4.0 * 2.0**-52 * K0)
    ww1, ww2 = w1 * w1, w2 * w2
    a1, a2 = ww1 * mu1 * mu1, ww2 * mu2 * mu2  # each Omega^2 at p = 0
    p_max = BRACKET_SHRINK * on.minimum(w1, w2)  # w2 > w1 > 0 for puc
    q_max = p_max * p_max
    f0 = on.sqrt(a2) + s * on.sqrt(a1) - K0
    f1 = (on.sqrt(on.maximum(a2 - q_max, 0.0))
          + s * on.sqrt(on.maximum(a1 - q_max, 0.0)) - K0)
    away = abs(f0) > tol  # else p0 = 0
    status = on.where(code != OK, code,
                      on.where((a1 <= q_max) | (a2 <= q_max), EVANESCENT,
                               on.where(((f0 < 0.0) == (f1 < 0.0)) & away,
                                        NO_BRACKET, OK)))  # one sign
    solve = (status == OK) & away
    p, iterations = _roots(solve, a1, a2, s, p_max, K0)
    pp = p * p
    o1, o10 = on.sqrt(a1 - pp), on.sqrt(ww1 - pp)
    o2, o20 = on.sqrt(a2 - pp), on.sqrt(ww2 - pp)
    residual = o2 + s * o1 - K0
    status = on.where(solve & (abs(residual) > tol), STALLED, status)
    return status, p, residual, iterations, o1, o2, o10, o20, p_max, f0, f1


def _roots(solve, a1, a2, s, p_max, K0):
    """(p0, polish steps) of _newton_roots where solve is set, (0, 0)
    elsewhere: on a float element one call, on arrays one call for all
    their roots, however few."""
    if not isinstance(solve, np.ndarray):
        return _newton_roots(a1, a2, s, p_max, K0=K0) if solve else (0.0, 0)
    todo = np.flatnonzero(solve)
    p, iterations = np.zeros_like(a1), np.zeros(a1.size, dtype=int)
    if todo.size:
        p[todo], iterations[todo] = _newton_roots(a1[todo], a2[todo], s[todo], p_max[todo],
                                                  K0=K0)
    return p, iterations


def _dd_sqrt(sqrt, a, pp, pe):
    """sqrt(a - pp - pe) as y + c, c its rounding error to about eps^2 y:
    Dekker's exact a - pp (as a > pp) and y^2, on floats or arrays."""
    t = a - pp
    e = (a - t) - pp  # t + e = a - pp exactly
    y = sqrt(t)
    yy = y * y
    hi = _SPLIT * y
    hi = hi - (hi - y)
    lo = y - hi
    ye = ((hi * hi - yy) + 2.0 * hi * lo) + lo * lo  # yy + ye = y^2 exactly
    return y, (((t - yy) - ye) + (e - pe)) / (y + y)


def _newton_roots(a1, a2, s, p_max, *, K0):
    """Roots of f(p) = sqrt(a2 - p^2) + s * sqrt(a1 - p^2) - K0 in
    (0, p_max], one per element: (p0, polish steps taken).  Floats for
    one root, 1-d arrays for several; both run this body, and numpy's
    +, -, *, / and sqrt round as Python's do, so an element's p0 and step
    count do not depend on which.

    The start solves Omega2 + s Omega1 = K0 and Omega2^2 - Omega1^2 = a2 - a1
    without squaring K0: Omega2 = (K0 + (a2 - a1) / K0) / 2 and s Omega1 =
    (K0 - (a2 - a1) / K0) / 2.  Its q = a - Omega^2, from the smaller Omega,
    lies within about 4 eps Omega K0 of p0^2; where q <= 0 the start is
    p_max instead, from which Newton steps, f being concave in p for s = 1
    and convex for s = -1, fall monotonically to the root.  Newton steps in p
    polish the start, p += d with d = f / (p (1/Omega2 + s/Omega1)) and f in
    double-double arithmetic, exact to about eps^2 (Omega1 + Omega2).  A step
    leaves an error of about (f''/2f') d^2, under 1e3 d^2 / p where mu >= 1,
    so the polish ends after the first step with |d| <= FREEZE_TOL * p: p +
    d, rounded once, is the double nearest the root wherever f resolves it
    (p0^2 above about eps Omega K0).  From the closed form that is the first
    step but at small internal angles, where eps Omega K0 / p0^2 nears
    FREEZE_TOL.  A step that would leave (0, p_max] is not taken, and at most
    MAX_ITERATIONS are: _resonance_grid's residual check reports a root missed.
    """
    sqrt, where, any_live = (on := _on(p_max)).sqrt, on.where, on.any
    d = (a2 - a1) / K0
    o2, o1 = (K0 + d) / 2.0, s * ((K0 - d) / 2.0)  # the Omegas at the root
    q, q_max = where(o1 < o2, a1 - o1 * o1, a2 - o2 * o2), p_max * p_max
    p = sqrt(where(q > 0.0, on.minimum(q, q_max), q_max))
    steps, live = 0, True  # on arrays, both become arrays at the first step
    for _ in range(MAX_ITERATIONS):
        pp = p * p
        hi = _SPLIT * p
        hi = hi - (hi - p)
        lo = p - hi
        pe = ((hi * hi - pp) + 2.0 * hi * lo) + lo * lo  # pp + pe = p^2 exactly
        y1, c1 = _dd_sqrt(sqrt, a1, pp, pe)
        y2, c2 = _dd_sqrt(sqrt, a2, pp, pe)
        sy1 = s * y1
        h = y2 + sy1
        t = h - y2
        e = (y2 - (h - t)) + (sy1 - t)  # h + e = y2 + s y1 exactly
        # near the root K0 / 2 < h < 2 K0, so h - K0 is exact (Sterbenz)
        f = (h - K0) + ((e + c2) + s * c1)
        d = f / (p * (1.0 / y2 + s / y1))
        step = p + d
        steps = steps + live
        live = live & (step > 0.0) & (step <= p_max)
        p = where(live, step, p)
        live = live & (abs(d) > FREEZE_TOL * p)
        if not any_live(live):
            break
    return p, steps


def _resonance(scenario, omega, kind):
    grid = _resonance_grid(scenario, [omega], (kind,))
    if grid.status[0, 0] != OK:
        grid.raise_error(0, 0)
    return grid.point(0, 0)


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
