"""Longitudinal wavenumbers, phase-matching resonances and rainbow angles.

A mode is labelled by its frequency omega and the magnitude p of its
transverse wavenumber (p^2 = px^2 + py^2).  All square roots take the
positive real branch; requests that would make any of them imaginary are
rejected as evanescent.

Down-conversion pairs (omega, omega0 - omega) resonate where

    Omega1(p0) + Omega2(p0) = omega0 * mu(omega0)

and up-conversion pairs (omega, omega0 + omega) where

    Omega_up(p0) - Omega1(p0) = omega0 * mu(omega0).

Both residuals are strictly monotone in p on the physical branch.  Newton
steps in q = p^2 from the bracket end fall monotonically to the root, and
Newton steps in p with the residual in double-double arithmetic finish
there: p0 is the double nearest the exact root, whatever the grid.  One
array kernel, _resonance_grid, solves a whole grid of frequencies and both
kinds at once; the scalar solvers are its one-element calls.
"""
import math
from dataclasses import dataclass

import numpy as np

from .errors import EvanescentError, GeometryError, GuardBandError, NoResonanceError

BRACKET_SHRINK = 0.999
RESIDUAL_TOL = 1e-12  # relative to omega0
FREEZE_TOL = 1e-13  # Newton convergence: |f| / K0 in q, |step| / p in p
MAX_ITERATIONS = 200  # Newton steps per phase of a root
ARRAY_MIN = 24  # fewer roots than this are cheaper solved one by one on floats
_SPLIT = 134217729.0  # 2**27 + 1: Dekker's split of a double into halves

KINDS = ("pdc", "puc")  # also the row order of a two-kind grid

# per-element status codes of _resonance_grid, in order of precedence
OK, GUARD_BAND, GEOMETRY, OUT_OF_BAND, EVANESCENT, NO_BRACKET, STALLED = range(7)
SKIP_REASONS = ("ok", "guard_band", "geometry", "out_of_band", "evanescent",
                "no_resonance", "no_resonance")


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
    """ModeKinematics at the phase-matching p = p0, plus the residual left
    there and the Newton steps that reached it (0 where p0 = 0)."""

    residual: float
    iterations: int


def kind_sign(kind):
    """+1.0 for pdc (partner omega0 - omega), -1.0 for puc (omega0 + omega)."""
    if kind not in KINDS:
        raise ValueError(f"conjugate kind must be one of {KINDS}, got {kind!r}")
    return 1.0 if kind == "pdc" else -1.0


def _in_guard_band(scenario, omega):
    """Per-element guard-band test and the nearest multiple of omega0.

    The conjugate frequency omega0 -+ omega sits at the same distance from
    the multiples, so guarding omega guards the pair.
    """
    m = np.asarray(omega) / scenario.omega0
    nearest = np.maximum(1.0, np.round(m))
    return np.abs(m - nearest) <= scenario.guard_width, nearest


def _radicands(omega, partner, p, mu1, mu2):
    """Squares of (Omega1, Omega10, Omega2, Omega20); floats or arrays."""
    pp = p * p
    return (
        omega * omega * mu1 * mu1 - pp,
        omega * omega - pp,
        partner * partner * mu2 * mu2 - pp,
        partner * partner - pp,
    )


@dataclass(frozen=True)
class ResonanceGrid:
    """Phase-matching solutions on a (len(kinds), len(omega)) grid.

    status holds one code per element (OK ... STALLED).  Every array is
    finite; p, residual, iterations and the Omegas describe a resonance
    where status is OK, and f0, f1 are the residuals at p = 0 and p_max.
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
        ModeKinematics.theta_deg gives it; None where status is not OK."""
        omegas = self.omega.tolist()
        return [
            [math.degrees(math.asin(p / omega)) if code == OK else None
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
    mu is evaluated once, on the in-band frequencies only.  Past the
    bracket checks every radicand is positive at p0 <= p_max < omega, so a
    solved element is a valid resonance.

    |f(0)| <= RESIDUAL_TOL * omega0 gives p0 = 0.  Every other bracketed
    element is solved by _newton_roots: one call on arrays from ARRAY_MIN
    roots up, else one call per root on floats.  p0 is the double nearest
    the exact root of the residual at the grid's float coefficients, so it
    depends neither on the grid's size nor on the path that solved it.
    """
    w0 = scenario.omega0
    omega = np.asarray(omegas, dtype=float).ravel()
    n, shape = omega.size, (len(kinds), omega.size)

    def per_kind(values):  # one copy per kind, kinds stacked
        return np.concatenate([values] * len(kinds))

    w1 = per_kind(omega)
    s = np.repeat([kind_sign(kind) for kind in kinds], n)
    w2 = w0 - s * w1  # the partner: omega0 - omega (pdc), omega0 + omega (puc)
    lo, hi = scenario.dispersion.band
    freqs = np.concatenate([omega, w2])
    in_band = (freqs >= lo) & (freqs <= hi)
    mu = np.ones_like(freqs)  # placeholder where out of band
    if in_band.any():
        mu[in_band] = scenario.dispersion.mu(freqs[in_band])
    mu1, mu2 = per_kind(mu[:n]), mu[n:]

    K0 = scenario.pump_wavenumber()
    a1 = w1 * w1 * mu1 * mu1
    a2 = w2 * w2 * mu2 * mu2
    p_max = BRACKET_SHRINK * np.minimum(w1, w2)  # w2 > w1 > 0 for puc
    q_max = p_max * p_max
    f0 = np.sqrt(a2) + s * np.sqrt(a1) - K0
    f1 = (np.sqrt(np.maximum(a2 - q_max, 0.0))
          + s * np.sqrt(np.maximum(a1 - q_max, 0.0)) - K0)
    tol = RESIDUAL_TOL * w0
    at_zero = np.abs(f0) <= tol
    zero_below = f0 < 0.0
    # checks in reverse order of precedence, so the first failed one wins
    status = np.full(w1.size, OK)
    status[~(zero_below ^ (f1 < 0.0)) & ~at_zero] = NO_BRACKET  # one sign
    status[(a1 <= q_max) | (a2 <= q_max)] = EVANESCENT
    status[~(per_kind(in_band[:n]) & in_band[n:])] = OUT_OF_BAND
    status[(w1 <= 0.0) | ((s > 0.0) & (w1 >= w0))] = GEOMETRY
    status[per_kind(_in_guard_band(scenario, omega)[0])] = GUARD_BAND

    todo = np.flatnonzero((status == OK) & ~at_zero)
    roots = (a1[todo], a2[todo], s[todo], p_max[todo])
    p = np.zeros_like(a1)
    iterations = np.zeros(a1.size, dtype=int)
    if todo.size >= ARRAY_MIN:
        p[todo], iterations[todo] = _newton_roots(*roots, K0=K0)
    else:
        for j, args in zip(todo.tolist(), zip(*(x.tolist() for x in roots))):
            p[j], iterations[j] = _newton_roots(*args, K0=K0)

    r1, r10, r2, r20 = _radicands(w1, w2, p, mu1, mu2)
    o1, o10, o2, o20 = np.sqrt(r1), np.sqrt(r10), np.sqrt(r2), np.sqrt(r20)
    residual = o2 + s * o1 - K0
    status[todo[np.abs(residual[todo]) > tol]] = STALLED
    return ResonanceGrid(
        scenario=scenario, omega=omega, kinds=tuple(kinds),
        **{name: value.reshape(shape) for name, value in (
            ("partner", w2), ("status", status), ("p", p),
            ("residual", residual), ("iterations", iterations),
            ("Omega1", o1), ("Omega2", o2), ("Omega10", o10), ("Omega20", o20),
            ("p_max", p_max), ("f0", f0), ("f1", f1))},
    )


def _two_sum(x, y):
    """(h, e) with h = fl(x + y) and h + e = x + y exactly (Knuth)."""
    h = x + y
    t = h - x
    return h, (x - (h - t)) + (y - t)


def _two_square(x):
    """(h, e) with h = fl(x * x) and h + e = x * x exactly (Dekker)."""
    h = x * x
    c = _SPLIT * x
    hi = c - (c - x)
    lo = x - hi
    return h, ((hi * hi - h) + 2.0 * hi * lo) + lo * lo


def _newton_roots(a1, a2, s, p_max, *, K0):
    """Roots of f(p) = sqrt(a2 - p^2) + s * sqrt(a1 - p^2) - K0 in
    (0, p_max], one per element: (p0, Newton steps taken).  Floats for
    one root, 1-d arrays for several; both run this body, and numpy's
    +, -, *, / and sqrt round as Python's do, so an element's p0 and step
    count do not depend on which.

    In q = p^2 each Omega = sqrt(a - q) has dOmega/dq = -1 / (2 Omega),
    so f is monotone in q, concave for s = 1 and convex for s = -1, and
    Newton steps from q_max = p_max^2 fall monotonically to its root.  An
    element leaves that phase after the step taken at |f| <= FREEZE_TOL *
    K0, near the root.  Newton steps in p follow, p += d with
    d = f / (p (1/Omega2 + s/Omega1)) and f in double-double arithmetic:
    each Omega carries its rounding error, and Omega2 + s Omega1 - K0 is
    exact to about eps^2 K0, so d is the root's offset from p to about
    one part in 1e16.  A step leaves an error of about (f''/2f') d^2,
    under 1e3 d^2 / p on the bracket where mu >= 1, so the phase ends
    after the first step with |d| <= FREEZE_TOL * p: p + d, rounded once,
    is then the double nearest the root.  A step that would leave
    (0, p_max] is not taken.  Each phase takes at most MAX_ITERATIONS
    steps; an element whose q phase does not converge keeps sqrt(q), and
    _resonance_grid's residual check reports it.
    """
    if isinstance(p_max, np.ndarray):
        sqrt, where, any_live = np.sqrt, np.where, np.ndarray.any
        steps, live = np.zeros(p_max.size, dtype=int), np.ones(p_max.size, dtype=bool)
    else:
        sqrt, where, any_live = math.sqrt, _pick, bool
        steps, live = 0, True
    q = p_max * p_max
    for _ in range(MAX_ITERATIONS):
        o1, o2 = sqrt(a1 - q), sqrt(a2 - q)
        f = o2 + s * o1 - K0
        q = where(live, q + (f + f) / (1.0 / o2 + s / o1), q)
        steps = steps + live
        live = live & (abs(f) > FREEZE_TOL * K0)
        if not any_live(live):
            break
    live = where(live, False, q > 0.0)  # the q phase converged, to a positive q
    p = sqrt(abs(q))
    for _ in range(MAX_ITERATIONS):
        pp, pe = _two_square(p)
        omegas = []
        for a in (a1, a2):  # Omega = sqrt(a - pp - pe) = y + c to ~eps^2
            t, e = _two_sum(a, -pp)
            y = sqrt(t)
            yy, ye = _two_square(y)
            omegas.append((y, (((t - yy) - ye) + (e - pe)) / (y + y)))
        (y1, c1), (y2, c2) = omegas
        h, e1 = _two_sum(y2, s * y1)
        h, e2 = _two_sum(h, -K0)
        f = h + (((e1 + e2) + c2) + s * c1)
        d = f / (p * (1.0 / y2 + s / y1))
        step = p + d
        steps = steps + live
        live = live & (step > 0.0) & (step <= p_max)
        p = where(live, step, p)
        live = live & (abs(d) > FREEZE_TOL * p)
        if not any_live(live):
            break
    return p, steps


def _pick(condition, x, y):
    """np.where for one element."""
    return x if condition else y


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
