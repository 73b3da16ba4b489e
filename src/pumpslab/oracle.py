"""Brute-force validators for the iterative/incoherent approximations.

Two independent references live here:

thickness_averaged_intensities
    Direct solution of the eight continuity equations (field and normal
    derivative, both frequencies, both faces) for a solved mode pair
    record, using the exact quartic wavenumbers.  Every interference
    phase the two-step iteration and the incoherent series discard is
    kept, which makes this the anchor all approximations are measured
    against.  Real slabs are never cut to a fraction of a wavelength, so
    comparisons average the fast thickness phase over one period;
    phases=1 solves the thickness l alone.

    The quartic roots and mode vectors do not depend on the thickness l;
    only the exit-face rows 4-7 carry its e^{ikl} phases.  So the systems
    for every thickness of an average are built as one (N, 8, 8) stack by
    broadcasting, then factorized once: one batched LU solve against
    [rhs | I] gives the amplitudes and M^-1, bit for bit what separate
    solve and inv calls give; g = 0 stacks the 4x4 coherent slab the same
    way.  The screen takes the 1-norm condition number kappa_1 of every
    system from that M^-1.  For 8x8 matrices kappa_2 / 8 <= kappa_1 <= 8
    kappa_2, so a stack whose worst kappa_1 is within COND_LIMIT / 8
    cannot exceed the 2-norm limit; only a stack above that computes its
    2-norm condition numbers (one SVD per system), and it is refused
    where the worst of them exceeds COND_LIMIT.  A partner-incident wave
    would ride the same factorization as one more right-hand-side column.

series_sum
    Explicit term-by-term summation of the multiple-reflection intensity
    series whose closed forms the coupled module uses.
"""
import math

import numpy as np

from .coupled import _Pairs, _quartic, _quartic_roots
from .errors import ConditioningError, SeriesDomainError, StrongGainError
from .kinematics import kind_sign

COND_LIMIT = 1e12
RESIDUAL_LIMIT = 1e-10
THICKNESS_PHASES = 64  # thickness steps across one fast period
SERIES_TERMS = 40
_SERIES_MAX = np.finfo(float).max / (SERIES_TERMS + 1) ** 2


def _boundary_stack(scenario, kin, lengths, roots, quartic):
    """Continuity matrices for one incident unit mode at every thickness.

    roots are the four roots of kin's quartic, quartic its (K0, A, B, G,
    sign).  Returns (matrices (N, 8, 8), rhs (8,)) in the unknowns (R1,
    R2, T1, T2, c1..c4), c_r scaling the unit-normalized mode vector of
    quartic root r.  The roots and mode vectors do not depend on the
    thickness; only the exit-face rows 4-7 carry its phase factors.  sign
    is the quartic's kind_sign (+1 for pdc, -1 for puc): the conjugate
    field of root k rides e^{i(k - sign K0)z}.
    """
    K0, A, B, G, sign = quartic
    C1 = scenario.g * kin.omega * scenario.omega0
    kp = roots - sign * K0
    F1 = roots * roots - A
    F2 = kp**2 - B
    # both (F2, G/C1) and (C1, F1) solve F1 a = C1 b at a root (F1 F2 = G);
    # take the one built from the larger factor, which has no cancellation
    omega_like = np.abs(F1) <= np.abs(F2)
    a = np.where(omega_like, F2, C1)
    b = np.where(omega_like, G / C1, F1)
    norm = np.maximum(np.abs(a), np.abs(b))
    a, b = a / norm, b / norm

    # carriers: omega field a e^{ikz}; conjugate field i b e^{i(k - s K0) z};
    # the exit rows 4-7 are the entrance rows 0-3 times each column's e^{ikl}
    W10, W20 = kin.Omega10, kin.Omega20
    entrance = np.zeros((4, 8), dtype=complex)
    entrance[:, 4:] = (-a, -1j * roots * a, -1j * b, kp * b)
    entrance[0, 0] = 1.0
    entrance[1, 0] = -1j * W10
    # conjugate amplitudes: transmitted rides e^{-s i W20 z}, reflected
    # e^{s i W20 z} (for pdc the physical wave is the complex conjugate)
    entrance[2, 1] = 1.0
    entrance[3, 1] = sign * 1j * W20
    phase = np.exp(1j * np.outer(lengths, np.concatenate((roots, kp, [W10, -sign * W20]))))
    M = np.zeros((len(lengths), 8, 8), dtype=complex)
    M[:, :4] = entrance
    M[:, 4:6, 4:] = entrance[:2, 4:] * phase[:, None, :4]
    M[:, 6:, 4:] = entrance[2:, 4:] * phase[:, None, 4:8]
    M[:, 4, 2] = phase[:, 8]
    M[:, 5, 2] = 1j * W10 * phase[:, 8]
    M[:, 6, 3] = phase[:, 9]
    M[:, 7, 3] = -sign * 1j * W20 * phase[:, 9]
    rhs = np.zeros(8, dtype=complex)
    rhs[0] = -1.0
    rhs[1] = -1j * W10
    return M, rhs


def _linear_slab_solution(W0, W, lengths):
    """Coherent single-frequency slab per thickness: (R, T) arrays."""
    phase0 = np.exp(1j * W0 * lengths)
    fwd = np.exp(1j * W * lengths)
    bwd = np.exp(-1j * W * lengths)
    M = np.zeros((len(lengths), 4, 4), dtype=complex)
    M[:, 0] = [1.0, 0.0, -1.0, -1.0]
    M[:, 1] = [-W0, 0.0, -W, W]
    M[:, 2, 1:] = np.stack([phase0, -fwd, -bwd], axis=1)
    M[:, 3, 1:] = np.stack([W0 * phase0, -W * fwd, W * bwd], axis=1)
    rhs = np.array([[-1.0], [-W0], [0.0], [0.0]], dtype=complex)
    return np.linalg.solve(M, rhs)[:, :2, 0].T


def _screen(M, inverse, kin):
    """The worst 1-norm condition number of stack M, or a ConditioningError.

    inverse is M^-1, None where a system is exactly singular (refused).
    Accepted without an SVD where the worst kappa_1 is within COND_LIMIT
    / 8; otherwise refused where the worst 2-norm condition number exceeds
    COND_LIMIT.
    """
    if inverse is not None:
        norms = np.abs(M).sum(axis=1).max(axis=1)
        cond = float((norms * np.abs(inverse).sum(axis=1).max(axis=1)).max())
        if cond <= COND_LIMIT / 8.0:
            return cond
    try:
        cond2 = float(np.linalg.cond(M).max())
    except np.linalg.LinAlgError:  # the SVD of a non-finite stack
        cond2 = math.inf
    if inverse is None or cond2 > COND_LIMIT:
        raise ConditioningError(
            f"boundary system condition number {cond2:.3e} exceeds "
            f"{COND_LIMIT:g}{' (singular)' if inverse is None else ''} "
            f"(omega={kin.omega:g}, p={kin.p:g}, kind={kin.kind})",
            cond=cond2,
        )
    return cond


def _solve_stack(scenario, kin, lengths, roots, quartic):
    """Amplitude arrays (R1, R2, T1, T2) and the worst 1-norm condition number.

    One ill-conditioned system, or one that misses continuity, refuses
    the whole stack.  At g = 0 the coherent single-frequency slab is
    solved instead, with condition number reported as 1.
    """
    if scenario.g == 0.0:
        R, T = _linear_slab_solution(kin.Omega10, kin.Omega1, lengths)
        zero = np.zeros_like(R)
        return (R, zero, T, zero), 1.0
    M, rhs = _boundary_stack(scenario, kin, lengths, roots, quartic)
    rhs = rhs[:, None]
    # one LU per system: [rhs | I] gives the amplitudes beside M^-1
    try:
        x = np.linalg.solve(M, np.hstack((rhs, np.eye(8))))
    except np.linalg.LinAlgError:  # an exactly singular system
        x = None
    cond = _screen(M, None if x is None else x[..., 1:], kin)
    x = x[..., :1]
    residual = np.abs(M @ x - rhs).max()
    scale = max(np.abs(rhs).max(), 1.0)
    if residual > RESIDUAL_LIMIT * scale:
        raise ConditioningError(
            f"continuity residual {residual:.3e} above {RESIDUAL_LIMIT:g} "
            f"(cond={cond:.3e})",
            cond=cond,
        )
    return x[:, :4, 0].T, cond


def _intensities(kin, R1, R2, T1, T2):
    conv = kin.Omega20 / kin.Omega10
    return {
        "r1": abs(R1) ** 2,
        "t1": abs(T1) ** 2,
        "r2": abs(R2) ** 2 * conv,
        "t2": abs(T2) ** 2 * conv,
    }


def thickness_averaged_intensities(scenario, kin, phases=THICKNESS_PHASES):
    """Intensity coefficients of the mode pair record kin (a
    ResonancePoint), averaged over one fast thickness period.

    Scans l across 2*pi/Omega1 in `phases` uniform steps, holding the
    slow gain envelope essentially fixed (valid for Omega1 * l >> 1);
    phases=1 solves the thickness l alone.
    All phases are solved as one stack; "cond" is the worst 1-norm
    condition number among them.  One phase over COND_LIMIT (by the
    kappa_1 screen, then the 2-norm rule) or over RESIDUAL_LIMIT refuses
    the whole average with a ConditioningError carrying the worst value
    it compared.  phases must be a positive integer.
    """
    if isinstance(phases, bool) or not (isinstance(phases, (int, np.integer)) and phases >= 1):
        raise ValueError(f"phases must be a positive integer, got {phases!r}")
    pairs = _Pairs.of_record(kin)  # refuses a record no resonance solve gives
    if scenario.g == 0.0:  # _solve_stack's linear slab needs no quartic
        return _averaged_intensities(scenario, kin, None, None, phases)
    coeffs, *quartic = _quartic(scenario, pairs)
    return _averaged_intensities(scenario, kin, _quartic_roots(coeffs)[0], quartic, phases)


def _averaged_intensities(scenario, kin, roots, quartic, phases=THICKNESS_PHASES):
    """thickness_averaged_intensities from kin's quartic: roots and (K0, A, B, G, sign)."""
    period = 2.0 * math.pi / kin.Omega1
    lengths = scenario.l + np.arange(phases) * period / phases
    amps, cond = _solve_stack(scenario, kin, lengths, roots, quartic)
    vals = _intensities(kin, *amps)
    out = dict(zip(vals, np.mean(list(vals.values()), axis=1).tolist()))
    out["cond"] = cond
    return out


def series_sum(r10, r20, gamma, omega, omega0, kind="pdc"):
    """Numerically summed multiple-reflection series, first order in gamma.

    Returns (r1, t1, r2, t2).  Matches the closed forms to the geometric
    truncation error r^(2*SERIES_TERMS).  A gamma whose sums could leave
    the float range raises StrongGainError.  A one-element _series_columns.
    """
    sign = kind_sign(kind)
    pair = (np.array([x], dtype=float) for x in (r10, r20, gamma, omega, sign))
    (r1,), (t1,), (r2,), (t2,) = _series_columns(*pair, omega0)
    return float(r1), float(t1), float(r2), float(t2)


def _series_columns(r10, r20, gamma, omega, sign, omega0):
    """series_sum of 1-d columns of pairs (sign +1 pdc, -1 puc), each row
    summed as alone; the first row outside r10, r20 in [0, 1) raises a
    SeriesDomainError, the first whose sums could overflow a
    StrongGainError."""
    inside = (0.0 <= r10) & (r10 < 1.0) & (0.0 <= r20) & (r20 < 1.0)
    if not inside.all():
        j = np.argmin(inside)
        name, r = ("r20", r20[j]) if 0.0 <= r10[j] < 1.0 else ("r10", r10[j])
        raise SeriesDomainError(f"{name}={r:g} outside [0, 1); series diverges")
    t10, t20 = 1.0 - r10, 1.0 - r20
    freq_ratio = (omega0 - sign * omega) / omega  # partner / omega
    # no term or partial sum exceeds (SERIES_TERMS + 1)^2 (1 + |gamma|)
    # max(1, |partner / omega|); refuse a gain that could overflow one
    limit = _SERIES_MAX / np.maximum(np.abs(freq_ratio), 1.0)
    strong = ~(np.abs(gamma) + 1.0 <= limit)
    if strong.any():
        j = np.argmax(strong)
        raise StrongGainError(f"reflection series overflows at omega={omega[j]:g}: "
                              f"gamma={gamma[j]:g}")
    n = np.arange(SERIES_TERMS + 1)
    # one row of terms per pair; numpy sums each row as it sums a 1-d array
    R10, T10, R20, G, S = (x[:, None] for x in (r10, t10, r20, gamma, sign))
    even10, odd, gain = R10 ** (2 * n), 2 * n + 1, 1.0 + S * (n + 1) * G
    # r1 sums over k = n + 1 <= SERIES_TERMS: R10^(2k - 1) (1 + S k G)
    r1 = r10 + np.sum(R10 ** odd[:-1] * T10 * T10 * gain[:, :-1], axis=1)
    t1 = np.sum(T10 * T10 * even10 * gain, axis=1)
    # the double sum over (m, n) separates into a product of two single sums
    base = freq_ratio * gamma * t10 * t20 * np.sum(even10, axis=1)
    r2 = base * np.sum(R20 ** odd, axis=1)
    t2 = base * np.sum(R20 ** (2 * n), axis=1)
    return r1, t1, r2, t2
