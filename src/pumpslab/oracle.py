"""Brute-force validators for the iterative/incoherent approximations.

Two independent references live here:

thickness_averaged_intensities
    Direct solution of the eight continuity equations (field and normal
    derivative, both frequencies, both faces) for a resonant mode pair,
    using the exact quartic wavenumbers.  Every interference phase the
    two-step iteration and the incoherent series discard is kept, which
    makes this the anchor all approximations are measured against.  Real
    slabs are never cut to a fraction of a wavelength, so comparisons
    average the fast thickness phase over one period; phases=1 solves the
    thickness l alone.

    The unknowns are R1, R2, T1, T2 and the amplitudes c of the four
    modes: quartic root k carries the omega field a e^{ikz} and the
    conjugate field i b e^{i(k - sign K0)z}, (a, b) its _mode_vectors and
    sign +1 for pdc, -1 for puc.  Rows 0-3 match both fields and their
    derivatives on the entrance face, rows 4-7 on the exit face; only
    these carry the thickness, as e^{ikl} phases.  R1, R2, T1 and T2 each
    appear in one pair of rows with constant coefficients, so constant
    2x2 row operations eliminate them, leaving a 4x4 system S(l) c = f =
    (-2i W10, 0, 0, 0) in the mode amplitudes c; the four outgoing
    amplitudes are f (V S^-1)[:, 0] up to unit factors, V's rows the mode
    fields on both faces.  Mode pairs come as _Pairs columns (one row from
    thickness_averaged_intensities); the oracle builds their quartic and
    its roots itself, and every thickness of each EXACT_CHUNK pairs is one
    (n, N, 4, 4) stack, inverted by one batched LU.  A chunk holding an
    exactly singular system is inverted pair by pair, so a refusal touches
    only its own pair.  A partner-incident wave would be 2s i W20 times
    column 1 of S^-1 and V S^-1.  g = 0 stacks the 4x4 coherent slab
    instead.  The 8x8 itself is never built here: its 40-digit reference,
    which the tests check this reduction against, is
    tests/reference_solve.py.

    A pair is refused where the worst 1-norm condition number kappa_1 =
    ||M||_1 ||M^-1||_1 of its full 8x8 systems M exceeds COND_LIMIT (inf
    where S is singular or not finite; M^-1 is (LM)^-1 L for the row
    operations L, so it comes from S^-1), else where the continuity
    residual max |S c - f|, which is M x - rhs row for row, exceeds
    RESIDUAL_LIMIT max(W10, 1) at a thickness.

series_sum
    Explicit term-by-term summation of the multiple-reflection intensity
    series whose closed forms the coupled module uses.
"""
import contextlib
import math

import numpy as np

from .coupled import _Pairs, _quartic, _quartic_roots
from .errors import ConditioningError, GeometryError, SeriesDomainError, StrongGainError
from .kinematics import kind_sign

COND_LIMIT = 1e12
RESIDUAL_LIMIT = 1e-10
THICKNESS_PHASES = 64  # thickness steps across one fast period
EXACT_CHUNK = 16  # mode pairs per reduced stack: bounds its memory
SERIES_BLOCK = 41  # reflection terms per block of the series sums
SERIES_BLOCKS = 16  # blocks at most: sums reach rounding for r below about 0.973
# block b >= 1 is summed where r >= _SERIES_R[b - 1], that is where its first
# term r^(2n) is at least eps; no term or partial sum of N terms exceeds
# N^2 (1 + |gamma|), so b + 1 blocks take gains up to _SERIES_MAX[b] - 1
_SERIES_R = np.finfo(float).eps ** (1.0 / (2 * SERIES_BLOCK * np.arange(1, SERIES_BLOCKS)))
_SERIES_MAX = np.finfo(float).max / (SERIES_BLOCK * np.arange(1, SERIES_BLOCKS + 1)) ** 2


def _mode_vectors(roots, kp, A, B, G, C1):
    """Unit-normalized mode vectors (a, b) of quartic roots, kp = roots -
    sign K0: root k carries the omega field a e^{ikz} and the conjugate
    field i b e^{i(k - sign K0)z}.  Arrays broadcast, element by element."""
    F1 = roots * roots - A
    F2 = kp**2 - B
    # both (F2, G/C1) and (C1, F1) solve F1 a = C1 b at a root (F1 F2 = G);
    # take the one built from the larger factor, which has no cancellation
    omega_like = np.abs(F1) <= np.abs(F2)
    a = np.where(omega_like, F2, C1)
    b = np.where(omega_like, G / C1, F1)
    norm = np.maximum(np.abs(a), np.abs(b))
    return a / norm, b / norm


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


def _thicknesses(l, Omega1, phases):
    """phases uniform thickness steps from l across one fast period 2 pi / Omega1."""
    return l + np.arange(phases) * (2.0 * math.pi / Omega1) / phases


def _mean_intensities(conv, R1, R2, T1, T2):
    """r1, t1, r2, t2 averaged over the last (thickness) axis; conv is
    Omega20 / Omega10, the partner's flux per unit intensity."""
    return np.mean([abs(R1) ** 2, abs(T1) ** 2, abs(R2) ** 2 * conv, abs(T2) ** 2 * conv],
                   axis=-1)


_INTENSITIES = ("r1", "t1", "r2", "t2")


def _reduced_stack(rows, eik, eikp):
    """The (n, N, 4, 4) stack S(l): the constant rows (n, 4, 4) of each
    pair, rows 2 and 3 times e^{ikl} and e^{i(k - sign K0)l}, the (n, N,
    4) phase factors eik and eikp of every thickness."""
    S = np.empty(eik.shape[:2] + (4, 4), dtype=complex)
    S[..., :2, :] = rows[:, None, :2]
    S[..., 2, :] = rows[:, None, 2] * eik
    S[..., 3, :] = rows[:, None, 3] * eikp
    return S


def _column_sums(X):
    """The absolute column sums of a stack of 4x4 matrices."""
    X = abs(X)
    return X[..., 0, :] + X[..., 1, :] + X[..., 2, :] + X[..., 3, :]


def _reduced_solution(scenario, pairs, roots, quartic, lengths):
    """The boundary systems of mode pairs (g > 0) at thicknesses lengths
    (n, N), solved on their 4x4 mode-amplitude core.

    pairs are _Pairs of 1-d columns, roots their quartic roots (n, 4) and
    quartic their (K0, A, B, G, sign), columns but K0.  Returns ((R1, R2,
    T1, T2), kappa_1, residual), all (n, N): the amplitudes, f (V
    S^-1)[:, 0] up to unit factors, the 1-norm condition number of each
    full 8x8 system (inf where S is not finite, and throughout a pair with
    an exactly singular S, whose other values are NaN) and the continuity
    residual max |S c - f|, equal to M x - rhs row for row.
    """
    omega, W10, W20 = pairs.omega[:, None], pairs.Omega10[:, None], pairs.Omega20[:, None]
    K0, (A, B, G, sign) = quartic[0], (x[:, None] for x in quartic[1:])
    kp = roots - sign * K0
    a, b = _mode_vectors(roots, kp, A, B, G, scenario.g * omega * scenario.omega0)
    phase = np.exp(1j * (lengths[..., None] * np.hstack((roots, kp, W10, -sign * W20))[:, None]))
    eik, eikp, e1, e2 = phase[..., :4], phase[..., 4:8], phase[..., 8], phase[..., 9]

    # rows 1 + i W10 row 0, 3 - s i W20 row 2, 5 - i W10 row 4 and 7 + s i
    # W20 row 6 of the 8x8 continuity system drop R1, R2, T1 and T2:
    # S(l) c = (f, 0, 0, 0), f = -2i W10.  One batched LU gives S^-1; with
    # one nonzero entry on the right, c is f times S^-1's column 0, as
    # accurate as a solve for it
    S = _reduced_stack(np.stack((-1j * (roots + W10) * a, (kp - sign * W20) * b,
                                 -1j * (roots - W10) * a, (kp + sign * W20) * b), axis=1),
                       eik, eikp)
    try:
        inverse = np.linalg.inv(S)
    except np.linalg.LinAlgError:  # an exactly singular system: pair by pair
        inverse = np.full_like(S, np.nan)
        for i in range(len(S)):
            with contextlib.suppress(np.linalg.LinAlgError):
                inverse[i] = np.linalg.inv(S[i])

    # rows 0, 2, 4 and 6 give R1 + 1, R2, T1 and T2 as unit factors (1, i,
    # e^{-i W10 l}, i e^{s i W20 l}; W10, W20 are real) times V c = f (V
    # S^-1)[:, 0], V's rows a, b, a e^{ikl} and b e^{ik'l}.  As they define
    # the amplitudes, M x - rhs on the other four rows is S c - (f, 0, 0, 0)
    V = np.empty_like(S)
    V[..., :2, :] = np.stack((a, b), axis=1)[:, None]
    V[..., 2, :] = a[:, None] * eik
    V[..., 3, :] = b[:, None] * eikp
    Y = V @ inverse
    f = -2j * W10[..., None, None]  # (n, 1, 1, 1)
    Vc = f[..., 0] * Y[..., 0]
    R1, R2 = Vc[..., 0] - 1.0, 1j * Vc[..., 1]
    T1, T2 = e1.conj() * Vc[..., 2], 1j * e2.conj() * Vc[..., 3]
    residual = abs(S @ (f * inverse[..., :1]) - f * np.eye(4)[:, :1]).max(axis=(-2, -1))

    # kappa_1 = ||M||_1 ||M^-1||_1 of the full 8x8.  For the row operations
    # L above, M^-1 = (LM)^-1 L: its columns 1, 3, 5, 7 are [V S^-1; S^-1]
    # up to those unit factors, and columns 0, 2, 4, 6 are W10, W20, W10,
    # W20 times them in modulus, but for the one entry 1 + mu (V S^-1)_jj
    # that the eliminated amplitude adds on row j
    odd = _column_sums(Y) + _column_sums(inverse)
    diag = np.diagonal(Y, axis1=-2, axis2=-1)
    weight = np.hstack((W10, W20, W10, W20))[:, None]
    mu = np.hstack((1j * W10, sign * W20, -1j * W10, -sign * W20))[:, None]
    even = weight * (odd - abs(diag)) + abs(1.0 + mu * diag)
    # M's 1-norm: columns R1, R2, T1, T2 give 1 + W10 or 1 + W20, root r's
    # |a|(1 + |k|) and |b|(1 + |k'|) on the entrance face, times |e^{ikl}|
    # and |e^{ik'l}| on the exit face
    columns = ((abs(a) * (1.0 + abs(roots)))[:, None] * (1.0 + abs(eik))
               + (abs(b) * (1.0 + abs(kp)))[:, None] * (1.0 + abs(eikp)))
    norm = np.maximum(columns.max(axis=-1), 1.0 + np.maximum(W10, W20))
    cond = norm * np.maximum(odd, even).max(axis=-1)
    return (R1, R2, T1, T2), np.where(np.isnan(cond), np.inf, cond), residual


def _exact_averages(scenario, pairs, phases=THICKNESS_PHASES):
    """thickness_averaged_intensities of resonant mode pairs at g > 0, from
    one reduced stack of all thicknesses of each EXACT_CHUNK pairs.

    pairs are _Pairs of 1-d columns; their quartic and its roots come from
    one _quartic and one _quartic_roots call.  Returns per pair its
    intensities, or the ConditioningError that refuses it (where its worst
    kappa_1 exceeds COND_LIMIT, else where a residual exceeds
    RESIDUAL_LIMIT); a refusal touches no other pair.
    """
    coeffs, K0, *columns = _quartic(scenario, pairs)
    roots, out = _quartic_roots(coeffs), []
    for start in range(0, len(roots), EXACT_CHUNK):
        chunk = slice(start, start + EXACT_CHUNK)
        part = _Pairs(*(x[chunk] for x in pairs))
        lengths = _thicknesses(scenario.l, part.Omega1[:, None], phases)
        amplitudes, cond, residual = _reduced_solution(
            scenario, part, roots[chunk], (K0, *(x[chunk] for x in columns)), lengths)
        means = _mean_intensities((part.Omega20 / part.Omega10)[:, None],
                                  *amplitudes).T.tolist()
        for i, (worst, missed, scale) in enumerate(zip(
                cond.max(axis=1).tolist(), residual.max(axis=1).tolist(),
                part.Omega10.tolist())):
            if not worst <= COND_LIMIT:
                text = f"boundary system condition number {worst:.3e} exceeds {COND_LIMIT:g}"
            elif missed > RESIDUAL_LIMIT * max(scale, 1.0):
                text = (f"continuity residual {missed:.3e} above {RESIDUAL_LIMIT:g} "
                        f"(cond={worst:.3e})")
            else:
                out.append({**dict(zip(_INTENSITIES, means[i])), "cond": worst})
                continue
            kind = "pdc" if part.sign[i] > 0.0 else "puc"
            out.append(ConditioningError(f"{text} (omega={part.omega[i]:g}, p={part.p0[i]:g}, "
                                         f"kind={kind})", cond=worst))
    return out


def thickness_averaged_intensities(scenario, kin, phases=THICKNESS_PHASES):
    """Intensity coefficients of the mode pair record kin (a
    ResonancePoint), averaged over one fast thickness period.

    Scans l across 2*pi/Omega1 in `phases` uniform steps, holding the
    slow gain envelope essentially fixed (valid for Omega1 * l >> 1);
    phases=1 solves the thickness l alone.
    All phases are solved as one stack; "cond" is the worst 1-norm
    condition number among them.  One phase over COND_LIMIT or over
    RESIDUAL_LIMIT refuses the whole average with a ConditioningError
    naming the pair and carrying that worst cond.  phases must be a
    positive integer.  At g = 0 the coherent single-frequency slab is
    solved instead, with condition number reported as 1.  _exact_averages
    of the pair as one-row columns.
    """
    if isinstance(phases, bool) or not (isinstance(phases, (int, np.integer)) and phases >= 1):
        raise ValueError(f"phases must be a positive integer, got {phases!r}")
    pair = _Pairs.of_record(kin)  # refuses a record no resonance solve gives
    if scenario.g == 0.0:  # the linear slab needs no quartic
        R, T = _linear_slab_solution(kin.Omega10, kin.Omega1,
                                     _thicknesses(scenario.l, kin.Omega1, phases))
        zero = np.zeros_like(R)
        means = _mean_intensities(kin.Omega20 / kin.Omega10, R, zero, T, zero)
        return {**dict(zip(_INTENSITIES, means.tolist())), "cond": 1.0}
    (averaged,) = _exact_averages(scenario, _Pairs(*np.array([pair]).T), phases)
    if isinstance(averaged, ConditioningError):
        raise averaged
    return averaged


def series_sum(r10, r20, gamma, omega, omega0, kind="pdc"):
    """Numerically summed multiple-reflection series, first order in gamma.

    Returns (r1, t1, r2, t2).  Sums whole blocks of SERIES_BLOCK terms
    while the next block's first term r^(2n), r the larger of r10 and r20,
    is at least eps, so they match the closed forms to rounding; past
    SERIES_BLOCKS blocks the truncation is r^(2 SERIES_BLOCK SERIES_BLOCKS).
    omega, omega0 and the partner omega0 -+ omega must be positive and
    finite, else a GeometryError; a gamma whose sums could leave the float
    range raises StrongGainError.  A one-element _series_columns.
    """
    sign = kind_sign(kind)
    partner = omega0 - sign * omega
    if not (0.0 < omega < math.inf and 0.0 < omega0 < math.inf and 0.0 < partner < math.inf):
        raise GeometryError(f"omega={omega:g}, omega0={omega0:g} and partner={partner:g} "
                            "must be positive and finite")
    pair = (np.array([x], dtype=float) for x in (r10, r20, gamma, omega, partner, sign))
    (r1,), (t1,), (r2,), (t2,) = _series_columns(*pair)
    return float(r1), float(t1), float(r2), float(t2)


def _series_columns(r10, r20, gamma, omega, partner, sign):
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
    freq_ratio = partner / omega
    blocks = np.searchsorted(_SERIES_R, np.maximum(r10, r20), side="right")  # past block 0
    # the partner sums carry partner / omega: refuse a gain that could overflow
    limit = _SERIES_MAX[blocks] / np.maximum(np.abs(freq_ratio), 1.0)
    strong = ~(np.abs(gamma) + 1.0 <= limit)
    if strong.any():
        j = np.argmax(strong)
        raise StrongGainError(f"reflection series overflows at omega={omega[j]:g}: "
                              f"gamma={gamma[j]:g}")
    for b in range(blocks.max(initial=0) + 1):
        rows = np.flatnonzero(blocks >= b) if b else slice(None)
        # n over block b and one past it: r1 sums R10^(2k - 1) (1 + S k G) over
        # the block's k = n >= 1, t1 R10^(2n) (1 + S (n + 1) G) over its n
        n = np.arange(b * SERIES_BLOCK, (b + 1) * SERIES_BLOCK + 1)
        lo, e = int(b == 0), 2 * n[:-1]
        # one row of terms per pair; numpy sums each row as it sums a 1-d array
        R10, T10, R20, G, S = (x[rows, None] for x in (r10, t10, r20, gamma, sign))
        even10, gain = R10 ** e, 1.0 + S * n * G
        block = [np.sum(x, axis=1) for x in (
            R10 ** (e[lo:] - 1) * T10 * T10 * gain[:, lo:-1],
            T10 * T10 * even10 * gain[:, 1:], even10, R20 ** (e + 1), R20 ** e)]
        if b == 0:
            sums = block
        else:
            for total, part in zip(sums, block):
                total[rows] += part
    r1, t1, even10, odd20, even20 = sums
    # the double sum over (m, n) separates into a product of two single sums
    base = freq_ratio * gamma * t10 * t20 * even10
    return r10 + r1, t1, base * odd20, base * even20
