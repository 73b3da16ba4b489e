"""A 40-digit reference for the exact oracle's boundary solve.

    amplitudes = reference_solve.solve(scenario, pair, lengths)

pair is one mode pair (a _Pairs row of floats) and lengths its thicknesses.
The reference takes the float Omega1, Omega2, K0 and the float coupling
strength G = g^2 omega0^2 omega partner as exact.  In mpmath at DIGITS
digits it expands the quartic (k^2 - Omega1^2)((k - sign K0)^2 - Omega2^2)
- G, roots it with mpmath.polyroots, builds the mode vectors by
_mode_vectors' rule and the full 8x8 continuity system of each thickness,
and solves that by LU (mpmath.lu_solve's factorization, once per system)
for the four incident ports.  It shares none of the oracle's float
arithmetic, so it measures the oracle's error instead of assuming it.

The unknowns are (R1, R2, T1, T2, c1..c4), c_r scaling the mode vector of
root k_r: the omega field a e^{ikz} and the conjugate field i b e^{ik'z},
k' = k - sign K0, sign the kind_sign.  Rows 0-3 match the omega field, its
derivative, the conjugate field and its derivative on the entrance face
z = 0, rows 4-7 on the exit face z = l.  Outside, R1 rides e^{-i W10 z},
T1 e^{i W10 z}, R2 e^{s i W20 z} and T2 e^{-s i W20 z}, W10 and W20 the
free-space wavenumbers (for pdc the physical conjugate wave is the complex
conjugate).  The ports, in order: omega from the left, partner from the
left, omega from the right, partner from the right, each a unit wave at
the face it enters.  Port 0 is the one the oracle solves.

modes=(roots, a, b), float (4,) arrays such as oracle_modes gives,
replaces the reference's roots and mode vectors; matrices always takes
them.  Then k' and the phase arguments l k are rounded to floats as the
oracle rounds them, so the system is the one the oracle eliminates, entry
for entry to within rounding: the identity tests compare the elimination
alone.  oracle_amplitudes gives the oracle's own amplitudes of the same
pair, and compare both side by side over one record's average.
"""
import numpy as np
from mpmath import mp

import pumpslab.oracle as oracle_mod
from pumpslab.coupled import _Pairs, _quartic, _quartic_roots

DIGITS = 40


def _modes(scenario, pair):
    """The quartic's roots by polyroots and their mode vectors by
    _mode_vectors' rule, in mp: (roots, kp, a, b), each a list of four."""
    K0 = mp.mpf(scenario.pump_wavenumber())
    A, B = mp.mpf(pair.Omega1) ** 2, mp.mpf(pair.Omega2) ** 2
    g, w0 = scenario.g, scenario.omega0
    G = mp.mpf(g * g * w0 * w0 * pair.omega * pair.partner)  # the float strength, as _quartic
    C1 = mp.mpf(scenario.g) * pair.omega * scenario.omega0  # the omega field's coupling
    sK0 = pair.sign * K0
    # (k^2 - A)(k^2 - 2 sK0 k + sK0^2 - B) - G, highest power first
    roots = mp.polyroots([1, -2 * sK0, sK0**2 - B - A, 2 * A * sK0, -A * (sK0**2 - B) - G],
                         maxsteps=200, extraprec=4 * DIGITS)
    kp = [k - sK0 for k in roots]
    a, b = [], []
    for k, q in zip(roots, kp):
        F1, F2 = k * k - A, q * q - B
        x, y = (F2, G / C1) if abs(F1) <= abs(F2) else (C1, F1)
        norm = max(abs(x), abs(y))
        a.append(x / norm)
        b.append(y / norm)
    return roots, kp, a, b


def quartic_roots(scenario, pair):
    """The reference's four quartic roots, rounded to complex128."""
    with mp.workdps(DIGITS):
        return np.array([complex(k) for k in _modes(scenario, pair)[0]])


def _systems(scenario, pair, lengths, modes):
    """The 8x8 continuity matrix of each thickness, as lists of mp rows."""
    s, W10, W20, j = pair.sign, mp.mpf(pair.Omega10), mp.mpf(pair.Omega20), mp.mpc(0, 1)
    lengths = np.ravel(lengths)
    if modes is None:
        roots, kp, a, b = _modes(scenario, pair)
        waves = roots + kp + [W10, -s * W20]
        arguments = [[mp.mpf(l) * k for k in waves] for l in lengths.tolist()]
    else:  # the oracle's floats, k' and l k rounded as it rounds them
        roots, a, b = (np.asarray(x, dtype=complex) for x in modes)
        kp = roots - s * scenario.pump_wavenumber()
        waves = np.concatenate((roots, kp, [pair.Omega10, -s * pair.Omega20]))
        arguments = np.outer(lengths, waves).tolist()
        roots, kp, a, b = ([mp.mpc(x) for x in v.tolist()] for v in (roots, kp, a, b))
    entrance = [(-a[r], -j * roots[r] * a[r], -j * b[r], kp[r] * b[r]) for r in range(4)]
    zero = mp.mpc(0)
    for row in arguments:
        phase = [mp.expj(x) for x in row]
        M = [[zero] * 8 for _ in range(8)]
        M[0][0], M[1][0], M[2][1], M[3][1] = mp.mpc(1), -j * W10, mp.mpc(1), s * j * W20
        M[4][2], M[5][2] = phase[8], j * W10 * phase[8]
        M[6][3], M[7][3] = phase[9], -s * j * W20 * phase[9]
        for r, column in enumerate(entrance):
            for i, x in enumerate(column):
                M[i][4 + r] = x
                M[4 + i][4 + r] = x * phase[r if i < 2 else 4 + r]
        yield M


def _right_hand_sides(pair):
    """The four ports' right-hand sides: a unit wave entering its face."""
    s, W10, W20, j = pair.sign, mp.mpf(pair.Omega10), mp.mpf(pair.Omega20), mp.mpc(0, 1)
    sides = []
    for row, derivative in zip((0, 2, 4, 6), (-j * W10, s * j * W20, j * W10, -s * j * W20)):
        rhs = mp.matrix(8, 1)
        rhs[row], rhs[row + 1] = -1, derivative
        sides.append(rhs)
    return sides


def solve(scenario, pair, lengths, modes=None):
    """The outgoing amplitudes (R1, R2, T1, T2) of each port at each
    thickness, as a complex array (len(lengths), 4 ports, 4)."""
    with mp.workdps(DIGITS):
        sides, out = _right_hand_sides(pair), []
        for M in _systems(scenario, pair, lengths, modes):
            LU, p = mp.LU_decomp(mp.matrix(M))
            out.append([[complex(x) for x in mp.U_solve(LU, mp.L_solve(LU, rhs, p))[:4]]
                        for rhs in sides])
    return np.array(out, dtype=complex)


def matrices(scenario, pair, lengths, modes):
    """The continuity matrices of modes rounded to complex128,
    (len(lengths), 8, 8), and port 0's right-hand side (8,)."""
    with mp.workdps(DIGITS):
        stack = [[complex(x) for row in M for x in row]
                 for M in _systems(scenario, pair, lengths, modes)]
        rhs = [complex(x) for x in _right_hand_sides(pair)[0]]
    return np.array(stack, dtype=complex).reshape(-1, 8, 8), np.array(rhs)


def _columns(pair):
    """pair as the one-row _Pairs columns the oracle takes."""
    return _Pairs(*np.array([pair], dtype=float).T)


def oracle_modes(scenario, pair, roots=None):
    """The oracle's float quartic roots of pair (or the given roots) and
    their _mode_vectors: (roots, a, b), each (4,)."""
    coeffs, K0, A, B, G, sign = _quartic(scenario, _columns(pair))
    roots = _quartic_roots(coeffs)[0] if roots is None else np.asarray(roots, dtype=complex)
    a, b = oracle_mod._mode_vectors(roots, roots - sign[0] * K0, A[0], B[0], G[0],
                                    scenario.g * pair.omega * scenario.omega0)
    return roots, a, b


def oracle_amplitudes(scenario, pair, lengths):
    """The oracle's _reduced_solution of pair alone at the thicknesses
    lengths (N,): (amplitudes (N, 4) as (R1, R2, T1, T2), kappa_1 (N,),
    residual (N,)), from the inputs thickness_averaged_intensities gives it."""
    pairs = _columns(pair)
    coeffs, *quartic = _quartic(scenario, pairs)
    amplitudes, cond, residual = oracle_mod._reduced_solution(
        scenario, pairs, _quartic_roots(coeffs), quartic, np.reshape(lengths, (1, -1)))
    return np.stack(amplitudes, axis=-1)[0], cond[0], residual[0]


def compare(scenario, kin, phases):
    """The record kin's amplitudes (R1, R2, T1, T2) at `phases` thicknesses
    of its average, by the oracle and by the reference's port 0:
    (oracle (phases, 4), exact (phases, 4), the oracle's kappa_1 (phases,))."""
    pair = _Pairs.of_record(kin)
    lengths = oracle_mod._thicknesses(scenario.l, kin.Omega1, phases)
    oracle, cond, _ = oracle_amplitudes(scenario, pair, lengths)
    return oracle, solve(scenario, pair, lengths)[:, 0], cond


def excess(amplitudes):
    """The omega excess t1 + r1 - 1 of each row of port-0 amplitudes."""
    return abs(amplitudes[:, 2]) ** 2 + abs(amplitudes[:, 0]) ** 2 - 1.0
