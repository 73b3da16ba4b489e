"""Brute-force validators for the iterative/incoherent approximations.

Two independent references live here:

exact_solve
    Direct solution of the eight continuity equations (field and normal
    derivative, both frequencies, both faces) using the exact quartic
    wavenumbers.  Every interference phase the two-step iteration and the
    incoherent series discard is kept, which makes this the anchor all
    approximations are measured against.  Real slabs are never cut to a
    fraction of a wavelength, so comparisons average the fast thickness
    phase over one period.

    The quartic roots and mode vectors do not depend on the thickness l;
    only the exit-face rows 4-7 carry its e^{ikl} phases.  So the systems
    for every thickness of an average are built as one (N, 8, 8) stack by
    broadcasting, conditioned (2-norm), solved and residual-checked with
    one batched numpy call each; exact_solve is the one-thickness case of
    the same code, and g = 0 stacks the 4x4 coherent slab the same way.

series_sum
    Explicit term-by-term summation of the multiple-reflection intensity
    series whose closed forms the coupled module uses.
"""
import math
from dataclasses import dataclass

import numpy as np

from .coupled import quartic_coefficients
from .errors import ConditioningError, SeriesDomainError
from .kinematics import longitudinal

COND_LIMIT = 1e12
RESIDUAL_LIMIT = 1e-10
UNKNOWN_LABELS = ("R1", "R2", "T1", "T2", "A1", "A2", "A3", "A4")


@dataclass(frozen=True)
class ScatterSolution:
    """Eight boundary-matching amplitudes for one incident unit mode."""

    R1: complex
    R2: complex
    T1: complex
    T2: complex
    A1: complex
    A2: complex
    A3: complex
    A4: complex
    kind: str
    cond: float


@dataclass(frozen=True)
class BoundarySystem:
    """8x8 continuity system in the unknowns (R1, R2, T1, T2, c1..c4).

    c_r scale unit-normalized internal mode vectors; modes carry the
    omega-field and conjugate-field components of one quartic root each.
    """

    matrix: np.ndarray
    rhs: np.ndarray
    mode_vectors: np.ndarray  # (4, 2) columns: omega-field, partner-field
    wavenumbers: np.ndarray
    cond: float


def _boundary_stack(scenario, kin, lengths):
    """Continuity matrices for one incident unit mode at every thickness.

    Returns (matrices (N, 8, 8), rhs (8,), mode_vectors (4, 2), roots).
    The roots and mode vectors do not depend on the thickness; only the
    exit-face rows 4-7 carry its phase factors.
    """
    coeffs, K0, A, B, G, sign = quartic_coefficients(scenario, kin)
    roots = np.roots(coeffs)
    C1 = scenario.g * kin.omega * scenario.omega0
    kp = roots + sign * K0
    F1 = roots * roots - A
    F2 = kp**2 - B
    # both (F2, G/C1) and (C1, F1) solve F1 a = C1 b at a root (F1 F2 = G);
    # take the one built from the larger factor, which has no cancellation
    omega_like = np.abs(F1) <= np.abs(F2)
    a = np.where(omega_like, F2, C1)
    b = np.where(omega_like, G / C1, F1)
    norm = np.maximum(np.abs(a), np.abs(b))
    vectors = np.stack([a / norm, b / norm], axis=1)
    a, b = vectors.T

    # carriers: omega field a e^{ikz}; conjugate field i b e^{i(k + s K0) z}
    W10, W20 = kin.Omega10, kin.Omega20
    M = np.zeros((len(lengths), 8, 8), dtype=complex)
    M[:, 0, 4:] = -a
    M[:, 1, 4:] = -1j * roots * a
    M[:, 2, 4:] = -1j * b
    M[:, 3, 4:] = kp * b
    M[:, 4:6, 4:] = M[:, 0:2, 4:] * np.exp(1j * np.outer(lengths, roots))[:, None]
    M[:, 6:8, 4:] = M[:, 2:4, 4:] * np.exp(1j * np.outer(lengths, kp))[:, None]
    M[:, 0, 0] = 1.0
    M[:, 1, 0] = -1j * W10
    M[:, 4, 2] = np.exp(1j * W10 * lengths)
    M[:, 5, 2] = 1j * W10 * M[:, 4, 2]
    # conjugate amplitudes: transmitted rides e^{s i W20 z}, reflected
    # e^{-s i W20 z} (for pdc the physical wave is the complex conjugate)
    M[:, 2, 1] = 1.0
    M[:, 3, 1] = -sign * 1j * W20
    M[:, 6, 3] = np.exp(sign * 1j * W20 * lengths)
    M[:, 7, 3] = sign * 1j * W20 * M[:, 6, 3]
    rhs = np.zeros(8, dtype=complex)
    rhs[0] = -1.0
    rhs[1] = -1j * W10
    return M, rhs, vectors, roots


def build_boundary_system(scenario, omega, p, kind):
    """Assemble the continuity equations for one incident unit mode.

    Requires g > 0; at g = 0 the paired wavenumbers coincide and the
    system degenerates into two independent single-frequency problems,
    which exact_solve handles separately.
    """
    if scenario.g == 0.0:
        raise ValueError("coupled system needs g > 0; use exact_solve at g = 0")
    kin = longitudinal(scenario, omega, p, kind)
    M, rhs, vectors, roots = _boundary_stack(scenario, kin, np.array([scenario.l]))
    return BoundarySystem(
        matrix=M[0], rhs=rhs, mode_vectors=vectors, wavenumbers=roots,
        cond=float(np.linalg.cond(M[0])),
    )


def _linear_slab_solution(W0, W, lengths):
    """Coherent single-frequency slab per thickness: (N, 4) of (R, T, a_fwd, a_bwd)."""
    phase0 = np.exp(1j * W0 * lengths)
    fwd = np.exp(1j * W * lengths)
    bwd = np.exp(-1j * W * lengths)
    M = np.zeros((len(lengths), 4, 4), dtype=complex)
    M[:, 0] = [1.0, 0.0, -1.0, -1.0]
    M[:, 1] = [-W0, 0.0, -W, W]
    M[:, 2, 1:] = np.stack([phase0, -fwd, -bwd], axis=1)
    M[:, 3, 1:] = np.stack([W0 * phase0, -W * fwd, W * bwd], axis=1)
    rhs = np.array([[-1.0], [-W0], [0.0], [0.0]], dtype=complex)
    return np.linalg.solve(M, rhs)[..., 0]


def _solve_stack(scenario, kin, lengths):
    """Amplitudes (N, 8) in UNKNOWN_LABELS order and the worst condition number.

    One ill-conditioned system, or one that misses continuity, refuses
    the whole stack.  At g = 0 the coherent single-frequency slab is
    solved instead, with condition number reported as 1.
    """
    amps = np.zeros((len(lengths), 8), dtype=complex)
    if scenario.g == 0.0:
        amps[:, [0, 2, 4, 6]] = _linear_slab_solution(kin.Omega10, kin.Omega1, lengths)
        return amps, 1.0
    M, rhs, vectors, _ = _boundary_stack(scenario, kin, lengths)
    cond = float(np.linalg.cond(M).max())
    if cond > COND_LIMIT:
        raise ConditioningError(
            f"boundary system condition number {cond:.3e} exceeds "
            f"{COND_LIMIT:g} (omega={kin.omega:g}, p={kin.p:g}, "
            f"kind={kin.kind})",
            cond=cond,
        )
    rhs = rhs[:, None]
    x = np.linalg.solve(M, rhs)
    residual = np.abs(M @ x - rhs).max()
    scale = max(np.abs(rhs).max(), 1.0)
    if residual > RESIDUAL_LIMIT * scale:
        raise ConditioningError(
            f"continuity residual {residual:.3e} above {RESIDUAL_LIMIT:g} "
            f"(cond={cond:.3e})",
            cond=cond,
        )
    amps[:, :4] = x[:, :4, 0]
    # A1..A3 are omega-field amplitudes, A4 the conjugate field of mode 4
    amps[:, 4:] = x[:, 4:, 0] * vectors[[0, 1, 2, 3], [0, 0, 0, 1]]
    return amps, cond


def exact_solve(scenario, omega, p, kind):
    """All eight amplitudes from the full continuity system.

    Refuses ill-conditioned systems (cond > 1e12) instead of returning
    noise; the returned solution keeps every interference phase.
    """
    kin = longitudinal(scenario, omega, p, kind)
    amps, cond = _solve_stack(scenario, kin, np.array([scenario.l]))
    return ScatterSolution(
        **dict(zip(UNKNOWN_LABELS, amps[0])), kind=kind, cond=cond
    )


def _intensities(kin, R1, R2, T1, T2):
    conv = kin.Omega20 / kin.Omega10
    return {
        "r1": abs(R1) ** 2,
        "t1": abs(T1) ** 2,
        "r2": abs(R2) ** 2 * conv,
        "t2": abs(T2) ** 2 * conv,
    }


def poynting_intensities(scenario, omega, p, kind, solution=None):
    """Intensity coefficients (r1, t1, r2, t2) of an exact solution.

    Every coefficient is a z-Poynting ratio against the incident wave.
    """
    kin = longitudinal(scenario, omega, p, kind)
    if solution is None:
        solution = exact_solve(scenario, omega, p, kind)
    return _intensities(kin, solution.R1, solution.R2, solution.T1, solution.T2)


def thickness_averaged_intensities(scenario, omega, p, kind, phases=64):
    """Intensity coefficients averaged over one fast thickness period.

    Scans l across 2*pi/Omega1 in `phases` uniform steps, holding the
    slow gain envelope essentially fixed (valid for Omega1 * l >> 1).
    All phases are solved as one stack; "cond" is the worst of them, and
    one phase over COND_LIMIT or RESIDUAL_LIMIT refuses the whole average
    with a ConditioningError carrying that worst cond.
    """
    kin = longitudinal(scenario, omega, p, kind)
    period = 2.0 * math.pi / kin.Omega1
    lengths = scenario.l + np.arange(phases) * period / phases
    amps, cond = _solve_stack(scenario, kin, lengths)
    vals = _intensities(kin, *amps[:, :4].T)
    out = {key: float(val.mean()) for key, val in vals.items()}
    out["cond"] = cond
    return out


def series_sum(r10, r20, gamma, omega, omega0, kind="pdc", terms=40):
    """Numerically summed multiple-reflection series, first order in gamma.

    Returns (r1, t1, r2, t2).  Matches the closed forms to the geometric
    truncation error r^(2*terms).
    """
    for name, r in (("r10", r10), ("r20", r20)):
        if not 0.0 <= r < 1.0:
            raise SeriesDomainError(f"{name}={r:g} outside [0, 1); series diverges")
    t10, t20 = 1.0 - r10, 1.0 - r20
    sign = 1.0 if kind == "pdc" else -1.0
    partner = omega0 - omega if kind == "pdc" else omega0 + omega
    freq_ratio = partner / omega
    n = np.arange(terms + 1)
    k = n[1:]
    r1 = r10 + np.sum(r10 ** (2 * k - 1) * t10 * t10 * (1.0 + sign * k * gamma))
    t1 = np.sum(t10 * t10 * r10 ** (2 * n) * (1.0 + sign * (n + 1) * gamma))
    # the double sum over (m, n) separates into a product of two single sums
    base = freq_ratio * gamma * t10 * t20 * np.sum(r10 ** (2 * n))
    r2 = base * np.sum(r20 ** (2 * n + 1))
    t2 = base * np.sum(r20 ** (2 * n))
    return float(r1), float(t1), float(r2), float(t2)
