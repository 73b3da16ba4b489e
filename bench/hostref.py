"""Fixed host-reference kernel that every request is normalized by.

Raw wall time on a shared host drifts between runs by far more than the
changes the benchmark must resolve.  Timing this kernel right before each
request and dividing gives a figure in "reference units" that cancels most
of that drift.  The kernel mixes the two kinds of work pumpslab does:
scalar Python arithmetic (the sweep's root finding) and small LAPACK calls
through numpy (the oracle's 8x8 solves, quartic roots and condition
numbers).

The kernel must stay identical on every commit: changing it rescales every
normalized metric.
"""
import math

import numpy as np

SCALAR_STEPS = 20000
LAPACK_ROUNDS = 100


def _fixed_inputs():
    rng = np.random.default_rng(20240917)
    matrix = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    rhs = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    quartic = np.array([1.0, -2.1, 0.3, 1.7, -0.4])
    return matrix, rhs, quartic


_MATRIX, _RHS, _QUARTIC = _fixed_inputs()


def host_reference_kernel():
    """Run the fixed kernel once; returns a checksum so no call is elided."""
    acc = 0.0
    for i in range(1, SCALAR_STEPS + 1):
        acc += math.sqrt(i)
    for _ in range(LAPACK_ROUNDS):
        x = np.linalg.solve(_MATRIX, _RHS)
        r = np.roots(_QUARTIC)
        c = np.linalg.cond(_MATRIX)
        acc += x[0].real + r[0].real + c
    return acc
