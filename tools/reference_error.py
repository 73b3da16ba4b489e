"""The exact oracle's error against its 40-digit reference, per coupling.

    python3 tools/reference_error.py

On the reference calibration (theta_d 10 deg, mu(omega0) 1.51, omega0 1)
each (g, kind) resonance at omega OMEGA, g in COUPLINGS, is solved at
PHASES thicknesses across one fast period from L, by the oracle's
_reduced_solution and by tests/reference_solve.py (mpmath, 40 digits).
One line per row gives the oracle's worst kappa_1, the worst relative
error of |T1|, the reference's mean excess t1 + r1 - 1 (a deficit for
puc) and the worst relative error of the excess per thickness.  Runs
from a checkout, installed or not, in under a second.
"""
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]

import reference_solve as reference  # noqa: E402
from pumpslab.kinematics import pdc_resonance, puc_resonance  # noqa: E402
from pumpslab.presets import reference_scenario  # noqa: E402

COUPLINGS = (1e-4, 1e-5, 1e-6, 1e-7)
KINDS = ("pdc", "puc")
OMEGA, L, PHASES = 0.4, 2800.0, 8


def error_row(kind, g, l, omega, phases):
    """One row of the table, as a dict."""
    s = reference_scenario(g=g, l=l)
    kin = (pdc_resonance if kind == "pdc" else puc_resonance)(s, omega)
    oracle, exact, cond = reference.compare(s, kin, phases)
    t1 = [abs(x[:, 2]) for x in (oracle, exact)]
    excess = [reference.excess(x) for x in (oracle, exact)]
    return {"kind": kind, "g": g, "l": l, "omega": omega, "kappa_1": cond.max(),
            "t1_rel_err": (abs(t1[0] - t1[1]) / t1[1]).max(), "excess": excess[1].mean(),
            "excess_rel_err": (abs(excess[0] - excess[1]) / abs(excess[1])).max()}


def format_rows(rows):
    lines = [f"{'kind':4s} {'g':>7s} {'l':>7s} {'omega':>6s} {'kappa_1':>8s} "
             f"{'|T1| rel err':>12s} {'excess':>10s} {'excess rel err':>14s}"]
    for r in rows:
        lines.append(f"{r['kind']:4s} {r['g']:7.0e} {r['l']:7g} {r['omega']:6g} "
                     f"{r['kappa_1']:8.1f} {r['t1_rel_err']:12.1e} {r['excess']:10.3e} "
                     f"{r['excess_rel_err']:14.1e}")
    return lines


def main():
    rows = [error_row(kind, g, L, OMEGA, PHASES) for g in COUPLINGS for kind in KINDS]
    print("\n".join(format_rows(rows)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
