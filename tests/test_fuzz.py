"""Seeded scenario fuzz: every public entry point fails only with a typed error.

Each draw calibrates a scenario far from the reference one (theta_d,
mu2, omega0, g and l over many decades), a band of 2-40 samples and the
kinds in either order, then runs run_sweep, compare_oracle,
channel_report, epsilon_roots and the CLI on it.  A failure must be a
PumpslabError (the CLI: exit code 1 or 3), every cell of an ok sweep row
must be finite, and so must every cell of an ok or breach oracle row and
every field of an epsilon_roots result.

Two edges the draw reaches are pinned below by one reproducer each: a
counter-propagating shift below the resolution of its root, and
reference shifts in the subnormal range.
"""
import cmath
import math
import os
import warnings

import numpy as np
import pytest

from pumpslab import (CrystalScenario, PumpslabError, ValidityWarning,
                      calibrate_degenerate_angle, channel_report, epsilon_roots,
                      pdc_resonance, puc_resonance)
from pumpslab.cli import main
from pumpslab.sweep import SweepRequest, compare_oracle, run_sweep

SEEDS = (1, 2, 3)
DRAWS = 100  # per seed
_NUMBERS = ("theta_d_deg", "theta_u_deg", "gamma", "r1", "t1", "r2", "t2", "flux_omega",
            "flux_partner", "ratio", "forward_fraction")
_CELLS = ("closed_form", "oracle", "abs_err", "rel_err")


def _draw(rng):
    """One draw for _run: a scenario, a request and the scalar calls' inputs."""
    omega0 = 1.0 if rng.random() < 0.7 else 10.0 ** rng.uniform(-200.0, 200.0)
    lo = rng.uniform(0.02, 2.0)
    kinds = [("pdc",), ("puc",), ("pdc", "puc"), ("puc", "pdc")][rng.integers(4)]
    return dict(
        theta_d_deg=rng.uniform(0.5, 40.0),
        mu2=math.exp(rng.uniform(math.log(1.0001), math.log(50.0))),
        omega0=omega0,
        g=0.0 if rng.random() < 0.15 else 10.0 ** rng.uniform(-12.0, 0.7),
        l=10.0 ** rng.uniform(-3.0, 8.0),
        band=(lo * omega0, (lo + rng.uniform(0.01, 1.0)) * omega0),
        samples=int(rng.integers(2, 41)),
        kinds=kinds,
        exact=bool(rng.random() < 0.3),
        cli_sweep=bool(rng.random() < 0.5),
        at=rng.random(),  # where in the band the scalar entries look
        detuning=rng.choice([0.0, 1e-3, -0.02, 0.5]),
    )


def _typed(call, problems, name):
    """call's result, or None where it raised a PumpslabError; any other
    exception is recorded in problems."""
    try:
        return call()
    except PumpslabError:
        return None
    except Exception as exc:  # recorded, not swallowed
        problems.append(f"{name}: {type(exc).__name__}: {exc}")
        return None


def _run(draw, tally):
    """The problems of one draw, each a description."""
    problems = []
    try:
        model = calibrate_degenerate_angle(math.radians(draw["theta_d_deg"]), draw["mu2"],
                                           omega0=draw["omega0"])
    except PumpslabError:
        tally["calibration_refused"] += 1
        return []
    scenario = CrystalScenario(omega0=draw["omega0"], g=draw["g"], l=draw["l"],
                               dispersion=model)
    request = SweepRequest(scenario, draw["band"], draw["samples"], draw["kinds"])
    rows = _typed(lambda: run_sweep(request), problems, "run_sweep") or []
    for row in rows:
        if row["status"] == "ok":
            tally["sweep_ok"] += 1
            bad = [c for c in _NUMBERS if row[c] is not None and not math.isfinite(row[c])]
            if bad:
                problems.append(f"run_sweep ok row at omega={row['omega']!r} "
                                f"{row['kind']}: non-finite {bad}")
    result = _typed(lambda: compare_oracle(request, include_exact=draw["exact"]),
                    problems, "compare_oracle")
    for row in result[0] if result else ():
        if row["status"] in ("ok", "breach"):
            tally["oracle_cells"] += 1
            if not all(math.isfinite(row[c]) for c in _CELLS):
                problems.append(f"compare_oracle {row['status']} {row['quantity']} row at "
                                f"omega={row['omega']!r} {row['kind']}: non-finite cells")
    lo, hi = draw["band"]
    omega, kind = lo + draw["at"] * (hi - lo), draw["kinds"][0]
    _typed(lambda: channel_report(scenario, omega, kind), problems, "channel_report")
    solve = pdc_resonance if kind == "pdc" else puc_resonance
    res = _typed(lambda: solve(scenario, omega), problems, "resonance")
    if res is not None:
        p = res.p + draw["detuning"] * omega
        eps = _typed(lambda: epsilon_roots(scenario, res, p), problems, "epsilon_roots")
        bad = [name for name, value in (vars(eps) if eps else {}).items()
               if name != "kind" and not cmath.isfinite(value)]
        if bad:
            problems.append(f"epsilon_roots at omega={omega!r} {kind}: non-finite {bad}")
    argv = ["--theta-d-deg", repr(draw["theta_d_deg"]), "--mu2", repr(draw["mu2"]),
            "--omega0", repr(draw["omega0"]), "--g", repr(draw["g"]),
            "--l", repr(draw["l"]), "--band", repr(lo), repr(hi),
            "--samples", str(draw["samples"]),
            "--kind", "both" if len(draw["kinds"]) == 2 else kind, "--output", os.devnull]
    # exit codes: 0 done, 2 an oracle breach, 1 and 3 the typed failures
    sweep = draw["cli_sweep"]
    verb = ["sweep"] if sweep else ["compare-oracle", "--no-exact"]
    code = _typed(lambda: main([*verb, *argv]), problems, "cli")
    if code is not None and code not in ((0, 1, 3) if sweep else (0, 1, 2, 3)):
        problems.append(f"cli exit code {code!r}")
    return problems


def _fuzz(seed, draws=DRAWS):
    rng = np.random.default_rng(seed)
    tally = dict.fromkeys(("calibration_refused", "sweep_ok", "oracle_cells"), 0)
    found = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ValidityWarning)
        for _ in range(draws):
            draw = _draw(rng)
            found += [(draw, text) for text in _run(draw, tally)]
    return tally, found


@pytest.mark.parametrize("seed", SEEDS)
def test_entry_points_fail_typed_and_keep_ok_cells_finite(seed, capsys):
    tally, found = _fuzz(seed)
    capsys.readouterr()  # the CLI's messages on standard error
    assert found == []
    # the draws reach the tables, not only the refusals
    assert tally["sweep_ok"] > 300 and tally["oracle_cells"] > 1000
    assert tally["calibration_refused"] < DRAWS // 2


def _oracle_rows(theta_d_deg, mu2, omega0, g, l, band, samples, kinds, quantity):
    model = calibrate_degenerate_angle(math.radians(theta_d_deg), mu2, omega0=omega0)
    scenario = CrystalScenario(omega0=omega0, g=g, l=l, dispersion=model)
    request = SweepRequest(scenario, (band[0] * omega0, band[1] * omega0), samples, kinds)
    rows = [row for row in compare_oracle(request)[0] if row["quantity"] == quantity]
    assert rows
    return rows


def test_reference_shifts_underflow_at_tiny_omega0():
    # the reference coupling's g^2 omega0^2 omega partner underflows to 0,
    # so eps1 = eps2 = 0: no coupled pair to check, not a 0 / 0 breach
    rows = _oracle_rows(10.0, 1.51, 1e-80, 1e-5, 1e4, (0.3, 0.7), 3, ("pdc",),
                        "quartic_pair_roots")
    assert [row["status"] for row in rows] == ["not_applicable"] * 3
    assert all(row[c] is None for row in rows for c in _CELLS)


def test_subnormal_reference_shifts_are_no_breach():
    # g^2 omega0^2 omega partner at the reference coupling is subnormal, so
    # eps1 and eps2 carry a few bits; the roots solve the quartic of that
    # same float strength, so the pair error still reads 2e-10 - 1e-5
    rows = _oracle_rows(10.0, 1.51, 3e-79, 1e-5, 1e4, (0.3, 0.7), 3, ("pdc",),
                        "quartic_pair_roots")
    assert [row["status"] for row in rows if row["status"] == "breach"] == []


def test_shift_below_the_root_resolution():
    # eps3 lies below the ulps of Omega1, so k3 + Omega1 would round to 0 and
    # rel_err = |closed| / 1e-300 overflow: the row reads k3's offset itself
    rows = _oracle_rows(10.0, 45.0, 1e30, 0.0, 1.0, (0.6, 0.7), 2, ("pdc",), "quartic_eps3")
    assert all(math.isfinite(row[c]) for row in rows for c in _CELLS)
