"""Metamorphic relations: maps between scenarios that keep the tables bit for bit.

The model is in c = 1 units, so two maps of a scenario leave its rows
unchanged, and no second model is needed to check them:

- coupling and thickness: (g, l) -> (2g, l/2), at zero detuning, keeps
  every row of run_sweep and degenerate_rows;
- scale: (omega0, band, l) -> (lam omega0, lam band, l/lam), with the
  calibration rebuilt at lam omega0 and g kept, keeps every cell of those
  rows but omega, which scales by lam exactly.  lam is a power of 4: the
  roots of 2x are not exact.

Both run over the seeded draws of the fuzz's calibrations (test_fuzz's
_draw), with both kinds.  Every factor of the maps is a power of two, so
the rows hold bit for bit while each product stays a normal float.  A draw
whose mapped scenario leaves that range is skipped and counted: its
calibration at lam omega0 is refused, or a partial product of the gain
g g l l omega0 omega0 omega partner leaves the normal floats (to a
subnormal, 0 or inf) in either scenario of the pair, at some omega of the
grid and kind.

The scale map also keeps compare_oracle's rows, but for omega and the
cells of the shift checks, which scale by a power of lam (CELL_POWERS):
on the reference calibration with its exact rows, and on the fuzz's draws
without them.  There a draw is skipped too where a partial product of the
shift checks' strength g g omega0 omega0 omega partner, at
QUARTIC_REFERENCE_G, leaves the normal floats.  The draws leave out the
exact rows: the exact oracle's eigvals roots do not scale to the bit, and
on a few draws per seed the exact_excess cells of rows in breach move.
"""
import math
import sys
import warnings

import numpy as np
import pytest
from test_fuzz import DRAWS, SEEDS, _draw

from pumpslab import (CrystalScenario, PumpslabError, ValidityWarning,
                      calibrate_degenerate_angle, compare_oracle, degenerate_rows, run_sweep)
from pumpslab.presets import reference_scenario
from pumpslab.sweep import QUARTIC_REFERENCE_G, SweepRequest

KINDS = ("pdc", "puc")
SCALES = (4.0, 1024.0)
# compare_oracle quantities whose closed_form, oracle and abs_err cells scale
# by lam to this power under the scale map; every other quantity's keep
CELL_POWERS = {"quartic_eps3": 1, "quartic_eps4": 1, "quartic_eps_product": 2}


def _normal_products(*factors):
    """Whether every partial product of factors, in order, is a normal float,
    or all are 0 from a factor 0."""
    if 0.0 in factors:
        return True
    product = 1.0
    for factor in factors:
        product *= factor
        if not sys.float_info.min <= abs(product) <= sys.float_info.max:
            return False
    return True


def _hexed(call):
    """The rows call returns with float cells as hex, or a refusal as its type
    and skip reasons."""
    try:
        return [{key: value.hex() if isinstance(value, float) else value
                 for key, value in row.items()} for row in call()]
    except PumpslabError as exc:
        return type(exc).__name__, getattr(exc, "skip_reasons", None)


def _tables(theta_d_deg, mu2, omega0, g, l, band, samples, oracle=False):
    """(rows of run_sweep, rows of degenerate_rows), or with oracle (rows of
    compare_oracle without exact rows,), as _hexed gives them; None where
    the calibration is refused.  Also whether the gain's products stay
    normal on the grid, and with oracle the reference strength's too."""
    try:
        model = calibrate_degenerate_angle(math.radians(theta_d_deg), mu2, omega0=omega0)
    except PumpslabError:
        return None, False
    scenario = CrystalScenario(omega0=omega0, g=g, l=l, dispersion=model)
    request = SweepRequest(scenario, band, samples, KINDS)
    chains = [(g, g, l, l, omega0, omega0)]
    if oracle:
        chains.append((QUARTIC_REFERENCE_G, QUARTIC_REFERENCE_G, omega0, omega0))
    normal = all(_normal_products(*chain, omega, omega0 - sign * omega) for chain in chains
                 for omega in [*request.grid().tolist(), 0.5 * omega0] for sign in (1.0, -1.0))
    calls = ((lambda: compare_oracle(request, include_exact=False)[0],) if oracle else
             (lambda: run_sweep(request), lambda: degenerate_rows(scenario, KINDS)))
    return [_hexed(call) for call in calls], normal


def _scaled(tables, lam):
    """tables with every row's omega times lam, and an oracle row's
    closed_form, oracle and abs_err times lam to its CELL_POWERS."""
    def times(cell, factor):
        return cell if cell is None else (float.fromhex(cell) * factor).hex()

    def row_scaled(row):
        factor = lam ** CELL_POWERS.get(row.get("quantity"), 0)
        cells = {cell: times(row[cell], factor)
                 for cell in ("closed_form", "oracle", "abs_err") if cell in row}
        return dict(row, omega=times(row["omega"], lam), **cells)

    return [table if isinstance(table, tuple) else [row_scaled(row) for row in table]
            for table in tables]


def _relation(seed, mapped, oracle=False):
    """(draws compared, draws skipped, draws whose tables differ) over the
    fuzz's draws of seed whose calibration holds; mapped takes a draw's
    inputs to the mapped inputs and the scale of the rows' omega.  oracle
    as in _tables."""
    rng = np.random.default_rng(seed)
    compared, skipped, differ = 0, 0, []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ValidityWarning)
        for _ in range(DRAWS):
            draw = _draw(rng)
            inputs = {key: draw[key] for key in ("theta_d_deg", "mu2", "omega0", "g", "l",
                                                 "band", "samples")}
            tables, normal = _tables(**inputs, oracle=oracle)
            if tables is None:
                continue
            inputs, scale = mapped(**inputs)
            mapped_tables, mapped_normal = _tables(**inputs, oracle=oracle)
            if mapped_tables is None or not (normal and mapped_normal):
                skipped += 1
                continue
            compared += 1
            if mapped_tables != _scaled(tables, scale):
                differ.append(inputs)
    return compared, skipped, differ


def _scale_map(lam):
    """The scale map of a draw's inputs, and the scale of its rows' omega."""
    def mapped(omega0, l, band, **inputs):
        return dict(inputs, omega0=lam * omega0, l=l / lam,
                    band=(lam * band[0], lam * band[1])), lam
    return mapped


@pytest.mark.parametrize("seed", SEEDS)
def test_doubled_coupling_on_half_the_thickness_keeps_every_row(seed):
    def mapped(g, l, **inputs):
        return dict(inputs, g=2.0 * g, l=l / 2.0), 1.0

    compared, skipped, differ = _relation(seed, mapped)
    assert differ == []
    assert compared > 60 and skipped < 10


@pytest.mark.parametrize("lam", SCALES)
@pytest.mark.parametrize("seed", SEEDS)
def test_scaled_frequencies_on_a_scaled_down_slab_keep_every_cell_but_omega(seed, lam):
    compared, skipped, differ = _relation(seed, _scale_map(lam))
    assert differ == []
    assert compared > 60 and skipped < 10


@pytest.mark.parametrize("lam", SCALES)
def test_scaled_reference_calibration_keeps_every_oracle_cell_with_exact_rows(lam):
    def tables(omega0, l):
        scenario = reference_scenario(g=1e-5, l=l, omega0=omega0)
        request = SweepRequest(scenario, (0.3 * omega0, 0.7 * omega0), 5, KINDS)
        return [_hexed(lambda: compare_oracle(request)[0])]

    rows = tables(1.0, 2800.0)
    assert len(rows[0]) == 5 * 2 * 11
    assert any(row["quantity"] == "exact_excess" and row["status"] == "ok" for row in rows[0])
    assert tables(lam, 2800.0 / lam) == _scaled(rows, lam)


@pytest.mark.parametrize("lam", SCALES)
@pytest.mark.parametrize("seed", SEEDS)
def test_scaled_frequencies_on_a_scaled_down_slab_keep_every_oracle_cell(seed, lam):
    compared, skipped, differ = _relation(seed, _scale_map(lam), oracle=True)
    assert differ == []
    assert compared > 60 and skipped < 10


@pytest.mark.xfail(strict=True, reason="_tabulate's gain takes g g l l omega0 omega0 ... left to "
                   "right, so a partial product goes subnormal at omega0 1.9e-79 while gamma is "
                   "a normal float, and gamma moves by about 1.6 % under the scale map")
def test_scale_map_keeps_gamma_where_its_partial_products_go_subnormal():
    def gamma(lam):
        omega0 = lam * 1.9e-79
        model = calibrate_degenerate_angle(math.radians(5.79), 4.84, omega0=omega0)
        scenario = CrystalScenario(omega0=omega0, g=2.14e-9, l=1.79e5 / lam, dispersion=model)
        request = SweepRequest(scenario, (0.3 * omega0, 0.7 * omega0), 9, ("pdc",))
        return next(row["gamma"] for row in run_sweep(request) if row["status"] == "ok")

    assert gamma(1.0) > sys.float_info.min
    assert gamma(4.0) == gamma(1.0)
    assert gamma(1024.0) == gamma(1.0)
