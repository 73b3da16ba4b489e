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
"""
import math
import sys
import warnings

import numpy as np
import pytest
from test_fuzz import DRAWS, SEEDS, _draw

from pumpslab import (CrystalScenario, PumpslabError, ValidityWarning,
                      calibrate_degenerate_angle, degenerate_rows, run_sweep)
from pumpslab.sweep import SweepRequest

KINDS = ("pdc", "puc")
SCALES = (4.0, 1024.0)


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


def _tables(theta_d_deg, mu2, omega0, g, l, band, samples):
    """(rows of run_sweep, rows of degenerate_rows) with float cells as hex, a
    refusal as its type and skip reasons; None where the calibration is
    refused.  Also whether the gain's products stay normal on the grid."""
    try:
        model = calibrate_degenerate_angle(math.radians(theta_d_deg), mu2, omega0=omega0)
    except PumpslabError:
        return None, False
    scenario = CrystalScenario(omega0=omega0, g=g, l=l, dispersion=model)
    request = SweepRequest(scenario, band, samples, KINDS)
    normal = all(_normal_products(g, g, l, l, omega0, omega0, omega, omega0 - sign * omega)
                 for omega in [*request.grid().tolist(), 0.5 * omega0] for sign in (1.0, -1.0))
    tables = []
    for call in (lambda: run_sweep(request), lambda: degenerate_rows(scenario, KINDS)):
        try:
            tables.append([{key: value.hex() if isinstance(value, float) else value
                            for key, value in row.items()} for row in call()])
        except PumpslabError as exc:
            tables.append((type(exc).__name__, getattr(exc, "skip_reasons", None)))
    return tables, normal


def _scaled_omega(tables, lam):
    """tables with every row's omega times lam."""
    return [table if isinstance(table, tuple) else
            [dict(row, omega=(float.fromhex(row["omega"]) * lam).hex()) for row in table]
            for table in tables]


def _relation(seed, mapped):
    """(draws compared, draws skipped, draws whose tables differ) over the
    fuzz's draws of seed whose calibration holds; mapped takes a draw's
    inputs to the mapped inputs and the map of the rows' omega."""
    rng = np.random.default_rng(seed)
    compared, skipped, differ = 0, 0, []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ValidityWarning)
        for _ in range(DRAWS):
            draw = _draw(rng)
            inputs = {key: draw[key] for key in ("theta_d_deg", "mu2", "omega0", "g", "l",
                                                 "band", "samples")}
            tables, normal = _tables(**inputs)
            if tables is None:
                continue
            inputs, scale = mapped(**inputs)
            mapped_tables, mapped_normal = _tables(**inputs)
            if mapped_tables is None or not (normal and mapped_normal):
                skipped += 1
                continue
            compared += 1
            if mapped_tables != _scaled_omega(tables, scale):
                differ.append(inputs)
    return compared, skipped, differ


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
    def mapped(omega0, l, band, **inputs):
        return dict(inputs, omega0=lam * omega0, l=l / lam,
                    band=(lam * band[0], lam * band[1])), lam

    compared, skipped, differ = _relation(seed, mapped)
    assert differ == []
    assert compared > 60 and skipped < 10

