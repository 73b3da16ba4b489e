"""Frequency sweeps, oracle comparison tables and row serialization.

Rows are plain dicts with a fixed column order so that CSV and JSON-lines
outputs carry identical values.  Floats are rounded to 12 significant
digits at the formatting boundary, which makes repeated runs byte-stable.
"""
import io
import json
from collections import Counter
from dataclasses import dataclass, replace

import numpy as np

from .coupled import (STATUS_REASONS, ChannelReport, _record_roots, _sorted_wavenumbers,
                      epsilon_table, report_table)
from .errors import ConditioningError, SweepError
from .kinematics import _resonance_grid, check_kind
from .oracle import _averaged_intensities, series_sum

SWEEP_COLUMNS = (
    "omega",
    "kind",
    "status",
    "theta_d_deg",
    "theta_u_deg",
    "gamma",
    "r1",
    "t1",
    "r2",
    "t2",
    "flux_omega",
    "flux_partner",
    "ratio",
    "forward_fraction",
)

ORACLE_COLUMNS = (
    "omega",
    "kind",
    "quantity",
    "status",
    "closed_form",
    "oracle",
    "abs_err",
    "rel_err",
    "tol",
)

IDENTITY_TOL = 1e-10
SERIES_TOL = 1e-12
QUARTIC_TOL = 1e-3
QUARTIC_REFERENCE_G = 1e-4  # shift validation runs at a fixed weak coupling
EXACT_TOL = 2e-2
EXACT_MAX_R10 = 0.05
EXACT_MAX_GAMMA = 1e-4


@dataclass(frozen=True)
class SweepRequest:
    """One sweep: scenario, frequency band, sampling and row choices."""

    scenario: object
    band: tuple
    samples: int
    kinds: tuple = ("pdc",)
    detuning: float = 0.0  # working-p offset from p0, in units of omega

    def __post_init__(self):
        if self.samples < 2:
            raise ValueError("sample count must be >= 2")
        lo, hi = self.band
        if not lo < hi:
            raise ValueError("band must satisfy lo < hi")
        for kind in self.kinds:
            check_kind(kind)

    def grid(self):
        lo, hi = self.band
        return np.linspace(lo, hi, self.samples)


_KIND_ROWS = {"pdc": 0, "puc": 1}  # rows of a ("pdc", "puc") grid
_REPORT_COLUMNS = ("gamma", "r1", "t1", "r2", "t2", "flux_omega", "flux_partner",
                   "ratio")


def _outcomes(scenario, omegas, kinds, detuning=0.0):
    """Every (omega, kind) of a table, from one resonance solve of the grid.

    Returns (grid, table, order): the ResonanceGrid of both kinds, its
    report_table at the working p = p0 + detuning * omega, and the rows
    as (omega, i, kind, k, status) ordered by omega, then by kinds; (k, i)
    is the row's grid element and status its skip reason, or "ok".
    """
    grid = _resonance_grid(scenario, omegas, ("pdc", "puc"))
    table = report_table(scenario, grid, detuning)
    reasons = [[STATUS_REASONS[code] for code in row] for row in table.status.tolist()]
    order = [
        (omega, i, kind, _KIND_ROWS[kind], reasons[_KIND_ROWS[kind]][i])
        for i, omega in enumerate(grid.omega.tolist()) for kind in kinds
    ]
    return grid, table, order


def _sweep_rows(scenario, omegas, kinds, detuning=0.0):
    """SWEEP_COLUMNS rows of _outcomes; a SweepError if none is ok."""
    for kind in kinds:
        check_kind(kind)
    grid, table, order = _outcomes(scenario, omegas, kinds, detuning)
    theta_d, theta_u = grid.theta_deg()
    values = {c: table.columns[c].tolist() for c in _REPORT_COLUMNS + ("forward_fraction",)}
    index = table.index.tolist()
    rows = []
    for omega, i, kind, k, status in order:
        row = dict.fromkeys(SWEEP_COLUMNS)
        row["omega"] = omega
        row["kind"] = kind
        row["status"] = status
        row["theta_d_deg"] = theta_d[i]
        row["theta_u_deg"] = theta_u[i]
        rows.append(row)
        if status != "ok":
            continue
        j = index[k][i]
        for c in _REPORT_COLUMNS:
            row[c] = values[c][j]
        if row["gamma"] > 0.0:
            row["forward_fraction"] = values["forward_fraction"][j]
    if not any(row["status"] == "ok" for row in rows):
        reasons = dict(Counter(row["status"] for row in rows))
        raise SweepError(f"no valid samples in sweep: {reasons}", skip_reasons=reasons)
    return rows


def run_sweep(request):
    """Sweep the band; one row per (omega, kind), ordered by omega.

    Samples that fall in a guard band, go evanescent or lose the
    resonance are reported with a machine-readable skip reason instead of
    aborting the sweep.  If nothing survives, a SweepError summarizes the
    reasons.
    """
    return _sweep_rows(request.scenario, request.grid(), request.kinds,
                       request.detuning)


def degenerate_rows(scenario, kinds=("pdc",)):
    """Single-frequency report rows at omega0 / 2, or a SweepError."""
    return _sweep_rows(scenario, [0.5 * scenario.omega0], kinds)


def _row(omega, kind, quantity, status, tol=None, **values):
    """One ORACLE_COLUMNS row; columns not given in values stay None."""
    row = dict.fromkeys(ORACLE_COLUMNS)
    row.update(omega=omega, kind=kind, quantity=quantity, status=status, tol=tol,
               **values)
    return row


def _oracle_row(omega, kind, quantity, closed, oracle, tol):
    closed = float(closed)
    oracle = float(oracle)
    abs_err = abs(closed - oracle)
    rel_err = abs_err / max(abs(oracle), 1e-300)
    return _row(
        omega, kind, quantity, "ok" if rel_err <= tol else "breach", tol,
        closed_form=closed, oracle=oracle, abs_err=abs_err, rel_err=rel_err,
    )


def compare_oracle(request, include_exact=True):
    """Closed forms vs independent oracles across the requested band.

    Returns (rows, breached).  Rows cover the flux identity, the summed
    reflection series, quartic-vs-perturbative wavenumber shifts and
    (optionally) the thickness-averaged exact boundary solve.  Every
    check runs at the resonant p0, so a detuned request is a ValueError.
    """
    if request.detuning:
        raise ValueError(
            f"oracle checks run at the resonant p0; detuning must be 0, "
            f"got {request.detuning:g}"
        )
    scenario = request.scenario
    # shift formulas degrade as O(g); validate them at a fixed weak
    # reference coupling so the stated tolerance is meaningful for any
    # scenario coupling (including g = 0).  The resonance does not depend
    # on g, so each res serves the reference scenario too.
    ref = replace(scenario, g=QUARTIC_REFERENCE_G)
    grid, table, order = _outcomes(scenario, request.grid(), request.kinds)
    shifts = epsilon_table(ref, grid)
    # (record, report, shifts) of every ok row, in row order; the quartic
    # roots of their checks come from one batched solve per coupling
    checked = []
    for _, i, _, k, status in order:
        if status == "ok":
            res = grid.point(k, i)
            checked.append((res, ChannelReport.of(res, table.element(k, i)),
                            shifts.element(k, i)))
    ref_roots = _record_roots(ref, [res for res, _, _ in checked])
    exact = [include_exact and report.r10 <= EXACT_MAX_R10
             and report.gamma <= EXACT_MAX_GAMMA for _, report, _ in checked]
    exact_roots = iter(_record_roots(
        scenario, [res for (res, _, _), run in zip(checked, exact) if run]))
    rows = []
    checks = iter(zip(checked, ref_roots, exact))
    for omega, i, kind, k, status in order:
        if status != "ok":
            rows.append(_row(omega, kind, "channel_report", status))
            continue
        (res, report, eps), roots, run_exact = next(checks)
        if report.gamma == 0.0:
            # without pump-induced excess the gamma-scale identities
            # are vacuous; only the shift validation says anything
            for quantity in ("flux_identity_excess", "flux_identity_partner"):
                rows.append(_row(omega, kind, quantity, "not_applicable", IDENTITY_TOL))
        else:
            excess, partner_side, ident = report.flux_identity_terms()
            rows.append(_oracle_row(omega, kind, "flux_identity_excess", excess,
                                    ident, IDENTITY_TOL))
            rows.append(_oracle_row(omega, kind, "flux_identity_partner",
                                    partner_side, ident, IDENTITY_TOL))
        series = series_sum(report.r10, report.r20, report.gamma, report.omega,
                            scenario.omega0, kind=kind)
        for name, closed, summed in zip(
            ("r1", "t1", "r2", "t2"), (report.r1, report.t1, report.r2, report.t2),
            series,
        ):
            rows.append(_oracle_row(omega, kind, f"series_{name}", closed, summed,
                                    SERIES_TOL))
        rows.extend(_quartic_rows(ref, res, eps, roots))
        if run_exact:
            rows.append(_exact_row(scenario, res, report, next(exact_roots)))
        elif include_exact:
            rows.append(_row(omega, kind, "exact_excess", "not_applicable", EXACT_TOL))
    breached = any(row["status"] == "breach" for row in rows)
    return rows, breached


def _quartic_rows(ref, res, eps, roots):
    """Quartic-vs-perturbative shift rows at the reference coupling.

    eps maps the EpsilonRoots fields at res, as epsilon_table gives them;
    roots are res's quartic roots at the reference coupling.
    """
    omega, kind = res.omega, res.kind
    k = _sorted_wavenumbers(ref, res, roots)
    K0 = ref.pump_wavenumber()
    product = (k[0] - res.Omega1) * (k[1] - res.Omega1)
    pair_err = max(
        abs(k[0] - res.Omega1 - eps["eps1"]) / abs(eps["eps1"]),
        abs(k[1] - res.Omega1 - eps["eps2"]) / abs(eps["eps2"]),
    )
    shift3 = k[2] + res.Omega1
    if kind == "pdc":
        shift4 = k[3] - K0 - res.Omega2
    else:
        shift4 = k[3] + K0 + res.Omega2
    pair_row = _row(
        omega, kind, "quartic_pair_roots",
        "ok" if pair_err <= QUARTIC_TOL else "breach", QUARTIC_TOL,
        closed_form=0.0, oracle=0.0, abs_err=pair_err, rel_err=pair_err,
    )
    out = [
        _oracle_row(omega, kind, "quartic_eps_product",
                    (eps["eps1"] * eps["eps2"]).real, product.real, QUARTIC_TOL),
        pair_row,
        _oracle_row(omega, kind, "quartic_eps3", eps["eps3"], shift3.real,
                    QUARTIC_TOL),
        _oracle_row(omega, kind, "quartic_eps4", eps["eps4"], shift4.real,
                    QUARTIC_TOL),
    ]
    return out


def _exact_row(scenario, res, report, roots):
    """The exact_excess row of an applicable res, from its quartic roots."""
    omega, kind = res.omega, res.kind
    try:
        averaged = _averaged_intensities(scenario, res, roots)
    except ConditioningError:
        return _row(omega, kind, "exact_excess", "conditioning_error", EXACT_TOL)
    measured = averaged["t1"] + averaged["r1"] - 1.0
    if kind == "puc":
        measured = -measured
    ident = report.flux_identity_terms()[2]
    return _oracle_row(omega, kind, "exact_excess", ident, measured, EXACT_TOL)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------
def _round12(value):
    return float(f"{value:.12g}")


def _format_cell(value):
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    return f"{value:.12g}"


def write_rows(rows, columns, stream, output_format="csv"):
    """Serialize rows (list of dicts) as CSV or JSON-lines."""
    if output_format == "csv":
        stream.write(",".join(columns) + "\n")
        for row in rows:
            stream.write(",".join(_format_cell(row[c]) for c in columns) + "\n")
        return
    if output_format != "jsonl":
        raise ValueError("output format must be 'csv' or 'jsonl'")
    for row in rows:
        obj = {}
        for c in columns:
            value = row[c]
            if isinstance(value, float):
                value = _round12(value)
            obj[c] = value
        stream.write(json.dumps(obj) + "\n")


def rows_to_text(rows, columns, output_format="csv"):
    buf = io.StringIO()
    write_rows(rows, columns, buf, output_format)
    return buf.getvalue()
