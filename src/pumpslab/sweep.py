"""Frequency sweeps, oracle comparison tables and row serialization.

Rows are plain dicts with a fixed column order so that CSV and JSON-lines
outputs carry identical values.  Floats are rounded to 12 significant
digits at the formatting boundary, which makes repeated runs byte-stable.
"""
import io
import json
import operator
from collections import Counter
from dataclasses import dataclass, replace

import numpy as np

from .coupled import (STATUS_REASONS, _cabs, _on_grid, _Pairs, _pair_coefficients,
                      _quartic_roots, _reports, _shifts, _sorted_wavenumbers)
from .errors import ConditioningError, SweepError
from .kinematics import _resonance_grid, check_kind
from .oracle import _averaged_intensities, _series_columns

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

    Returns (grid, located, table, order): the ResonanceGrid of both kinds,
    its _Pairs.of_grid, its report_table at p = p0 + detuning * omega, and
    the rows as (omega, i, kind, k, status) ordered by omega, then kinds;
    (k, i) is the row's grid element, status its skip reason or "ok".
    """
    grid = _resonance_grid(scenario, omegas, ("pdc", "puc"))
    located = _Pairs.of_grid(grid)
    table = _on_grid(_reports, scenario, grid, detuning, located)
    reasons = [[STATUS_REASONS[code] for code in row] for row in table.status.tolist()]
    order = [
        (omega, i, kind, _KIND_ROWS[kind], reasons[_KIND_ROWS[kind]][i])
        for i, omega in enumerate(grid.omega.tolist()) for kind in kinds
    ]
    return grid, located, table, order


def _sweep_rows(scenario, omegas, kinds, detuning=0.0):
    """SWEEP_COLUMNS rows of _outcomes; a SweepError if none is ok."""
    for kind in kinds:
        check_kind(kind)
    grid, _, table, order = _outcomes(scenario, omegas, kinds, detuning)
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


def _row(omega, kind, quantity, status, tol=None, cells=(None,) * 4):
    """One ORACLE_COLUMNS row; cells are (closed_form, oracle, abs_err, rel_err)."""
    return dict(zip(ORACLE_COLUMNS, (omega, kind, quantity, status, *cells, tol)))


_CHECKS = ("flux_identity_excess", "flux_identity_partner", "series_r1", "series_t1",
           "series_r2", "series_t2", "quartic_eps_product", "quartic_pair_roots",
           "quartic_eps3", "quartic_eps4", "exact_excess")


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
    grid, located, table, order = _outcomes(scenario, request.grid(), request.kinds)
    shifts = _on_grid(_shifts, ref, grid, 0.0, located)
    # each check is one column over the ok rows, in row order
    index = table.index.tolist()
    ok = [(k, i) for _, i, _, k, status in order if status == "ok"]
    j = [index[k][i] for k, i in ok]
    pairs = _Pairs(*(col[j] for col in located[1]))
    rep = {name: col[j] for name, col in table.columns.items()}
    eps = {name: col[j] for name, col in shifts.columns.items()}
    exact = ((rep["r10"] <= EXACT_MAX_R10) & (rep["gamma"] <= EXACT_MAX_GAMMA)
             & bool(include_exact))
    # the quartic roots of both couplings come from one batched solve
    roots = _quartic_roots(np.vstack((
        _pair_coefficients(ref, pairs),
        _pair_coefficients(scenario, _Pairs(*(col[exact] for col in pairs))))))
    refused, measured = np.zeros(len(j), dtype=bool), np.zeros(len(j))
    for m, exact_roots in zip(np.flatnonzero(exact).tolist(), roots[len(j):]):
        try:
            averaged = _averaged_intensities(scenario, grid.point(*ok[m]), exact_roots)
        except ConditioningError:
            refused[m] = True
        else:
            measured[m] = averaged["t1"] + averaged["r1"] - 1.0
    closed, oracle, pair_err = _check_columns(ref, pairs, rep, eps, roots[:len(j)],
                                              pairs.sign * measured)
    # a strong gain over a zero oracle (an unmeasured exact cell) overflows
    with np.errstate(over="ignore", invalid="ignore"):
        abs_err = np.abs(closed - oracle)
        rel_err = abs_err / np.maximum(np.abs(oracle), 1e-300)
    abs_err[:, 7] = rel_err[:, 7] = pair_err  # quartic_pair_roots
    tols = (IDENTITY_TOL,) * 2 + (SERIES_TOL,) * 4 + (QUARTIC_TOL,) * 4 + (EXACT_TOL,)
    states = np.where(rel_err <= tols, "ok", "breach").astype(object)
    # without pump-induced excess the gamma-scale identities are vacuous
    states[rep["gamma"] == 0.0, :2] = "not_applicable"
    states[:, 10] = np.where(refused, "conditioning_error",
                             np.where(exact, states[:, 10], "not_applicable"))
    checks = len(_CHECKS) - (not include_exact)
    cells = np.stack((closed, oracle, abs_err, rel_err), axis=2).tolist()
    ok_rows = iter(zip(states.tolist(), cells))
    rows = []
    for omega, _, kind, _, status in order:
        if status != "ok":
            rows.append(_row(omega, kind, "channel_report", status))
            continue
        for quantity, tol, state, cell in zip(_CHECKS[:checks], tols, *next(ok_rows)):
            rows.append(_row(omega, kind, quantity, state, tol,
                             cell if state in ("ok", "breach") else (None,) * 4))
    breached = any(row["status"] == "breach" for row in rows)
    return rows, breached


def _check_columns(ref, pairs, rep, eps, roots, excess):
    """(closed, oracle) columns of each _CHECKS entry over compare_oracle's ok
    rows, bit for bit one row's scalar arithmetic, and quartic_pair_roots'
    error, from the rows' quartic roots at ref and the signed exact excess."""
    w1, K0 = pairs.Omega1, ref.pump_wavenumber()
    k = _sorted_wavenumbers(K0, w1, pairs.Omega2, pairs.sign, roots).T
    s1, s2 = k[0] - w1, k[1] - w1  # the shifts of the coupled pair
    e1, e2 = eps["eps1"], eps["eps2"]
    pair_err = _cabs(s1 - e1) / _cabs(e1), _cabs(s2 - e2) / _cabs(e2)
    shift4 = np.where(pairs.sign > 0.0, k[3].real - K0 - pairs.Omega2,
                      k[3].real + K0 + pairs.Omega2)
    ident = rep["gamma"] / (1.0 + rep["r10"])
    zero = np.zeros(len(w1))
    # (a * b).real of complex scalars is a.real * b.real - a.imag * b.imag
    closed = (pairs.sign * (rep["t1"] + rep["r1"] - 1.0),
              (pairs.omega / pairs.partner) * (rep["t2"] + rep["r2"]),
              rep["r1"], rep["t1"], rep["r2"], rep["t2"],
              e1.real * e2.real - e1.imag * e2.imag, zero, eps["eps3"], eps["eps4"], ident)
    oracle = (ident, ident,
              *_series_columns(rep["r10"], rep["r20"], rep["gamma"], pairs.omega,
                               pairs.sign, ref.omega0),
              s1.real * s2.real - s1.imag * s2.imag, zero, k[2].real + w1, shift4, excess)
    return (np.column_stack(closed), np.column_stack(oracle),
            np.where(pair_err[1] > pair_err[0], pair_err[1], pair_err[0]))


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------
def _round12(value):
    return float(f"{value:.12g}")


def _csv_template(types):
    """The %-template of a CSV line whose cells have these types: None
    prints empty, a str as is, anything else to 12 significant digits."""
    return ",".join("%.0s" if t is type(None) else "%s" if issubclass(t, str)
                    else "%.12g" for t in types) + "\n"


def write_rows(rows, columns, stream, output_format="csv"):
    """Serialize rows (list of dicts) as CSV or JSON-lines."""
    if output_format == "csv":
        stream.write(",".join(columns) + "\n")
        templates = {}  # one per row shape: which cells are None, str or numbers
        cells_of = (operator.itemgetter(*columns) if len(columns) > 1
                    else lambda row: (row[columns[0]],))
        for row in rows:
            cells = cells_of(row)
            shape = (*map(type, cells),)  # exact-size tuples: tuple(map()) resizes
            template = templates.get(shape)
            if template is None:
                template = templates[shape] = _csv_template(shape)
            stream.write(template % cells)
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
