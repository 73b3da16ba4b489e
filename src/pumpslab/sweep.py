"""Frequency sweeps, oracle comparison tables and row serialization.

Rows are plain dicts with a fixed column order so that CSV and JSON-lines
outputs carry identical values.  Floats are rounded to 12 significant
digits at the formatting boundary, which makes repeated runs byte-stable.
"""
import io
import json
import math
import operator
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass, replace

import numpy as np

from .coupled import (STATUS_REASONS, _anchored_roots, _flux_identity, _Pairs, _quartic,
                      _reports, _shifts, _tabulate)
from .errors import ConditioningError, SweepError
from .kinematics import _ARRAYS, KINDS, OK, _resonance_grid, kind_sign
from .oracle import _exact_averages, _series_columns

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
MAX_SAMPLES = 10_000  # the largest grid a SweepRequest accepts


@dataclass(frozen=True)
class SweepRequest:
    """One sweep: scenario, frequency band, sampling and row choices."""

    scenario: object
    band: tuple
    samples: int
    kinds: tuple = ("pdc",)
    detuning: float = 0.0  # working-p offset from p0, in units of omega

    def __post_init__(self):
        if (isinstance(self.samples, bool) or not isinstance(self.samples, (int, np.integer))
                or not 2 <= self.samples <= MAX_SAMPLES):
            raise ValueError(f"sample count must be in [2, {MAX_SAMPLES}], got {self.samples}")
        lo, hi = self.band
        if not -math.inf < lo < hi < math.inf:
            raise ValueError(f"band must be finite with lo < hi, got {self.band!r}")
        if not math.isfinite(self.detuning):
            raise ValueError(f"detuning must be finite, got {self.detuning!r}")
        _check_kinds(self.kinds)

    def grid(self):
        lo, hi = self.band
        return np.linspace(lo, hi, self.samples)


def _check_kinds(kinds):
    """A ValueError unless kinds is a non-empty sequence of distinct known kinds."""
    if (isinstance(kinds, str) or not isinstance(kinds, Sequence) or not kinds
            or any(kinds.count(kind) > 1 for kind in kinds)):
        raise ValueError(f"kinds must be a non-empty sequence of distinct kinds of {KINDS}, "
                         f"got {kinds!r}")
    for kind in kinds:
        kind_sign(kind)  # refuses an unknown kind


def _outcomes(scenario, omegas, kinds, detuning=0.0):
    """Every (omega, kind) of a table, from one resonance solve of the grid
    and one report tabulation of the requested kinds' resonances.

    Returns (grid, pairs, columns, order): the ResonanceGrid of both kinds;
    the _Pairs of the resonances of kinds, in (kind, omega) order; their
    _reports columns at p = p0 + detuning * omega; and the rows as (omega,
    i, kind, j, status) ordered by omega, then kinds, j the row's position
    in those columns (-1 where there is none) and status its skip reason or
    "ok".  kinds must have passed _check_kinds.
    """
    rows = [(kind, KINDS.index(kind)) for kind in kinds]  # the kind's grid row
    grid = _resonance_grid(scenario, omegas, KINDS)
    status = grid.status.copy()
    solved = status == OK
    for k, kind in enumerate(KINDS):
        if kind not in kinds:
            solved[k] = False
    elements = np.flatnonzero(solved)
    pairs = _Pairs.of_grid(grid, elements)
    # a detuning warning names the caller of run_sweep (through _sweep_rows)
    codes, columns = _tabulate(_reports, scenario, pairs, pairs.p0 + detuning * pairs.omega,
                               stacklevel=5)
    status.ravel()[elements] = codes
    index = np.full(status.shape, -1)
    index.ravel()[elements] = np.arange(elements.size)
    index = index.tolist()
    reasons = [[STATUS_REASONS[code] for code in row] for row in status.tolist()]
    order = [(omega, i, kind, index[k][i], reasons[k][i])
             for i, omega in enumerate(grid.omega.tolist()) for kind, k in rows]
    return grid, pairs, columns, order


def _sweep_rows(scenario, omegas, kinds, detuning=0.0):
    """SWEEP_COLUMNS rows of _outcomes; a SweepError if none is ok."""
    grid, _, columns, order = _outcomes(scenario, omegas, kinds, detuning)
    theta_d, theta_u = grid.theta_deg()
    gamma, r1, t1, r2, t2, flux_omega, flux_partner, ratio, forward = (
        columns[c].tolist() for c in ("gamma", "r1", "t1", "r2", "t2", "flux_omega",
                                      "flux_partner", "ratio", "forward_fraction"))
    blank = dict.fromkeys(SWEEP_COLUMNS)
    rows = []
    for omega, i, kind, j, status in order:
        if status == "ok":  # a display in SWEEP_COLUMNS order
            rows.append({"omega": omega, "kind": kind, "status": "ok",
                         "theta_d_deg": theta_d[i], "theta_u_deg": theta_u[i],
                         "gamma": gamma[j], "r1": r1[j], "t1": t1[j], "r2": r2[j], "t2": t2[j],
                         "flux_omega": flux_omega[j], "flux_partner": flux_partner[j],
                         "ratio": ratio[j],
                         "forward_fraction": forward[j] if gamma[j] > 0.0 else None})
            continue
        row = blank.copy()
        row["omega"] = omega
        row["kind"] = kind
        row["status"] = status
        row["theta_d_deg"] = theta_d[i]
        row["theta_u_deg"] = theta_u[i]
        rows.append(row)
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
    _check_kinds(kinds)
    return _sweep_rows(scenario, [0.5 * scenario.omega0], kinds)


def _row(omega, kind, quantity, status, tol=None, cells=(None,) * 4):
    """One ORACLE_COLUMNS row; cells are (closed_form, oracle, abs_err, rel_err)."""
    closed, oracle, abs_err, rel_err = cells
    return {"omega": omega, "kind": kind, "quantity": quantity, "status": status,
            "closed_form": closed, "oracle": oracle, "abs_err": abs_err, "rel_err": rel_err,
            "tol": tol}


def compare_oracle(request, include_exact=True):
    """Closed forms vs independent oracles across the requested band.

    Returns (rows, breached).  Rows cover the flux identity, the summed
    reflection series, quartic-vs-perturbative wavenumber shifts and
    (optionally) the thickness-averaged exact boundary solve.  Every
    check runs at the resonant p0, so a detuned request is a ValueError.
    One rule gives every row its status: its check's skip status where
    there is one, else ok where rel_err <= tol and breach where not.  The
    flux-identity and exact rows skip as not_applicable without
    pump-induced excess (gamma = 0), and quartic_pair_roots where the
    reference shifts underflow to 0: there is no coupled pair to check.
    """
    if request.detuning:
        raise ValueError(f"oracle checks run at the resonant p0; detuning must be 0, "
                         f"got {request.detuning:g}")
    scenario = request.scenario
    _, located, report, order = _outcomes(scenario, request.grid(), request.kinds)
    # each check is one column over the ok rows, in row order, from one gather
    ok = [j for _, _, _, j, status in order if status == "ok"]
    columns = np.array([*located, *report.values()])[:, ok]
    pairs, rep = _Pairs(*columns[:8]), dict(zip(report, columns[8:]))
    # shift formulas degrade as O(g); validate them at a fixed weak
    # reference coupling so the stated tolerance is meaningful for any
    # scenario coupling (including g = 0).  The resonance does not depend
    # on g, so each pair serves the reference scenario too.
    ref = replace(scenario, g=QUARTIC_REFERENCE_G)
    _, eps = _tabulate(_shifts, ref, pairs, pairs.p0)
    exact = ((rep["r10"] <= EXACT_MAX_R10) & (0.0 < rep["gamma"])
             & (rep["gamma"] <= EXACT_MAX_GAMMA))
    exact_rows = np.flatnonzero(exact).tolist() if include_exact else []
    averages = _exact_averages(scenario, _Pairs(*columns[:8, exact])) if exact_rows else []
    # the exact row's status where the exact average gives no cells
    unmeasured, measured = ["not_applicable"] * len(ok), np.zeros(len(ok))
    for m, averaged in zip(exact_rows, averages):
        if isinstance(averaged, ConditioningError):
            unmeasured[m] = "conditioning_error"
        else:
            unmeasured[m], measured[m] = None, averaged["t1"] + averaged["r1"] - 1.0
    # a strong gain over a zero oracle (an unmeasured exact cell) overflows,
    # and a shift that underflows to 0 divides by 0: breach cells, not errors
    with np.errstate(all="ignore"):
        checks = _check_columns(ref, pairs, rep, eps, pairs.sign * measured, unmeasured)
        if not include_exact:
            del checks["exact_excess"]
        tols, closed, oracle, errs, skips = zip(*checks.values())
        closed, oracle = np.array(closed).T, np.array(oracle).T
        abs_err = np.abs(closed - oracle)
        rel_err = abs_err / np.maximum(np.abs(oracle), 1e-300)
    for column, err in enumerate(errs):
        if err is not None:  # a check with its own error column
            abs_err[:, column] = rel_err[:, column] = err
    cells = np.array((closed, oracle, abs_err, rel_err)).transpose(1, 2, 0).tolist()
    checked = iter(zip((rel_err <= tols).tolist(), cells, zip(*skips)))
    rows = []
    for omega, _, kind, _, status in order:
        if status != "ok":
            rows.append(_row(omega, kind, "channel_report", status))
            continue
        for quantity, tol, passed, cell, skip in zip(checks, tols, *next(checked)):
            rows.append(_row(omega, kind, quantity, skip, tol) if skip else
                        _row(omega, kind, quantity, "ok" if passed else "breach", tol, cell))
    return rows, any(row["status"] == "breach" for row in rows)


def _check_columns(ref, pairs, rep, eps, excess, unmeasured):
    """compare_oracle's checks over its ok rows by name, in row order: (tol,
    closed, oracle, own error column or None, per row a skip status or None),
    columns bit for bit one row's scalar arithmetic, quartic root offsets at ref."""
    _, K0, _, _, G, _ = _quartic(ref, pairs)
    x = _anchored_roots(K0, pairs, G, eps)[1]  # the roots' shifts from their anchors
    s1, s2 = shifts = x[:2]  # the shifts of the coupled pair
    e1, e2 = perturbative = np.array((eps["eps1"], eps["eps2"]))
    err1, err2 = _ARRAYS.cabs(shifts - perturbative) / _ARRAYS.cabs(perturbative)
    lhs, mid, ident = _flux_identity(pairs.sign, pairs.omega, pairs.partner, rep["t1"],
                                     rep["r1"], rep["t2"], rep["r2"], rep["gamma"], rep["r10"])
    # without pump-induced excess the gamma-scale identities are vacuous, and
    # so is the exact row, which compare_oracle leaves unsolved (unmeasured) there
    vacuous = ["not_applicable" if v else None for v in (rep["gamma"] == 0.0).tolist()]
    unpaired = (eps["eps1"] == 0.0) & (eps["eps2"] == 0.0)
    judged, zero = [None] * len(G), np.zeros(len(G))
    r1, t1, r2, t2 = _series_columns(rep["r10"], rep["r20"], rep["gamma"], pairs.omega,
                                     pairs.partner, pairs.sign)
    # (a * b).real of complex scalars is a.real * b.real - a.imag * b.imag
    return {
        "flux_identity_excess": (IDENTITY_TOL, lhs, ident, None, vacuous),
        "flux_identity_partner": (IDENTITY_TOL, mid, ident, None, vacuous),
        "series_r1": (SERIES_TOL, rep["r1"], r1, None, judged),
        "series_t1": (SERIES_TOL, rep["t1"], t1, None, judged),
        "series_r2": (SERIES_TOL, rep["r2"], r2, None, judged),
        "series_t2": (SERIES_TOL, rep["t2"], t2, None, judged),
        "quartic_eps_product": (QUARTIC_TOL, e1.real * e2.real - e1.imag * e2.imag,
                                s1.real * s2.real - s1.imag * s2.imag, None, judged),
        "quartic_pair_roots": (QUARTIC_TOL, zero, zero, np.where(err2 > err1, err2, err1),
                               ["not_applicable" if v else None for v in unpaired.tolist()]),
        "quartic_eps3": (QUARTIC_TOL, eps["eps3"], x[2].real, None, judged),
        "quartic_eps4": (QUARTIC_TOL, eps["eps4"], x[3].real, None, judged),
        "exact_excess": (EXACT_TOL, ident, excess, None, unmeasured),
    }


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------
def _csv_template(types):
    """The %-template of a CSV line whose cells have these types, and the
    getter of the cells it formats, or None if it formats them all: None
    cells are written into the template as empty fields, a str goes in as
    is, anything else to 12 significant digits."""
    formats = ["" if t is type(None) else "%s" if issubclass(t, str) else "%.12g"
               for t in types]
    template = ",".join(formats) + "\n"
    kept = [i for i, f in enumerate(formats) if f]
    if len(kept) == len(types):
        return template, None
    if len(kept) > 1:
        return template, operator.itemgetter(*kept)
    # itemgetter of one index would give the cell itself, not a 1-tuple
    return template, lambda cells: tuple(cells[i] for i in kept)


# %.12g text that json.dumps of its value writes in positional notation
_POSITIONAL_EXPONENTS = frozenset(("e+12", "e+13", "e+14", "e+15"))


def _json_number(value):
    """json.dumps of value rounded to 12 significant digits, from its %.12g text.

    The text has at most 12 significant digits, so for a normal double the
    shortest repr of the rounded value has the same digits in the same
    notation, but for an integral value (repr adds ".0"), inf and nan, a
    decimal exponent of 12 to 15 (repr is positional there) and one of
    -300 or below, near the subnormals, whose digits can differ: those go
    through json.dumps.
    """
    text = "%.12g" % value
    if (("." in text or "e" in text) and text[-4:] not in _POSITIONAL_EXPONENTS
            and text[-5:-2] != "e-3"):
        return text
    return json.dumps(float(text))


class _JsonStrings(dict):
    """json.dumps of each string looked up, computed once."""

    def __missing__(self, text):
        self[text] = dumped = json.dumps(text)
        return dumped


def _jsonl_template(columns, types, strings):
    """The %-template of a JSON line whose cells have these types, and the
    (index, encoder) of each cell it formats: None cells are written into
    the template as null, a float goes in as its _json_number, a str as
    its json.dumps from strings, anything else as its json.dumps."""
    fields, encoders = [], []
    for i, (column, t) in enumerate(zip(columns, types)):
        key = json.dumps(column).replace("%", "%%")
        if t is type(None):
            fields.append(f"{key}: null")
            continue
        fields.append(f"{key}: %s")
        encoders.append((i, _json_number if issubclass(t, float)
                         else strings.__getitem__ if issubclass(t, str) else json.dumps))
    return "{" + ", ".join(fields) + "}\n", encoders


# rows per % and per stream.write; one block for a whole 110-row oracle table
# made glibc trim and regrow the heap on every compare_oracle request
_BLOCK = 64


def write_rows(rows, columns, stream, output_format="csv"):
    """Serialize rows (any iterable of dicts) as CSV or JSON-lines, _BLOCK
    rows per stream.write.

    Both write a float from its 12-significant-digit text; a JSON number
    is the shortest repr of that value, so it reads 2.0, not 2, and inf and
    nan read Infinity and NaN.
    """
    csv = output_format == "csv"
    if csv:
        stream.write(",".join(columns) + "\n")
    elif output_format != "jsonl":
        raise ValueError("output format must be 'csv' or 'jsonl'")
    # per row shape (which cells are None, str or numbers) its template and
    # its cells' getter (csv; None for all) or (index, encoder) pairs (jsonl)
    templates, strings = {}, _JsonStrings()
    cells_of = (operator.itemgetter(*columns) if len(columns) > 1
                else lambda row: (row[columns[0]],))
    block, args = [], []  # the templates of a block and the values they format
    for row in rows:
        cells = cells_of(row)
        shape = (*map(type, cells),)  # exact-size tuples: tuple(map()) resizes
        try:
            template, fill = templates[shape]
        except KeyError:
            template, fill = templates[shape] = (
                _csv_template(shape) if csv else _jsonl_template(columns, shape, strings))
        block.append(template)
        if csv:
            args += fill(cells) if fill else cells
        else:
            for i, encode in fill:
                args.append(encode(cells[i]))
        if len(block) == _BLOCK:
            stream.write("".join(block) % tuple(args))
            block, args = [], []
    if block:
        stream.write("".join(block) % tuple(args))


def rows_to_text(rows, columns, output_format="csv"):
    buf = io.StringIO()
    write_rows(rows, columns, buf, output_format)
    return buf.getvalue()
