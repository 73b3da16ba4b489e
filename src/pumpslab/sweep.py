"""Frequency sweeps, oracle comparison tables and row serialization.

Rows are plain dicts with a fixed column order so that CSV and JSON-lines
outputs carry identical values.  Floats are rounded to 12 significant
digits at the formatting boundary, which makes repeated runs byte-stable.
"""
import io
import json
from dataclasses import dataclass, field, replace

import numpy as np

from .coupled import epsilon_roots, quartic_wavenumbers, rainbow_split, resonance_report
from .errors import (
    ConditioningError,
    EvanescentError,
    GeometryError,
    GuardBandError,
    NoResonanceError,
    OutOfBandError,
    PumpslabError,
    SweepError,
)
from .kinematics import pdc_resonance, puc_resonance
from .oracle import series_sum, thickness_averaged_intensities

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

_SKIP_REASONS = {
    GuardBandError: "guard_band",
    OutOfBandError: "out_of_band",
    EvanescentError: "evanescent",
    NoResonanceError: "no_resonance",
    GeometryError: "geometry",
    ConditioningError: "conditioning_error",
}


@dataclass(frozen=True)
class SweepRequest:
    """One sweep: scenario, frequency band, sampling and output choices."""

    scenario: object
    band: tuple
    samples: int
    kinds: tuple = ("pdc",)
    output_format: str = "csv"
    detuning: float = 0.0  # working-p offset from p0, in units of omega
    oracle_phases: int = field(default=64, repr=False)

    def __post_init__(self):
        if self.samples < 2:
            raise ValueError("sample count must be >= 2")
        lo, hi = self.band
        if not lo < hi:
            raise ValueError("band must satisfy lo < hi")
        for kind in self.kinds:
            if kind not in ("pdc", "puc"):
                raise ValueError(f"unknown conversion kind {kind!r}")
        if self.output_format not in ("csv", "jsonl"):
            raise ValueError("output format must be 'csv' or 'jsonl'")

    def grid(self):
        lo, hi = self.band
        return np.linspace(lo, hi, self.samples)


def _skip_reason(exc):
    for klass, reason in _SKIP_REASONS.items():
        if isinstance(exc, klass):
            return reason
    raise exc


def _solved(solve, scenario, omega):
    """solve(scenario, omega), or the skip reason of the error it raised.

    The reason, not the exception, is kept: a stored exception's traceback
    would tie it to the sweep's frames in a reference cycle.
    """
    try:
        return solve(scenario, omega)
    except PumpslabError as exc:
        return _skip_reason(exc)


def _sweep_rows(scenario, omega, kinds, detuning):
    """One row per kind at omega, all from one pdc and one puc solve."""
    solved = {
        "pdc": _solved(pdc_resonance, scenario, omega),
        "puc": _solved(puc_resonance, scenario, omega),
    }
    theta = {
        kind: None if isinstance(res, str) else res.theta_deg
        for kind, res in solved.items()
    }
    rows = []
    for kind in kinds:
        row = dict.fromkeys(SWEEP_COLUMNS)
        row["omega"] = omega
        row["kind"] = kind
        row["theta_d_deg"] = theta["pdc"]
        row["theta_u_deg"] = theta["puc"]
        rows.append(row)
        res = solved[kind]
        if isinstance(res, str):
            row["status"] = res
            continue
        try:
            p = res.p + detuning * omega if detuning else None
            report = resonance_report(scenario, res, p)
        except PumpslabError as exc:
            row["status"] = _skip_reason(exc)
            continue
        row["status"] = "ok"
        row["gamma"] = report.gamma
        row["r1"] = report.r1
        row["t1"] = report.t1
        row["r2"] = report.r2
        row["t2"] = report.t2
        row["flux_omega"] = report.flux_omega
        row["flux_partner"] = report.flux_partner
        row["ratio"] = report.ratio
        if report.gamma > 0.0:
            row["forward_fraction"] = rainbow_split(report)[0]
    return rows


def run_sweep(request):
    """Sweep the band; one row per (omega, kind), ordered by omega.

    Samples that fall in a guard band, go evanescent or lose the
    resonance are reported with a machine-readable skip reason instead of
    aborting the sweep.  If nothing survives, a SweepError summarizes the
    reasons.
    """
    rows = []
    for omega in request.grid():
        rows.extend(_sweep_rows(request.scenario, float(omega), request.kinds,
                                request.detuning))
    if not any(row["status"] == "ok" for row in rows):
        reasons = {}
        for row in rows:
            reasons[row["status"]] = reasons.get(row["status"], 0) + 1
        raise SweepError(f"no valid samples in sweep: {reasons}", skip_reasons=reasons)
    return rows


def degenerate_rows(scenario, kinds=("pdc",)):
    """Single-frequency report rows at omega0 / 2."""
    rows = _sweep_rows(scenario, 0.5 * scenario.omega0, kinds, 0.0)
    if not any(row["status"] == "ok" for row in rows):
        raise SweepError("degenerate point produced no valid rows")
    return rows


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
    (optionally) the thickness-averaged exact boundary solve.
    """
    scenario = request.scenario
    rows = []
    for omega in request.grid():
        omega = float(omega)
        for kind in request.kinds:
            try:
                res = (pdc_resonance if kind == "pdc" else puc_resonance)(
                    scenario, omega
                )
                report = resonance_report(scenario, res, None)
            except PumpslabError as exc:
                rows.append(_row(omega, kind, "channel_report", _skip_reason(exc)))
                continue
            if report.gamma == 0.0:
                # without pump-induced excess the gamma-scale identities
                # are vacuous; only the shift validation says anything
                for quantity in ("flux_identity_excess", "flux_identity_partner"):
                    rows.append(
                        _row(omega, kind, quantity, "not_applicable", IDENTITY_TOL)
                    )
            else:
                ident = report.gamma / (1.0 + report.r10)
                excess = report.t1 + report.r1 - 1.0
                if kind == "puc":
                    excess = -excess
                partner_side = (report.omega / report.partner) * (
                    report.t2 + report.r2
                )
                rows.append(
                    _oracle_row(omega, kind, "flux_identity_excess", excess,
                                ident, IDENTITY_TOL)
                )
                rows.append(
                    _oracle_row(omega, kind, "flux_identity_partner",
                                partner_side, ident, IDENTITY_TOL)
                )
            series = series_sum(
                report.r10, report.r20, report.gamma, report.omega,
                scenario.omega0, kind=kind,
            )
            for name, closed, summed in zip(
                ("r1", "t1", "r2", "t2"),
                (report.r1, report.t1, report.r2, report.t2),
                series,
            ):
                rows.append(
                    _oracle_row(omega, kind, f"series_{name}", closed, summed,
                                SERIES_TOL)
                )
            rows.extend(_quartic_rows(scenario, res))
            if include_exact:
                rows.append(_exact_row(scenario, omega, kind, report,
                                       request.oracle_phases))
    breached = any(row["status"] == "breach" for row in rows)
    return rows, breached


def _quartic_rows(scenario, res):
    # shift formulas degrade as O(g); validate them at a fixed weak
    # reference coupling so the stated tolerance is meaningful for any
    # scenario coupling (including g = 0).  The resonance does not depend
    # on g, so res serves the reference scenario too.
    omega, kind = res.omega, res.kind
    ref = replace(scenario, g=QUARTIC_REFERENCE_G)
    eps = epsilon_roots(ref, res)
    k = quartic_wavenumbers(ref, res)
    K0 = ref.pump_wavenumber()
    product = (k[0] - res.Omega1) * (k[1] - res.Omega1)
    pair_err = max(
        abs(k[0] - res.Omega1 - eps.eps1) / abs(eps.eps1),
        abs(k[1] - res.Omega1 - eps.eps2) / abs(eps.eps2),
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
                    (eps.eps1 * eps.eps2).real, product.real, QUARTIC_TOL),
        pair_row,
        _oracle_row(omega, kind, "quartic_eps3", eps.eps3, shift3.real,
                    QUARTIC_TOL),
        _oracle_row(omega, kind, "quartic_eps4", eps.eps4, shift4.real,
                    QUARTIC_TOL),
    ]
    return out


def _exact_row(scenario, omega, kind, report, phases):
    applicable = report.r10 <= EXACT_MAX_R10 and report.gamma <= EXACT_MAX_GAMMA
    if not applicable:
        return _row(omega, kind, "exact_excess", "not_applicable", EXACT_TOL)
    try:
        averaged = thickness_averaged_intensities(
            scenario, omega, report.p0, kind, phases=phases
        )
    except ConditioningError:
        return _row(omega, kind, "exact_excess", "conditioning_error", EXACT_TOL)
    measured = averaged["t1"] + averaged["r1"] - 1.0
    if kind == "puc":
        measured = -measured
    ident = report.gamma / (1.0 + report.r10)
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
