"""Sweep driver, serialization stability and the command-line interface."""
import gc
import json
import math
import os
import re
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import pumpslab
import pumpslab.cli as cli_mod
import pumpslab.kinematics as kinematics_mod
import pumpslab.oracle as oracle_mod
import pumpslab.sweep as sweep_mod
from pumpslab import (
    ConditioningError,
    CrystalScenario,
    DegenerateRootError,
    DispersionModel,
    EvanescentError,
    GeometryError,
    GuardBandError,
    NoResonanceError,
    OutOfBandError,
    PumpslabError,
    StrongGainError,
    SweepError,
    SweepRequest,
    UndefinedSplitError,
    ValidityWarning,
    calibrate_degenerate_angle,
    channel_report,
    compare_oracle,
    degenerate_rows,
    epsilon_roots,
    pdc_resonance,
    puc_resonance,
    quartic_wavenumbers,
    rainbow_split,
    run_sweep,
    series_sum,
    thickness_averaged_intensities,
)
from pumpslab.cli import main
from pumpslab.coupled import DETUNING_WARN_FRACTION, _anchored_roots, _Pairs, _quartic
from pumpslab.kinematics import OK, SKIP_REASONS
from pumpslab.sweep import ORACLE_COLUMNS, SWEEP_COLUMNS, rows_to_text


def _points(grid):
    """Per omega, a tuple with one ResonancePoint or skip reason per kind."""
    return [
        tuple(grid.point(k, i) if code == OK else SKIP_REASONS[code]
              for k, code in enumerate(codes))
        for i, codes in enumerate(grid.status.T.tolist())
    ]


def scenario_for(g=1e-4, l=100.0):
    model = calibrate_degenerate_angle(math.radians(10.0), 1.51)
    return CrystalScenario(omega0=1.0, g=g, l=l, dispersion=model)


_csv_cells = st.one_of(
    st.none(), st.text(max_size=6), st.floats(), st.integers(-10**18, 10**18),
    st.booleans(), st.floats().map(np.float64))


@st.composite
def _csv_tables(draw):
    """(columns, rows): one to five columns, rows of mixed cells, some all None."""
    columns = [f"c{i}" for i in range(draw(st.integers(1, 5)))]
    cells = st.lists(_csv_cells, min_size=len(columns), max_size=len(columns))
    rows = draw(st.lists(st.one_of(cells, st.just([None] * len(columns))), max_size=12))
    return columns, [dict(zip(columns, row)) for row in rows]


class TestRunSweep:
    def test_rows_ordered_and_complete(self):
        req = SweepRequest(scenario=scenario_for(), band=(0.35, 0.65), samples=7)
        rows = run_sweep(req)
        assert len(rows) == 7
        omegas = [row["omega"] for row in rows]
        assert omegas == sorted(omegas)
        for row in rows:
            assert row["status"] == "ok"
            assert row["gamma"] > 0.0
            assert row["theta_d_deg"] is not None
            assert row["theta_u_deg"] is not None
            assert row["forward_fraction"] is not None

    def test_both_kinds_interleaved(self):
        req = SweepRequest(
            scenario=scenario_for(), band=(0.4, 0.6), samples=3,
            kinds=("pdc", "puc"),
        )
        rows = run_sweep(req)
        assert [row["kind"] for row in rows] == ["pdc", "puc"] * 3

    def test_zero_coupling_sweep(self):
        req = SweepRequest(scenario=scenario_for(g=0.0), band=(0.4, 0.6), samples=3)
        rows = run_sweep(req)
        for row in rows:
            assert row["status"] == "ok"
            assert row["gamma"] == 0.0
            assert row["flux_omega"] == 0.0
            assert row["flux_partner"] == 0.0
            assert row["forward_fraction"] is None

    def test_row_keys_follow_the_columns_in_order(self):
        # ok sweep rows are dict displays that repeat SWEEP_COLUMNS' names
        scenario = scenario_for()
        rows = run_sweep(SweepRequest(scenario=scenario, band=(0.05, 1.95), samples=201,
                                      kinds=("pdc", "puc")))
        assert {"ok", "geometry", "out_of_band", "guard_band"} <= {r["status"] for r in rows}
        rows += degenerate_rows(scenario, kinds=("pdc", "puc"))
        rows += run_sweep(SweepRequest(scenario=scenario_for(g=0.0), band=(0.4, 0.6),
                                       samples=3, kinds=("pdc", "puc")))
        assert all(tuple(row) == SWEEP_COLUMNS for row in rows)
        zero_coupling = [(row["status"], row["forward_fraction"]) for row in rows[-6:]]
        assert zero_coupling == [("ok", None)] * 6
        oracle_rows, _ = compare_oracle(SweepRequest(scenario=scenario, band=(0.05, 1.95),
                                                     samples=21, kinds=("pdc", "puc")))
        assert {"ok", "geometry", "not_applicable"} <= {r["status"] for r in oracle_rows}
        assert all(tuple(row) == ORACLE_COLUMNS for row in oracle_rows)

    def test_guard_band_samples_skipped_not_fatal(self):
        req = SweepRequest(
            scenario=scenario_for(), band=(0.95, 1.05), samples=11, kinds=("puc",)
        )
        rows = run_sweep(req)
        reasons = {row["status"] for row in rows}
        assert "guard_band" in reasons
        assert "ok" in reasons

    def test_all_skipped_raises(self):
        req = SweepRequest(
            scenario=scenario_for(), band=(0.99, 1.01), samples=3, kinds=("pdc",)
        )
        with pytest.raises(SweepError) as excinfo:
            run_sweep(req)
        assert excinfo.value.skip_reasons

    def test_out_of_band_samples_skipped(self):
        # narrow-band model: puc partners above the band edge are skipped
        model = calibrate_degenerate_angle(
            math.radians(10.0), 1.51, band=(0.05, 1.6)
        )
        scenario = CrystalScenario(omega0=1.0, g=1e-4, l=100.0,
                                   dispersion=model)
        req = SweepRequest(scenario=scenario, band=(0.4, 0.7), samples=7,
                           kinds=("puc",))
        rows = run_sweep(req)
        statuses = [row["status"] for row in rows]
        assert "out_of_band" in statuses
        assert "ok" in statuses

    def test_detuned_sweep_reduces_gain(self):
        base = SweepRequest(scenario=scenario_for(l=2000.0), band=(0.45, 0.55),
                            samples=3)
        detuned = replace(base, detuning=5e-3)
        g_on = [r["gamma"] for r in run_sweep(base)]
        g_off = [r["gamma"] for r in run_sweep(detuned)]
        assert all(b < a for a, b in zip(g_on, g_off))

    def test_detuning_beyond_warn_fraction_warns_once_per_sweep(self):
        req = SweepRequest(scenario=scenario_for(), band=(0.4, 0.6), samples=5,
                           kinds=("pdc", "puc"), detuning=2.0 * DETUNING_WARN_FRACTION)
        with pytest.warns(ValidityWarning) as record:
            rows = run_sweep(req)
        assert [w.category for w in record] == [ValidityWarning]
        assert {row["status"] for row in rows} == {"ok"}

    def test_detuning_below_warn_fraction_does_not_warn(self):
        req = SweepRequest(scenario=scenario_for(), band=(0.4, 0.6), samples=5,
                           kinds=("pdc", "puc"), detuning=0.5 * DETUNING_WARN_FRACTION)
        with warnings.catch_warnings():
            warnings.simplefilter("error", ValidityWarning)
            rows = run_sweep(req)
        assert {row["status"] for row in rows} == {"ok"}

    @pytest.mark.parametrize("detuning,reason", [(1.5, "evanescent"),
                                                 (-0.5, "geometry")])
    def test_working_p_outside_range_skipped(self, detuning, reason):
        # p0 + detuning * omega leaves [0, min(omega, partner)) everywhere
        req = SweepRequest(scenario=scenario_for(), band=(0.4, 0.6), samples=5,
                           kinds=("pdc", "puc"), detuning=detuning)
        with pytest.raises(SweepError) as excinfo:
            run_sweep(req)
        assert excinfo.value.skip_reasons == {reason: 10}

    def test_request_validation(self):
        with pytest.raises(ValueError):
            SweepRequest(scenario=scenario_for(), band=(0.4, 0.6), samples=1)
        with pytest.raises(ValueError):
            SweepRequest(scenario=scenario_for(), band=(0.6, 0.4), samples=3)
        with pytest.raises(ValueError):
            SweepRequest(scenario=scenario_for(), band=(0.4, 0.6), samples=3,
                         kinds=("sfg",))
        with pytest.raises(ValueError, match="band must be finite"):
            SweepRequest(scenario=scenario_for(), band=(-math.inf, 0.6), samples=3)
        with pytest.raises(ValueError, match="detuning must be finite"):
            SweepRequest(scenario=scenario_for(), band=(0.4, 0.6), samples=3,
                         detuning=-math.inf)
        # a string is not a sequence of kinds, and a repeated kind would repeat its rows
        # nor is a set or an iterator, which have no order to give the rows
        for kinds in ((), [], "pdc", ("pdc", "pdc"), {"pdc"}, iter(["pdc"])):
            with pytest.raises(ValueError, match="^kinds must be a non-empty sequence"):
                SweepRequest(scenario=scenario_for(), band=(0.4, 0.6), samples=3,
                             kinds=kinds)

    def test_sample_count_capped(self, capsys):
        # a request above the cap is refused before any grid array exists
        cap = sweep_mod.MAX_SAMPLES
        assert SweepRequest(scenario=scenario_for(), band=(0.4, 0.6), samples=cap).samples == cap
        message = f"sample count must be in [2, {cap}], got {cap + 1}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            SweepRequest(scenario=scenario_for(), band=(0.4, 0.6), samples=cap + 1)
        code = main(["sweep", "--theta-d-deg", "10", "--mu2", "1.51", "--samples", str(cap + 1)])
        assert code == cli_mod.USAGE_EXIT
        assert capsys.readouterr().err == f"pumpslab: {message}\n"

    @pytest.mark.parametrize("samples", [5.0, True, np.float64(5.0)])
    def test_sample_count_must_be_an_integer(self, samples):
        # np.linspace would refuse a float later, with a bare TypeError
        message = f"sample count must be in [2, {sweep_mod.MAX_SAMPLES}], got {samples}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            SweepRequest(scenario=scenario_for(), band=(0.4, 0.6), samples=samples)
        assert SweepRequest(scenario=scenario_for(), band=(0.4, 0.6),
                            samples=np.int64(5)).grid().size == 5

    def test_one_resonance_solve_per_kind_per_omega(self, monkeypatch):
        # the sweep solves the whole grid, both kinds, in one kernel call;
        # the scalar solvers are one-element kernel calls, so any per-omega
        # solve would show up here as an extra call
        calls = []
        solve = kinematics_mod._resonance_grid

        def counted(scenario, omegas, kinds):
            calls.append(([float(omega) for omega in omegas], tuple(kinds)))
            return solve(scenario, omegas, kinds)

        for module in (sweep_mod, kinematics_mod):
            monkeypatch.setattr(module, "_resonance_grid", counted)
        req = SweepRequest(scenario=scenario_for(), band=(0.05, 1.95), samples=41,
                           kinds=("pdc", "puc"), detuning=1e-3)
        rows = run_sweep(req)
        assert len(rows) == 82
        grid = [float(omega) for omega in req.grid()]
        assert calls == [(grid, ("pdc", "puc"))]

        calls.clear()
        degenerate_rows(scenario_for(), kinds=("puc",))
        assert calls == [([0.5], ("pdc", "puc"))]
        calls.clear()
        oracle_req = replace(req, band=(0.3, 0.7), samples=3, kinds=("puc", "pdc"),
                             detuning=0.0)
        compare_oracle(oracle_req, include_exact=False)
        assert calls == [([0.3, 0.5, 0.7], ("pdc", "puc"))]

    def test_exact_rows_reuse_the_resonance_record(self, monkeypatch):
        grids, received = [], []
        solve = sweep_mod._resonance_grid
        average = sweep_mod._exact_averages

        def recorded_grid(*args):
            grids.append(solve(*args))
            return grids[-1]

        def recorded_average(*args, **kwargs):
            received.append(args[:2])
            return average(*args, **kwargs)

        monkeypatch.setattr(sweep_mod, "_resonance_grid", recorded_grid)
        monkeypatch.setattr(sweep_mod, "_exact_averages", recorded_average)
        req = SweepRequest(scenario=scenario_for(g=1e-5, l=2800.0),
                           band=(0.4, 0.6), samples=2, kinds=("pdc",))
        rows, _ = compare_oracle(req, include_exact=True)
        exact = [row["status"] for row in rows if row["quantity"] == "exact_excess"]
        assert len(exact) == 2 and set(exact) <= {"ok", "breach"}  # averages ran
        (grid,) = grids
        records = [res for (res, _) in _points(grid)]
        # both rows in one call, each the mode pair of its own grid element
        ((scenario, chunk),) = received
        assert scenario is req.scenario
        assert list(zip(*(column.tolist() for column in chunk))) == [
            _Pairs.of_record(res) for res in records]

    def test_skipped_rows_leave_no_reference_cycles(self):
        req = SweepRequest(scenario=scenario_for(), band=(0.05, 1.95), samples=41,
                           kinds=("pdc", "puc"))
        gc.collect()
        gc.disable()
        try:
            rows = run_sweep(req)
            assert gc.collect() == 0
        finally:
            gc.enable()
        assert {row["status"] for row in rows} > {"ok"}


_SKIP_STATUS = {
    GuardBandError: "guard_band",
    OutOfBandError: "out_of_band",
    EvanescentError: "evanescent",
    NoResonanceError: "no_resonance",
    GeometryError: "geometry",
}
_REPORT_COLUMNS = ("gamma", "r1", "t1", "r2", "t2", "flux_omega",
                   "flux_partner", "ratio")


def _theta_deg(solve, scenario, omega):
    try:
        return solve(scenario, omega).theta_deg
    except PumpslabError:
        return None


def _expected_row(scenario, omega, kind, detuning):
    """A sweep row rebuilt from the public per-frequency functions."""
    row = dict.fromkeys(SWEEP_COLUMNS)
    row.update(omega=omega, kind=kind,
               theta_d_deg=_theta_deg(pdc_resonance, scenario, omega),
               theta_u_deg=_theta_deg(puc_resonance, scenario, omega))
    solve = pdc_resonance if kind == "pdc" else puc_resonance
    try:
        p = solve(scenario, omega).p + detuning * omega if detuning else None
        report = channel_report(scenario, omega, kind=kind, p=p)
    except PumpslabError as exc:
        row["status"] = _SKIP_STATUS[type(exc)]
        return row
    row["status"] = "ok"
    row.update({c: getattr(report, c) for c in _REPORT_COLUMNS})
    if report.gamma > 0.0:
        row["forward_fraction"] = rainbow_split(report)[0]
    return row


@pytest.mark.parametrize("detuning", [0.0, 1e-3])
def test_sweep_rows_match_per_frequency_functions(detuning):
    scenario = scenario_for()
    req = SweepRequest(scenario=scenario, band=(0.05, 1.95), samples=201,
                       kinds=("pdc", "puc"), detuning=detuning)
    rows = run_sweep(req)
    expected = [
        _expected_row(scenario, float(omega), kind, detuning)
        for omega in req.grid() for kind in req.kinds
    ]
    assert rows == expected
    statuses = {row["status"] for row in rows}
    assert {"ok", "guard_band", "geometry", "out_of_band"} <= statuses


def _expected_oracle_row(omega, kind, quantity, closed, oracle, tol):
    closed, oracle = float(closed), float(oracle)
    abs_err = abs(closed - oracle)
    rel_err = abs_err / max(abs(oracle), 1e-300)
    return [omega, kind, quantity, "ok" if rel_err <= tol else "breach", closed, oracle,
            abs_err, rel_err, tol]


def _one_row_offsets(scenario, res, eps):
    """The anchored root offsets of record res alone, started from its
    EpsilonRoots eps: one row of _anchored_roots, as Python complexes."""
    pair = _Pairs(*np.array([_Pairs.of_record(res)]).T)
    start = {name: np.array([getattr(eps, name)]) for name in ("eps1", "eps2", "eps3", "eps4")}
    _, K0, _, _, G, _ = _quartic(scenario, pair)
    return _anchored_roots(K0, pair, G, start)[1][:, 0].tolist()


def _expected_oracle_rows(scenario, omega, kind, include_exact):
    """The compare_oracle rows of one (omega, kind), from the public
    per-row functions."""
    def skipped(quantity, status, tol=None):
        return [omega, kind, quantity, status, None, None, None, None, tol]

    solve = pdc_resonance if kind == "pdc" else puc_resonance
    try:
        report = channel_report(scenario, omega, kind=kind)
    except UndefinedSplitError:
        return [skipped("channel_report", "undefined_ratio")]
    except PumpslabError as exc:
        return [skipped("channel_report", _SKIP_STATUS[type(exc)])]
    rows = []
    excess, partner_side, ident = report.flux_identity_terms()
    for quantity, closed in (("flux_identity_excess", excess),
                             ("flux_identity_partner", partner_side)):
        rows.append(skipped(quantity, "not_applicable", sweep_mod.IDENTITY_TOL)
                    if report.gamma == 0.0 else
                    _expected_oracle_row(omega, kind, quantity, closed, ident,
                                         sweep_mod.IDENTITY_TOL))
    summed = series_sum(report.r10, report.r20, report.gamma, omega, scenario.omega0,
                        kind=kind)
    for name, summed_value in zip(("r1", "t1", "r2", "t2"), summed):
        rows.append(_expected_oracle_row(omega, kind, f"series_{name}",
                                         getattr(report, name), summed_value,
                                         sweep_mod.SERIES_TOL))
    ref = replace(scenario, g=sweep_mod.QUARTIC_REFERENCE_G)
    res = solve(ref, omega)
    eps = epsilon_roots(ref, res)
    x = _one_row_offsets(ref, res, eps)
    tol = sweep_mod.QUARTIC_TOL
    pair_err = float(max(abs(x[0] - eps.eps1) / abs(eps.eps1),
                         abs(x[1] - eps.eps2) / abs(eps.eps2)))
    rows += [
        _expected_oracle_row(omega, kind, "quartic_eps_product",
                             (eps.eps1 * eps.eps2).real, (x[0] * x[1]).real, tol),
        [omega, kind, "quartic_pair_roots", "ok" if pair_err <= tol else "breach",
         0.0, 0.0, pair_err, pair_err, tol],
        _expected_oracle_row(omega, kind, "quartic_eps3", eps.eps3, x[2].real, tol),
        _expected_oracle_row(omega, kind, "quartic_eps4", eps.eps4, x[3].real, tol),
    ]
    if not include_exact:
        return rows
    if (report.r10 > sweep_mod.EXACT_MAX_R10 or report.gamma > sweep_mod.EXACT_MAX_GAMMA
            or report.gamma == 0.0):
        return rows + [skipped("exact_excess", "not_applicable", sweep_mod.EXACT_TOL)]
    try:
        averaged = thickness_averaged_intensities(scenario, solve(scenario, omega))
    except ConditioningError:
        return rows + [skipped("exact_excess", "conditioning_error", sweep_mod.EXACT_TOL)]
    measured = averaged["t1"] + averaged["r1"] - 1.0
    return rows + [_expected_oracle_row(omega, kind, "exact_excess", ident,
                                        -measured if kind == "puc" else measured,
                                        sweep_mod.EXACT_TOL)]


_oracle_cases = st.tuples(
    st.sampled_from([("pdc",), ("puc",), ("pdc", "puc"), ("puc", "pdc")]),
    st.floats(5.0, 15.0),  # degenerate emission angle, degrees
    st.one_of(st.just(1.45), st.floats(1.45, 1.55)),  # 1.45: exact puc rows apply
    st.one_of(st.just(0.0), st.floats(1e-7, 1e-4)),  # g
    st.floats(100.0, 5000.0),  # l
    st.floats(0.05, 0.9),  # band start
    st.floats(0.05, 1.0),  # band width
    st.integers(2, 12),  # samples: two kinds reach ARRAY_MIN elements from 8 up
    st.booleans(),  # include_exact
)


@given(_oracle_cases)
@example((("puc", "pdc"), 10.0, 1.45, 1e-5, 2800.0, 0.3, 0.4, 5, True))  # exact puc ok
@example((("pdc", "puc"), 10.0, 1.51, 0.0, 2800.0, 0.3, 1.5, 9, True))  # g = 0, skips
@example((("pdc", "puc"), 10.0, 1.51, 1e-5, 2800.0, 0.3, 0.4, 12, True))  # 24 ok rows: arrays
@example((("pdc",), 10.0, 1.51, 1e-5, 2800.0, 0.3, 0.4, 37, True))  # exact chunks 16, 16, 5
@example((("puc", "pdc"), 10.0, 1.45, 1e-5, 2800.0, 0.3, 0.4, 17, True))  # pdc and puc chunks
@settings(max_examples=25, deadline=None)
def test_oracle_rows_match_per_row_functions(case):
    # the oracle twin of test_sweep_rows_match_per_frequency_functions:
    # every cell of the columnar table, by repr, is what the public
    # per-row functions give
    kinds, theta_d, mu2, g, l, lo, width, samples, include_exact = case
    model = calibrate_degenerate_angle(math.radians(theta_d), mu2)
    scenario = CrystalScenario(omega0=1.0, g=g, l=l, dispersion=model)
    req = SweepRequest(scenario=scenario, band=(lo, lo + width), samples=samples,
                       kinds=kinds)
    rows, breached = compare_oracle(req, include_exact=include_exact)
    expected = [
        row for omega in req.grid() for kind in kinds
        for row in _expected_oracle_rows(scenario, float(omega), kind, include_exact)
    ]
    assert [[repr(row[c]) for c in ORACLE_COLUMNS] for row in rows] == [
        [repr(cell) for cell in row] for row in expected]
    assert breached == any(row[3] == "breach" for row in expected)


class TestAnchoredRoots:
    """compare_oracle roots every row's quartic from its anchors in one
    batch, each row with the bits and the refusal of its one-row call."""

    @staticmethod
    def batch(scenario, omegas, kinds=("pdc", "puc")):
        """The _Pairs of scenario's resonances at omegas, their shifts and
        (K0, G): what _check_columns hands _anchored_roots."""
        grid = kinematics_mod._resonance_grid(scenario, omegas, kinds)
        pairs = _Pairs.of_grid(grid, np.flatnonzero(grid.status == OK))
        _, eps = sweep_mod._tabulate(sweep_mod._shifts, scenario, pairs, pairs.p0)
        _, K0, _, _, G, _ = _quartic(scenario, pairs)
        return pairs, eps, K0, G

    @staticmethod
    def row(pairs, eps, G, j):
        return (_Pairs(*(column[j:j + 1] for column in pairs)),
                {name: column[j:j + 1] for name, column in eps.items()}, G[j:j + 1])

    @pytest.mark.parametrize("g", [0.0, 1e-8, 1e-4, 1e-3])
    def test_batch_rows_match_one_row_calls(self, g):
        scenario = scenario_for(g=g)
        pairs, eps, K0, G = self.batch(scenario, np.linspace(0.05, 1.95, 41))
        assert len(G) > 40  # both kinds in one batch
        k, x = _anchored_roots(K0, pairs, G, eps)
        for j in range(len(G)):
            pair, start, g_j = self.row(pairs, eps, G, j)
            alone = _anchored_roots(K0, pair, g_j, start)
            assert alone[0].tobytes() == k[:, j:j + 1].tobytes()
            assert alone[1].tobytes() == x[:, j:j + 1].tobytes()
        # quartic_wavenumbers is the one-row call of its record
        j = np.flatnonzero(pairs.sign > 0.0)[5]
        res = pdc_resonance(scenario, float(pairs.omega[j]))
        assert quartic_wavenumbers(scenario, res).tobytes() == k[:, j].tobytes()

    def test_a_meeting_row_refuses_the_batch_as_alone(self):
        # a puc record whose far root sign (K0 + Omega2) sits on k3's anchor
        # -Omega1 meets it at G = 0; the record's other roots and every
        # other row are distinct
        scenario = scenario_for(g=0.0)
        pairs, eps, K0, G = self.batch(scenario, [0.3, 0.4, 0.5], ("puc",))
        met = pairs._replace(Omega1=np.where(pairs.omega == 0.4, K0 + pairs.Omega2,
                                             pairs.Omega1))
        with pytest.raises(DegenerateRootError) as batch:
            _anchored_roots(K0, met, G, eps)
        pair, start, g_1 = self.row(met, eps, G, 1)
        with pytest.raises(DegenerateRootError) as alone:
            _anchored_roots(K0, pair, g_1, start)
        assert str(batch.value) == str(alone.value) == "two quartic roots meet at omega=0.4"
        for j in (0, 2):
            pair, start, g_j = self.row(met, eps, G, j)
            _anchored_roots(K0, pair, g_j, start)

    def test_pdc_pair_on_resonance_leads_with_positive_imaginary(self):
        # on resonance eps1 = +i|eps|, eps2 = -i|eps|: k1 is the root eps1
        # starts, so the pair's rows read the closed forms to their first
        # order in g
        req = SweepRequest(scenario=scenario_for(g=1e-5, l=2800.0), band=(0.4, 0.6),
                           samples=3, kinds=("pdc",))
        pairs, eps, K0, G = self.batch(replace(req.scenario, g=sweep_mod.QUARTIC_REFERENCE_G),
                                       req.grid(), ("pdc",))
        x = _anchored_roots(K0, pairs, G, eps)[1]
        assert (eps["eps1"].imag > 0.0).all() and (eps["eps1"].real == 0.0).all()
        assert (x[0].imag > 0.0).all() and (x[1].imag < 0.0).all()
        out, _ = compare_oracle(req, include_exact=False)
        pair = [row for row in out if row["quantity"] == "quartic_pair_roots"]
        assert [row["status"] for row in pair] == ["ok"] * 3
        assert all(row["rel_err"] < 1e-4 for row in pair)

    def test_exact_rows_build_their_own_roots(self, monkeypatch):
        # the anchored roots are the reference coupling's alone: moving
        # them moves the quartic rows and leaves every exact_excess row
        req = SweepRequest(scenario=scenario_for(g=1e-5, l=2800.0), band=(0.4, 0.6),
                           samples=3, kinds=("pdc",))

        def table():
            rows, _ = compare_oracle(req, include_exact=True)
            return {quantity: [repr(row) for row in rows if row["quantity"] == quantity]
                    for quantity in ("quartic_eps3", "exact_excess")}

        unpatched, roots = table(), sweep_mod._anchored_roots

        def moved(*args):
            k, x = roots(*args)
            assert len(args[2]) == 3  # the reference coupling's roots alone
            return k, x * (1.0 + 1e-9)

        monkeypatch.setattr(sweep_mod, "_anchored_roots", moved)
        patched = table()
        assert patched["quartic_eps3"] != unpatched["quartic_eps3"]
        assert len(patched["exact_excess"]) == 3
        assert patched["exact_excess"] == unpatched["exact_excess"]


class TestDegenerateRows:
    def test_single_row_carries_both_angles(self):
        rows = degenerate_rows(scenario_for(), kinds=("pdc",))
        assert len(rows) == 1
        row = rows[0]
        assert row["theta_d_deg"] == pytest.approx(10.0, abs=1e-3)
        assert row["theta_u_deg"] == pytest.approx(25.0, abs=0.5)

    def test_empty_result_reports_skip_reasons(self):
        # a band around omega0 leaves omega0 / 2 out of band for both kinds
        model = DispersionModel.constant(1.5, band=(0.9, 1.1))
        scenario = CrystalScenario(omega0=1.0, g=1e-4, l=100.0, dispersion=model)
        with pytest.raises(SweepError) as excinfo:
            degenerate_rows(scenario, kinds=("pdc", "puc"))
        assert excinfo.value.skip_reasons == {"out_of_band": 2}

    def test_unknown_kind_is_a_value_error(self):
        # the same check, and message, as SweepRequest gives run_sweep
        with pytest.raises(ValueError, match="conjugate kind.*'sfg'"):
            degenerate_rows(scenario_for(), kinds=("sfg",))
        for kinds in ((), "pdc", ("puc", "puc"), {"pdc"}, iter(["pdc"])):
            with pytest.raises(ValueError, match="^kinds must be a non-empty sequence"):
                degenerate_rows(scenario_for(), kinds=kinds)

    def test_puc_to_pdc_flux_ratio(self):
        rows = degenerate_rows(scenario_for(), kinds=("pdc", "puc"))
        flux = {row["kind"]: row["flux_omega"] for row in rows}
        ratio = flux["puc"] / flux["pdc"]
        # frozen oracle evaluation of the closed forms in the thin-slab
        # limit gives 0.05518711644813; finite thickness shifts it at the
        # sinc^2 level (~1e-5 relative here)
        assert ratio == pytest.approx(0.05518711644813, rel=1e-4)


class TestCompareOracle:
    def test_kernel_skips_become_channel_report_rows(self):
        req = SweepRequest(scenario=scenario_for(), band=(0.9, 1.1), samples=5,
                           kinds=("pdc", "puc"))
        rows, _ = compare_oracle(req)
        skipped = [(r["omega"], r["kind"], r["status"]) for r in rows
                   if r["quantity"] == "channel_report"]
        assert [(kind, status) for _, kind, status in skipped] == [
            ("pdc", "out_of_band"), ("pdc", "guard_band"), ("puc", "guard_band"),
            ("pdc", "geometry"), ("pdc", "geometry")]
        assert [omega for omega, _, _ in skipped] == pytest.approx(
            [0.95, 1.0, 1.0, 1.05, 1.1])

    def test_conditioning_refusal_row(self, monkeypatch):
        monkeypatch.setattr(oracle_mod, "COND_LIMIT", 1.0)
        req = SweepRequest(scenario=scenario_for(g=1e-5, l=2800.0),
                           band=(0.4, 0.6), samples=2, kinds=("pdc",))
        rows, breached = compare_oracle(req)
        exact = [r for r in rows if r["quantity"] == "exact_excess"]
        assert [r["status"] for r in exact] == ["conditioning_error"] * 2
        assert all(r["oracle"] is None for r in exact)
        assert not breached

    def test_puc_exact_rows_are_sign_flipped(self):
        # mu2 = 1.45 keeps r10 small enough for exact puc rows; the
        # attenuated t1 + r1 - 1 is negative, the reported excess positive
        model = calibrate_degenerate_angle(math.radians(10.0), 1.45)
        scenario = CrystalScenario(omega0=1.0, g=1e-5, l=2800.0, dispersion=model)
        req = SweepRequest(scenario=scenario, band=(0.3, 0.7), samples=5,
                           kinds=("puc",))
        rows, breached = compare_oracle(req)
        exact = [r for r in rows if r["quantity"] == "exact_excess"]
        assert [r["status"] for r in exact] == ["ok"] * 5
        assert all(r["oracle"] > 0.0 and r["closed_form"] > 0.0 for r in exact)
        assert not breached

    def test_reference_scenario_built_once(self, monkeypatch):
        built = []
        build = sweep_mod.replace

        def counted(*args, **kwargs):
            built.append(kwargs)
            return build(*args, **kwargs)

        monkeypatch.setattr(sweep_mod, "replace", counted)
        req = SweepRequest(scenario=scenario_for(), band=(0.3, 0.7), samples=5,
                           kinds=("pdc", "puc"))
        compare_oracle(req, include_exact=False)
        assert built == [{"g": sweep_mod.QUARTIC_REFERENCE_G}]

    def test_all_rows_within_tolerance(self):
        req = SweepRequest(
            scenario=scenario_for(g=1e-5, l=3000.0), band=(0.45, 0.55),
            samples=2, kinds=("pdc", "puc"),
        )
        rows, breached = compare_oracle(req)
        assert not breached
        quantities = {row["quantity"] for row in rows}
        assert {
            "flux_identity_excess",
            "flux_identity_partner",
            "series_r1",
            "quartic_eps_product",
            "quartic_pair_roots",
            "exact_excess",
        } <= quantities
        for row in rows:
            assert row["status"] in ("ok", "not_applicable")

    @pytest.mark.parametrize("mu2", [1.51, 10.0, 12.0, 20.0, 40.0])
    def test_quartic_and_series_rows_hold_at_every_index(self, mu2):
        # at high index eps3 and eps4 shrink to the ulps of their roots and
        # below (5e-17 - 7e-15 relative at mu2 40): only roots solved as
        # offsets from their anchors resolve them within the tolerance; r10
        # and r20 reach 0.75 - 0.92 from mu2 12 up, where 41 reflections
        # would leave a truncation of about r^80, up to 1e-3
        model = calibrate_degenerate_angle(math.radians(10.0), mu2)
        checked = []
        for g in (1e-7, 1e-5, 1e-3):
            scenario = CrystalScenario(omega0=1.0, g=g, l=100.0, dispersion=model)
            req = SweepRequest(scenario=scenario, band=(0.3, 0.7), samples=9,
                               kinds=("pdc", "puc"))
            checked += [row for row in compare_oracle(req, include_exact=False)[0]
                        if row["quantity"].startswith(("quartic_", "series_"))]
        assert len(checked) == 432
        assert [row for row in checked if row["status"] != "ok"] == []

    def test_exact_rows_marked_when_out_of_regime(self):
        # gamma too large for the exact-solve comparison band
        req = SweepRequest(scenario=scenario_for(g=5e-3, l=1000.0),
                           band=(0.45, 0.55), samples=2)
        rows, breached = compare_oracle(req)
        exact = [r for r in rows if r["quantity"] == "exact_excess"]
        assert exact and all(r["status"] == "not_applicable" for r in exact)
        assert not breached

    def test_breach_detected(self, monkeypatch):
        monkeypatch.setattr(sweep_mod, "QUARTIC_TOL", 1e-30)
        req = SweepRequest(scenario=scenario_for(), band=(0.45, 0.55), samples=2)
        rows, breached = compare_oracle(req, include_exact=False)
        assert breached

    @staticmethod
    def _measured_request(g=1e-5):
        """pdc over 0.4-0.6 (3 samples) at l 2800: at g 1e-5 every exact row is
        measured."""
        return SweepRequest(scenario=scenario_for(g=g, l=2800.0), band=(0.4, 0.6),
                            samples=3, kinds=("pdc",))

    @pytest.mark.parametrize("constant, governed", [
        ("IDENTITY_TOL", {"flux_identity_excess", "flux_identity_partner"}),
        ("SERIES_TOL", {"series_r1", "series_t1", "series_r2", "series_t2"}),
        ("QUARTIC_TOL", {"quartic_eps_product", "quartic_pair_roots", "quartic_eps3",
                         "quartic_eps4"}),
        ("EXACT_TOL", {"exact_excess"}),
    ])
    def test_each_tolerance_governs_its_own_rows(self, monkeypatch, constant, governed):
        # the tolerance is read at the call, not when the module is imported
        req = self._measured_request()
        before, breached = compare_oracle(req)
        assert not breached and all(row["status"] == "ok" for row in before)
        monkeypatch.setattr(sweep_mod, constant, -1.0)
        after, breached = compare_oracle(req)
        assert breached
        assert after == [{**row, "status": "breach", "tol": -1.0}
                         if row["quantity"] in governed else row for row in before]

    def test_skip_status_wins_over_the_tolerance(self, monkeypatch):
        req = self._measured_request(g=0.0)
        before, _ = compare_oracle(req)
        monkeypatch.setattr(sweep_mod, "IDENTITY_TOL", -1.0)
        after, breached = compare_oracle(req)
        assert not breached
        identity = {"flux_identity_excess", "flux_identity_partner"}
        assert after == [{**row, "tol": -1.0} if row["quantity"] in identity else row
                         for row in before]
        assert [row["status"] for row in after if row["quantity"] in identity] == [
            "not_applicable"] * 6

    def test_without_exact_rows_no_exact_average_runs(self, monkeypatch):
        req = self._measured_request()
        rows, _ = compare_oracle(req)
        assert [row["status"] for row in rows if row["quantity"] == "exact_excess"] == [
            "ok"] * 3

        def refused(*args, **kwargs):
            raise AssertionError("include_exact=False ran the exact oracle")

        monkeypatch.setattr(sweep_mod, "_exact_averages", refused)
        assert compare_oracle(req, include_exact=False) == (
            [row for row in rows if row["quantity"] != "exact_excess"], False)

    def test_detuning_rejected(self):
        # every oracle check runs at the resonant p0
        req = SweepRequest(scenario=scenario_for(), band=(0.45, 0.55), samples=2,
                           detuning=0.2)
        with pytest.raises(ValueError, match="detuning must be 0"):
            compare_oracle(req, include_exact=False)
        rows, _ = compare_oracle(replace(req, detuning=0.0), include_exact=False)
        assert rows

    def test_zero_coupling_identities_not_applicable(self):
        req = SweepRequest(scenario=scenario_for(g=0.0), band=(0.45, 0.55),
                           samples=2, kinds=("pdc",))
        rows, breached = compare_oracle(req, include_exact=False)
        assert not breached
        ident = [r for r in rows if r["quantity"].startswith("flux_identity")]
        assert ident and all(r["status"] == "not_applicable" for r in ident)
        series = [r for r in rows if r["quantity"].startswith("series_")]
        assert series and all(r["status"] == "ok" for r in series)

    def test_zero_coupling_exact_rows_not_applicable(self, capsys):
        # the closed excess is 0, so the oracle's rounding noise of
        # +-2.2e-16 would read as a breach with rel_err 1
        code = main(["compare-oracle", "--theta-d-deg", "10", "--mu2", "1.51", "--g", "0",
                     "--l", "2800", "--band", "0.3", "0.7", "--samples", "5",
                     "--kind", "both"])
        out = capsys.readouterr().out
        assert code == 0
        exact = [line.split(",") for line in out.splitlines() if ",exact_excess," in line]
        assert len(exact) == 10
        assert all(cells[3:8] == ["not_applicable", "", "", "", ""] for cells in exact)

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 5: exact rows are judged "
                       "applicable on r10 and gamma alone, and at the CLI defaults (g 1e-4, "
                       "l 100) every pdc exact_excess row breaches, rel_err 0.057-0.131")
    def test_cli_defaults_pass_the_exact_oracle(self, capsys):
        code = main(["compare-oracle", "--theta-d-deg", "10", "--mu2", "1.51"])
        breaches = [line for line in capsys.readouterr().out.splitlines()
                    if ",exact_excess,breach," in line]
        assert (code, breaches) == (0, [])


class TestUndefinedRatio:
    """Up-conversion at a collinear resonance with equal Fresnel steps: the
    partner flux, the flux ratio's denominator, is exactly zero."""

    @pytest.fixture
    def collinear(self):
        model = DispersionModel.constant(1.5, band=(0.01, 3.0))
        return CrystalScenario(omega0=1.0, g=1e-4, l=100.0, dispersion=model)

    def test_channel_report_raises_typed_error(self, collinear):
        with pytest.raises(UndefinedSplitError, match="partner flux vanishes"):
            channel_report(collinear, 0.5, kind="puc")

    def test_sweep_rows_skip_instead_of_raising(self, collinear):
        req = SweepRequest(scenario=collinear, band=(0.1, 0.9), samples=9,
                           kinds=("pdc", "puc"))
        statuses = {(row["kind"], row["status"]) for row in run_sweep(req)}
        assert statuses == {("pdc", "ok"), ("puc", "undefined_ratio")}

    def test_degenerate_rows_skip_instead_of_raising(self, collinear):
        rows = degenerate_rows(collinear, kinds=("pdc", "puc"))
        assert [(r["kind"], r["status"]) for r in rows] == [
            ("pdc", "ok"), ("puc", "undefined_ratio")]
        assert rows[1]["gamma"] is None

    def test_compare_oracle_rows_skip_instead_of_raising(self, collinear):
        req = SweepRequest(scenario=collinear, band=(0.3, 0.7), samples=3,
                           kinds=("puc",))
        rows, _ = compare_oracle(req, include_exact=False)
        assert [(r["quantity"], r["status"]) for r in rows] == [
            ("channel_report", "undefined_ratio")] * 3


class TestStrongGain:
    """An overflowing gain is a StrongGainError at every entry point."""

    # overflow: sin(xi) leaves the float range; inf: sinc(xi)^2 does; and
    # gamma_inf: sinc(xi)^2 is finite but gamma = (g l ...)^2 sinc^2 is not
    @pytest.fixture(params=[(0.1, 3e4), (9e-3, 2e5), (5.4e-3, 2e5)],
                    ids=["overflow", "inf", "gamma_inf"])
    def strong(self, request):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ValidityWarning)
            return scenario_for(*request.param)

    def test_library_entry_points_raise_typed_error(self, strong):
        req = SweepRequest(scenario=strong, band=(0.45, 0.55), samples=3,
                           kinds=("pdc", "puc"))
        with pytest.raises(StrongGainError):
            channel_report(strong, 0.5)
        with pytest.raises(StrongGainError):
            run_sweep(req)
        with pytest.raises(StrongGainError):
            degenerate_rows(strong)
        with pytest.raises(StrongGainError):
            compare_oracle(req)

    @pytest.mark.parametrize("verb", ["sweep", "compare-oracle", "degenerate"])
    def test_cli_exits_with_usage_code(self, verb, capsys):
        self.assert_cli_refuses(verb, "0.1", "3e4", capsys)

    @pytest.mark.parametrize("verb", ["sweep", "compare-oracle", "degenerate"])
    def test_cli_refuses_infinite_gamma(self, verb, capsys):
        self.assert_cli_refuses(verb, "5.4e-3", "2e5", capsys)

    @staticmethod
    def assert_cli_refuses(verb, g, l, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ValidityWarning)
            code = main([verb, "--theta-d-deg", "10", "--mu2", "1.51", "--g", g, "--l", l]
                        + ([] if verb == "degenerate" else
                           ["--band", "0.45", "0.55", "--samples", "3"]))
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("pumpslab: ") and "Traceback" not in captured.err

    # g 5e-3, l 3e5: the pdc gain on 0.3-0.7 leaves the float range, while
    # puc only attenuates; a request refuses only for a row it prints
    ONE_KIND = ["--theta-d-deg", "10", "--mu2", "1.51", "--g", "5e-3", "--l", "3e5"]

    def test_strong_pdc_gain_refuses_only_tables_with_pdc_rows(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ValidityWarning)
            s = scenario_for(5e-3, 3e5)
        req = SweepRequest(scenario=s, band=(0.3, 0.7), samples=3, kinds=("puc",))
        rows = run_sweep(req)
        assert [(row["kind"], row["status"]) for row in rows] == [("puc", "ok")] * 3
        assert [row["kind"] for row in degenerate_rows(s, ("puc",))] == ["puc"]
        assert {row["kind"] for row in compare_oracle(req)[0]} == {"puc"}
        for kinds in (("pdc",), ("pdc", "puc")):
            with pytest.raises(StrongGainError, match="^sinc"):
                run_sweep(replace(req, kinds=kinds))
            with pytest.raises(StrongGainError, match="^sinc"):
                degenerate_rows(s, kinds)
            with pytest.raises(StrongGainError, match="^sinc"):
                compare_oracle(replace(req, kinds=kinds), include_exact=False)

    @pytest.mark.parametrize("argv", [
        ["sweep", "--band", "0.3", "0.7", "--samples", "3"],
        ["compare-oracle", "--band", "0.3", "0.7", "--samples", "3"],
        ["compare-oracle", "--no-exact", "--band", "0.3", "0.7", "--samples", "3"],
        ["degenerate"],
    ], ids=["sweep", "compare-oracle", "compare-oracle-no-exact", "degenerate"])
    def test_strong_pdc_gain_leaves_puc_requests_ok(self, argv, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ValidityWarning)
            code = main([*argv, "--kind", "puc", *self.ONE_KIND])
            out = capsys.readouterr().out
            rows = [line.split(",") for line in out.splitlines()[1:]]
            assert code == 0
            assert rows and {row[1] for row in rows} == {"puc"}
            assert "ok" in {row[3 if argv[0] == "compare-oracle" else 2] for row in rows}
            for kind in ("pdc", "both"):
                assert main([*argv, "--kind", kind, *self.ONE_KIND]) == 1
                captured = capsys.readouterr()
                assert captured.out == ""
                assert captured.err.startswith("pumpslab: sinc(xi)^2 is not finite")

    def test_largest_finite_gamma_stays_ok(self):
        # g 5.35e-3 gives gamma = 1.4e307: every report cell is still finite
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ValidityWarning)
            s = scenario_for(5.35e-3, 2e5)
        report = channel_report(s, 0.5)
        assert 1e307 < report.gamma < math.inf
        rows = run_sweep(SweepRequest(scenario=s, band=(0.45, 0.55), samples=3,
                                      kinds=("pdc", "puc")))
        assert {row["status"] for row in rows} == {"ok"}
        assert all(math.isfinite(row[c]) for row in rows for c in SWEEP_COLUMNS[3:])

    def test_oracle_series_refuses_before_overflow(self):
        # at gamma = 1.4e307 every report cell is finite, but the series
        # terms 1 + k gamma (k up to 41) are not: refused before summing
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ValidityWarning)
            s = scenario_for(5.35e-3, 2e5)
        req = SweepRequest(scenario=s, band=(0.45, 0.55), samples=9, kinds=("pdc", "puc"))
        with pytest.raises(StrongGainError, match="reflection series"):
            compare_oracle(req)
        with pytest.raises(StrongGainError, match="reflection series"):
            series_sum(0.01, 0.02, 1.4e307, 0.5, 1.0)
        with pytest.raises(StrongGainError):
            series_sum(0.01, 0.02, math.inf, 0.5, 1.0, kind="puc")
        # the largest accepted gain sums to finite values, the next is refused;
        # at r10 = r20 = 0.9 blocks 1 - 4 start at 0.9^82b >= eps, so the sums
        # run to 5 blocks, 205 terms
        block = oracle_mod.SERIES_BLOCK
        assert 0.9 ** (2 * block * 4) >= sys.float_info.epsilon > 0.9 ** (2 * block * 5)
        terms = 5 * block
        for kind, partner in (("pdc", 1.0 - 0.4), ("puc", 1.0 + 0.4)):
            limit = sys.float_info.max / terms ** 2 / (partner / 0.4)
            assert all(map(math.isfinite, series_sum(0.9, 0.9, limit, 0.4, 1.0, kind)))
            with pytest.raises(StrongGainError):
                series_sum(0.9, 0.9, math.nextafter(limit, math.inf), 0.4, 1.0, kind)

    def test_cli_refuses_series_overflow(self, capsys):
        self.assert_cli_refuses("compare-oracle", "5.35e-3", "2e5", capsys)


class TestSerialization:
    def test_csv_and_jsonl_carry_identical_values(self):
        req = SweepRequest(scenario=scenario_for(), band=(0.4, 0.6), samples=3)
        rows = run_sweep(req)
        csv_text = rows_to_text(rows, SWEEP_COLUMNS, "csv")
        jsonl_text = rows_to_text(rows, SWEEP_COLUMNS, "jsonl")
        csv_lines = csv_text.strip().split("\n")
        header = csv_lines[0].split(",")
        assert tuple(header) == SWEEP_COLUMNS
        for csv_line, json_line in zip(csv_lines[1:], jsonl_text.strip().split("\n")):
            record = json.loads(json_line)
            cells = csv_line.split(",")
            for column, cell in zip(header, cells):
                value = record[column]
                if value is None:
                    assert cell == ""
                elif isinstance(value, str):
                    assert cell == value
                else:
                    assert float(cell) == value

    def test_output_is_bit_stable(self):
        req = SweepRequest(scenario=scenario_for(), band=(0.35, 0.65), samples=5)
        first = rows_to_text(run_sweep(req), SWEEP_COLUMNS, "csv")
        second = rows_to_text(run_sweep(req), SWEEP_COLUMNS, "csv")
        assert first == second

    @staticmethod
    def naive_csv(rows, columns):
        def cell(value):
            if value is None:
                return ""
            return value if isinstance(value, str) else "%.12g" % value

        lines = [columns] + [[cell(row[c]) for c in columns] for row in rows]
        return "".join(",".join(line) + "\n" for line in lines)

    @given(_csv_tables())
    @example((["a"], [{"a": None}, {"a": 0.5}, {"a": "x"}, {"a": None}]))
    @example((["a", "b", "c"], [{"a": None, "b": None, "c": None}] * 3))
    @example((["a", "b"], [{"a": True, "b": np.float64(1 / 3)}, {"a": 7, "b": "%s"}]))
    @settings(max_examples=200)
    def test_csv_matches_a_per_cell_join(self, table):
        columns, rows = table
        assert rows_to_text(rows, columns, "csv") == self.naive_csv(rows, columns)

    @staticmethod
    def dict_jsonl(rows, columns):
        """JSON lines as one json.dumps of a dict per row, every float
        rounded to 12 significant digits first."""
        return "".join(
            json.dumps({c: float(f"{row[c]:.12g}") if isinstance(row[c], float) else row[c]
                        for c in columns}) + "\n"
            for row in rows)

    @given(st.one_of(st.floats(), st.floats().map(np.float64)))
    @example(0.0)
    @example(-0.0)
    @example(2.0)
    @example(1e11)
    @example(123456789012.0)
    @example(1e12)
    @example(1.5e15)
    @example(1e16)
    @example(5e-324)
    @example(2.2250738585072014e-308)
    @example(1e-300)
    @example(1.7976931348623157e308)
    @example(math.inf)
    @example(-math.inf)
    @example(math.nan)
    @settings(max_examples=1000)
    def test_jsonl_number_is_json_of_the_12_digit_value(self, value):
        cell = json.dumps(float(f"{value:.12g}"))
        assert rows_to_text([{"x": value}], ("x",), "jsonl") == f'{{"x": {cell}}}\n'

    @given(_csv_tables())
    @settings(max_examples=200)
    def test_jsonl_matches_a_dict_per_row(self, table):
        columns, rows = table
        assert rows_to_text(rows, columns, "jsonl") == self.dict_jsonl(rows, columns)

    @pytest.mark.parametrize("block", [1, 3, sweep_mod._BLOCK])
    def test_block_boundaries(self, monkeypatch, block):
        monkeypatch.setattr(sweep_mod, "_BLOCK", block)
        cycle = [None, "5%,s", 0.1, 7, True, np.float64(1 / 3), math.inf, math.nan]
        columns = ("a", "b", "c")
        rows = [{"a": cycle[i % 8], "b": cycle[(i + 3) % 8], "c": cycle[(i * 5 + 1) % 8]}
                for i in range(2 * block + 1)]  # every row's shape differs from its neighbours'
        expected = {"csv": self.naive_csv(rows, columns),
                    "jsonl": self.dict_jsonl(rows, columns)}
        for output_format, text in expected.items():
            assert rows_to_text(rows, columns, output_format) == text
            assert rows_to_text((row for row in rows), columns, output_format) == text
            writes = []
            sweep_mod.write_rows(rows, columns, SimpleNamespace(write=writes.append),
                                 output_format)
            assert len(writes) == (output_format == "csv") + 3  # header, then one per block
        assert rows_to_text([], columns, "csv") == "a,b,c\n"
        assert rows_to_text([], columns, "jsonl") == ""
        for output_format in ("csv", "jsonl"):
            with pytest.raises(KeyError):
                rows_to_text(rows + [{"a": 1.0, "b": 2.0}], columns, output_format)
        with pytest.raises(TypeError):
            rows_to_text(rows + [{"a": [], "b": 2.0, "c": 3.0}], columns, "csv")
        with pytest.raises(ValueError):
            sweep_mod.write_rows(iter(()), columns, SimpleNamespace(write=None), "tsv")

    def test_jsonl_tables_match_a_dict_per_row(self):
        request = SweepRequest(scenario=scenario_for(), band=(0.05, 1.95), samples=201,
                               kinds=("pdc", "puc"))
        rows = run_sweep(request)
        assert len(rows) == 402
        assert rows_to_text(rows, SWEEP_COLUMNS, "jsonl") == self.dict_jsonl(rows,
                                                                             SWEEP_COLUMNS)
        request = SweepRequest(scenario=scenario_for(g=1e-5, l=2800.0), band=(0.3, 0.7),
                               samples=5, kinds=("pdc", "puc"))
        rows, _ = compare_oracle(request, include_exact=True)
        assert any(row["quantity"] == "exact_excess" and row["status"] == "ok"
                   for row in rows)
        assert rows_to_text(rows, ORACLE_COLUMNS, "jsonl") == self.dict_jsonl(rows,
                                                                              ORACLE_COLUMNS)


class TestCli:
    def test_degenerate_verb(self, capsys):
        code = main(["degenerate", "--theta-d-deg", "10", "--mu2", "1.51"])
        assert code == 0
        out = capsys.readouterr().out
        lines = out.strip().split("\n")
        assert lines[0].split(",")[0] == "omega"
        row = dict(zip(lines[0].split(","), lines[1].split(",")))
        assert float(row["theta_d_deg"]) == pytest.approx(10.0, abs=1e-3)
        assert float(row["theta_u_deg"]) == pytest.approx(25.0, abs=0.5)

    def test_sweep_to_file(self, tmp_path):
        out = tmp_path / "rows.csv"
        code = main([
            "sweep", "--theta-d-deg", "10", "--mu2", "1.51",
            "--band", "0.4", "0.6", "--samples", "5",
            "--output", str(out),
        ])
        assert code == 0
        text = out.read_text()
        assert text.startswith(",".join(SWEEP_COLUMNS))
        assert len(text.strip().split("\n")) == 6

    def test_sweep_jsonl(self, capsys):
        code = main([
            "sweep", "--theta-d-deg", "10", "--mu2", "1.51",
            "--band", "0.4", "0.6", "--samples", "3", "--format", "jsonl",
        ])
        assert code == 0
        for line in capsys.readouterr().out.strip().split("\n"):
            json.loads(line)

    def test_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "[scenario]\nomega0 = 1.0\ng = 1e-4\nl = 100.0\n"
            "theta_d_deg = 10.0\nmu2 = 1.51\n"
            "[sweep]\nomega_lo = 0.4\nomega_hi = 0.6\nsamples = 3\nkind = both\n"
            "[output]\nformat = csv\n"
        )
        code = main(["sweep", "--config", str(cfg)])
        assert code == 0
        out = capsys.readouterr().out
        assert len(out.strip().split("\n")) == 7  # header + 3 omegas x 2 kinds

    def test_calibrate_round_trip(self, tmp_path):
        record = tmp_path / "model.txt"
        code = main([
            "calibrate", "--theta-d-deg", "10", "--mu2", "1.51",
            "--output", str(record),
        ])
        assert code == 0
        model = DispersionModel.from_record(record.read_text())
        gap = model.mu(0.5) ** 2 - model.mu(1.0) ** 2
        assert gap == pytest.approx(math.sin(math.radians(10.0)) ** 2, rel=1e-10)
        # and the record drives a sweep
        code = main([
            "degenerate", "--model", str(record), "--output",
            str(tmp_path / "row.csv"),
        ])
        assert code == 0

    def test_calibrate_refuses_an_index_whose_square_overflows(self, capsys):
        assert main(["calibrate", "--theta-d-deg", "10", "--mu2", "1e200"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"pumpslab: no float model for theta_d={math.radians(10.0)!r}, "
                                "mu2=1e+200, omega0=1.0: tabulated samples must be finite\n")

    def test_calibrate_refuses_a_non_finite_index(self, capsys):
        assert main(["calibrate", "--theta-d-deg", "10", "--mu2", "nan"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "pumpslab: pump-frequency index mu2 must be finite, got nan\n"

    def test_compare_oracle_verb(self, tmp_path):
        out = tmp_path / "oracle.csv"
        code = main([
            "compare-oracle", "--theta-d-deg", "10", "--mu2", "1.51",
            "--g", "1e-5", "--l", "3000",
            "--band", "0.45", "0.55", "--samples", "2", "--no-exact",
            "--output", str(out),
        ])
        assert code == 0
        assert out.read_text().startswith(",".join(ORACLE_COLUMNS))

    def test_detuning_is_a_sweep_option_only(self, tmp_path, capsys):
        physics = ["--theta-d-deg", "10", "--mu2", "1.51",
                   "--band", "0.45", "0.55", "--samples", "2"]
        assert main(["sweep", *physics, "--detuning", "0.005"]) == 0
        with pytest.raises(SystemExit) as excinfo:
            main(["compare-oracle", *physics, "--no-exact", "--detuning", "0.005"])
        assert excinfo.value.code == 1
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "[scenario]\ntheta_d_deg = 10.0\nmu2 = 1.51\n"
            "[sweep]\nomega_lo = 0.45\nomega_hi = 0.55\nsamples = 2\n"
            "detuning = 0.005\n"
        )
        capsys.readouterr()
        assert main(["compare-oracle", "--config", str(cfg), "--no-exact"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "detuning must be 0" in captured.err
        assert main(["sweep", "--config", str(cfg)]) == 0

    def test_one_parser_serves_every_call(self, tmp_path, monkeypatch, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "[scenario]\ntheta_d_deg = 10.0\nmu2 = 1.51\n"
            "[sweep]\nomega_lo = 0.35\nomega_hi = 0.65\nsamples = 3\n"
        )
        physics = ["--theta-d-deg", "10", "--mu2", "1.51"]
        calls = [
            ["sweep", *physics, "--band", "0.4", "0.6", "--samples", "4",
             "--kind", "both", "--detuning", "0.001", "--format", "jsonl"],
            ["calibrate", "--theta-d-deg", "9.5", "--mu2", "1.505",
             "--band", "0.1", "2.4"],
            ["compare-oracle", *physics, "--g", "1e-5", "--l", "3000",
             "--band", "0.45", "0.55", "--samples", "3", "--no-exact"],
            ["sweep", "--config", str(cfg)],
        ]

        def run(argv):
            code = main(argv)
            return code, capsys.readouterr().out

        def no_rebuild():
            raise AssertionError("main() rebuilt its parser")

        monkeypatch.setattr(cli_mod, "build_parser", no_rebuild)
        shared = [run(argv) for argv in calls]
        monkeypatch.undo()
        for argv, result in zip(calls, shared):
            monkeypatch.setattr(cli_mod, "_PARSER", cli_mod.build_parser())
            assert result == run(argv)
            assert result[0] == 0 and result[1]

    def test_breach_exit_code(self, monkeypatch, capsys):
        monkeypatch.setattr(sweep_mod, "QUARTIC_TOL", 1e-30)
        code = main([
            "compare-oracle", "--theta-d-deg", "10", "--mu2", "1.51",
            "--band", "0.45", "0.55", "--samples", "2", "--no-exact",
        ])
        capsys.readouterr()
        assert code == 2

    def test_empty_sweep_exit_code(self, capsys):
        code = main([
            "sweep", "--theta-d-deg", "10", "--mu2", "1.51",
            "--band", "0.99", "1.01", "--samples", "3",
        ])
        capsys.readouterr()
        assert code == 3

    def test_usage_exit_code(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", "--band", "oops"])
        assert excinfo.value.code == 1

    def test_missing_scenario_inputs(self, capsys):
        code = main(["sweep", "--band", "0.4", "0.6"])
        capsys.readouterr()
        assert code == 1

    def test_missing_config_file(self, tmp_path, capsys):
        path = tmp_path / "absent.cfg"
        assert main(["sweep", "--config", str(path)]) == cli_mod.USAGE_EXIT
        assert capsys.readouterr().err == f"pumpslab: config file not found: {path}\n"

    @pytest.mark.parametrize("record, message", [
        ("kind=rational\nband_lo=0.05\nband_hi=2.5\na=2.2\nb=-0.5\nc=9\n",
         "unknown dispersion kind 'rational'\n"),
        ("kind=constant\nband_lo=0.05\nband_hi=2.5\n",
         "constant model needs exactly the parameters"),
        ("kind=constant\nband_lo=0.05\nband_hi=2.5\nvalue=1e200\n",
         "constant mu=1e+200 overflows mu^2"),
        ("kind=constant\nband_lo=0.05\nband_hi=2.5\nvalue=-1.5\n",
         "constant mu=-1.5 is negative\n"),
        ("kind=constant\nband_lo=0.05\nband_hi=2.5\nvalue=1.5\nextra=1\n",
         "constant model needs exactly the parameters"),
        ("kind=constant\nband_lo=0.05\nband_hi=2.5\nvalue=1.5,1.6\n",
         "constant model parameters must be numbers"),
        ("kind=constant\nband_lo=0.05\n\n# comment\ngarbage\nband_hi=2.5\nvalue=1.5\n",
         "model record line 5 is not key=value: 'garbage'\n"),
        ("kind=constant\nband_lo=0.05\nband_hi=2.5\nvalue=1.5\nvalue=2.5\n",
         "model record line 5 repeats field 'value'\n"),
        ("kind=constant\nband_lo=abc\nband_hi=2.5\nvalue=1.5\n",
         "model record field band_lo='abc' is not a number\n"),
        ("kind=constant\nband_lo=0.05\nband_hi=\nvalue=1.5\n",
         "model record field band_hi='' is not a number\n"),
        ("kind=constant\nband_lo=0.05\nband_hi=2.5\nvalue=1.5x\n",
         "model record field value='1.5x' is not a number\n"),
        ("kind=tabulated\nband_lo=0.1\nband_hi=2\nomegas=0.1,,2\nmu_squared=2,2.1,2.2\n",
         "model record field omegas='' is not a number\n"),
    ], ids=["rational-kind", "constant-without-value", "overflowing-constant",
            "negative-constant", "unknown-key", "list-value", "line-without-equals",
            "repeated-field", "band-not-a-number",
            "empty-band", "value-not-a-number", "empty-list-entry"])
    def test_bad_model_record_is_a_usage_error(self, tmp_path, capsys, record, message):
        path = tmp_path / "model.rec"
        path.write_text(record)
        assert main(["sweep", "--model", str(path)]) == cli_mod.USAGE_EXIT
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"pumpslab: {message}") and err.count("\n") == 1

    @pytest.mark.parametrize("flag, value, message", [
        ("--band", ["0.4", "inf"], "band must be finite with lo < hi, got (0.4, inf)"),
        ("--band", ["0.4", "nan"], "band must be finite with lo < hi, got (0.4, nan)"),
        ("--detuning", "nan", "detuning must be finite, got nan"),
        ("--detuning", "inf", "detuning must be finite, got inf"),
        ("--g", "nan", "coupling g must be finite and non-negative, got nan"),
        ("--g", "inf", "coupling g must be finite and non-negative, got inf"),
        ("--l", "inf", "thickness l must be finite and positive, got inf"),
        ("--l", "nan", "thickness l must be finite and positive, got nan"),
    ])
    def test_non_finite_scenario_input_is_a_usage_error(self, capsys, flag, value, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # refused before any numpy warning
            code = main(["sweep", "--theta-d-deg", "10", "--mu2", "1.51", flag,
                         *([value] if isinstance(value, str) else value)])
        assert code == cli_mod.USAGE_EXIT
        assert capsys.readouterr().err == f"pumpslab: {message}\n"

    def test_console_entry_point(self, capsys):
        # the subprocess imports the package under test, installed or not
        src = str(Path(pumpslab.__file__).resolve().parents[1])
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, path] if path else [src]))
        argv = ["degenerate", "--theta-d-deg", "10", "--mu2", "1.51", "--kind", "both"]
        proc = subprocess.run(
            [sys.executable, "-m", "pumpslab.cli", *argv],
            capture_output=True, text=True, timeout=120, env=env,
        )
        assert proc.returncode == 0
        assert proc.stdout.startswith(",".join(SWEEP_COLUMNS))
        assert main(argv) == 0
        assert proc.stdout == capsys.readouterr().out
        # main's exit code becomes the process's
        proc = subprocess.run(
            [sys.executable, "-m", "pumpslab.cli", "degenerate"],
            capture_output=True, text=True, timeout=120, env=env,
        )
        assert proc.returncode == cli_mod.USAGE_EXIT
        assert proc.stderr.startswith("pumpslab: scenario needs")


SCENARIO_INI = "[scenario]\ntheta_d_deg = 10.0\nmu2 = 1.51\n"


def run_config(tmp_path, capsys, verb, text, *argv):
    """main([verb, --config FILE, *argv]) on an INI file holding text."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    code = main([verb, "--config", str(cfg), *argv])
    out, err = capsys.readouterr()
    return code, out, err


class TestCliConfig:
    def test_flag_beats_file_beats_default(self, tmp_path, capsys):
        physics = ["--theta-d-deg", "10", "--mu2", "1.51"]
        text = SCENARIO_INI + "[sweep]\nsamples = 3\nkind = puc\n"
        code, out, _ = run_config(tmp_path, capsys, "sweep", text, "--kind", "pdc")
        assert code == 0
        assert main(["sweep", *physics, "--samples", "3", "--kind", "pdc"]) == 0
        assert out == capsys.readouterr().out
        assert [line.split(",")[1] for line in out.splitlines()[1:]] == ["pdc"] * 3

    def test_degenerate_reads_config_kind(self, tmp_path, capsys):
        code, out, _ = run_config(tmp_path, capsys, "degenerate",
                                  SCENARIO_INI + "[sweep]\nkind = both\n")
        assert code == 0
        assert [line.split(",")[1] for line in out.splitlines()[1:]] == ["pdc", "puc"]
        assert main(["degenerate", "--theta-d-deg", "10", "--mu2", "1.51",
                     "--kind", "both"]) == 0
        assert out == capsys.readouterr().out

    @pytest.mark.parametrize("verb", ["degenerate", "sweep"])
    def test_unknown_config_kind_is_a_usage_error(self, tmp_path, capsys, verb):
        code, out, err = run_config(tmp_path, capsys, verb,
                                    SCENARIO_INI + "[sweep]\nkind = sfg\n")
        assert (code, out) == (cli_mod.USAGE_EXIT, "")
        assert err.startswith("pumpslab: conjugate kind") and "'sfg'" in err

    @pytest.mark.parametrize("text, message", [
        (SCENARIO_INI + "[sweep]\nomega_lo = 0.4\n", "'omega_hi'"),
        (SCENARIO_INI + "[sweep]\nomega_hi = 0.6\n", "'omega_lo'"),
        ("theta_d_deg = 10.0\n", "no section headers"),
        (SCENARIO_INI + "[output]\noutput_format = jsonl\n", "[output] output_format"),
        (SCENARIO_INI + "[output]\noutput = rows.csv\n", "[output] output"),
        (SCENARIO_INI + "[sweep]\nsample = 3\n", "[sweep] sample"),
        ("[DEFAULT]\ng = 2e-4\n" + SCENARIO_INI, "keys: [DEFAULT] g"),
        (SCENARIO_INI + "[output]\npath = run%1.csv\n", "'%' must be followed"),
    ], ids=["lo-without-hi", "hi-without-lo", "no-section", "alias-format",
            "alias-output", "misspelt", "default-section", "interpolation"])
    def test_malformed_config_is_a_usage_error(self, tmp_path, capsys, text, message):
        code, out, err = run_config(tmp_path, capsys, "sweep", text)
        assert (code, out) == (cli_mod.USAGE_EXIT, "")
        assert err.startswith("pumpslab: ") and message in err

    @pytest.mark.parametrize("text, message", [
        (SCENARIO_INI + "[sweep]\nsamples = 2.5\n",
         "[sweep] samples: invalid literal for int() with base 10: '2.5'"),
        (SCENARIO_INI + "g = abc\n", "[scenario] g: could not convert string to float: 'abc'"),
        (SCENARIO_INI + "[sweep]\nomega_lo = low\nomega_hi = 0.6\n",
         "[sweep] omega_lo: could not convert string to float: 'low'"),
    ], ids=["samples", "g", "omega_lo"])
    def test_bad_config_value_names_its_key(self, tmp_path, capsys, text, message):
        code, out, err = run_config(tmp_path, capsys, "sweep", text)
        assert (code, out) == (cli_mod.USAGE_EXIT, "")
        assert err == f"pumpslab: {message}\n"

    def test_rejected_format_leaves_output_file(self, tmp_path, capsys):
        out_path = tmp_path / "out.csv"
        out_path.write_bytes(b"rows of an earlier run\n")
        text = SCENARIO_INI + f"[output]\nformat = xml\npath = {out_path}\n"
        code, out, err = run_config(tmp_path, capsys, "degenerate", text)
        assert (code, out) == (cli_mod.USAGE_EXIT, "")
        assert "output format must be" in err
        assert out_path.read_bytes() == b"rows of an earlier run\n"


_SWEEP_ARGV = ["sweep", "--theta-d-deg", "10", "--mu2", "1.51", "--band", "0.4", "0.6",
               "--samples", "5", "--kind", "both"]


class TestOutputPath:
    def test_missing_directory_is_a_usage_error_that_creates_nothing(self, tmp_path,
                                                                     capsys):
        path = tmp_path / "absent" / "rows.csv"
        assert main([*_SWEEP_ARGV, "--output", str(path)]) == cli_mod.USAGE_EXIT
        assert capsys.readouterr() == (
            "", f"pumpslab: [Errno 2] No such file or directory: '{path}'\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv, code", [
        # every sample in the guard band: an empty sweep
        (["sweep", "--theta-d-deg", "10", "--mu2", "1.51", "--band", "0.99", "1.01",
          "--samples", "3"], cli_mod.EMPTY_EXIT),
        (["sweep", "--theta-d-deg", "10", "--mu2", "1.51",
          "--samples", str(sweep_mod.MAX_SAMPLES + 1)], cli_mod.USAGE_EXIT),
    ], ids=["empty", "refused"])
    def test_a_failed_request_leaves_an_existing_file(self, tmp_path, capsys, argv, code):
        path = tmp_path / "rows.csv"
        path.write_bytes(b"rows of an earlier run\r\n")
        assert main([*argv, "--output", str(path)]) == code
        assert capsys.readouterr().out == ""
        assert path.read_bytes() == b"rows of an earlier run\r\n"

    def test_short_writes_still_write_every_byte(self, tmp_path, capsys, monkeypatch):
        assert main(_SWEEP_ARGV) == 0
        expected = capsys.readouterr().out
        write, sizes = os.write, []

        def short(fd, data):
            sizes.append(write(fd, data[:7]))
            return sizes[-1]

        monkeypatch.setattr(os, "write", short)
        path = tmp_path / "rows.csv"
        path.write_bytes(b"a longer file of an earlier run\n" * 1000)
        assert main([*_SWEEP_ARGV, "--output", str(path)]) == 0
        assert path.read_bytes() == expected.encode("utf-8")
        assert len(sizes) == -(-len(expected) // 7)

    @pytest.mark.parametrize("umask", [0o022, 0o077, 0o002])
    def test_new_file_mode_is_that_of_a_text_file(self, tmp_path, umask):
        previous = os.umask(umask)
        try:
            with open(tmp_path / "text.csv", "w"):
                pass
            assert main([*_SWEEP_ARGV, "--output", str(tmp_path / "rows.csv")]) == 0
        finally:
            os.umask(previous)
        assert ((tmp_path / "rows.csv").stat().st_mode
                == (tmp_path / "text.csv").stat().st_mode)


README = Path(__file__).resolve().parents[1] / "README.md"


def readme_key_table():
    """(section, key) -> verbs, from the INI key table of README's Command line."""
    table = {}
    for line in README.read_text(encoding="utf-8").splitlines():
        match = re.fullmatch(r"\| `\[(\w+)\] (\w+)` \|.*\| ([a-z, -]+) \|", line)
        if match:
            table[match[1], match[2]] = set(match[3].split(", "))
    return table


def test_readme_lists_every_config_key_and_its_verbs():
    table = readme_key_table()
    assert set(table) == cli_mod.INI_KEYS
    for verb in ("sweep", "degenerate", "compare-oracle"):
        settings = vars(cli_mod._PARSER.parse_args([verb]))
        read = {(section, key) for name, (section, key, *_) in cli_mod._SETTINGS.items()
                if name in settings}
        if "band" in settings:
            read |= {("sweep", "omega_lo"), ("sweep", "omega_hi")}
        assert read == {entry for entry, verbs in table.items() if verb in verbs}


def test_readme_names_every_public_name():
    text = README.read_text(encoding="utf-8")
    assert [name for name in pumpslab.__all__ if f"`{name}" not in text] == []


def test_readme_config_example_runs(tmp_path, monkeypatch, capsys):
    text = README.read_text(encoding="utf-8")
    example = text.split("```ini\n")[1].split("```")[0]
    monkeypatch.chdir(tmp_path)
    code, out, err = run_config(tmp_path, capsys, "sweep", example)
    assert (code, out, err) == (0, "", "")
    rows = (tmp_path / "rows.csv").read_text().splitlines()
    assert rows[0] == ",".join(SWEEP_COLUMNS) and len(rows) == 1 + 7 * 2


# argv of the parser-dispatch test: every verb with its flags, help before
# and after a verb, and the usage errors.  {config}, {model} and {output}
# stand for files the test writes; an {output} file's text is compared too.
_PHYSICS = ["--theta-d-deg", "10", "--mu2", "1.51"]
_DISPATCH_CASES = {
    "sweep-every-flag": ["sweep", *_PHYSICS, "--omega0", "1.0", "--g", "2e-4", "--l", "90",
                         "--guard-width", "0.03", "--band", "0.4", "0.6", "--samples", "3",
                         "--kind", "both", "--detuning", "0.001", "--format", "csv"],
    "sweep-config": ["sweep", "--config", "{config}"],
    "sweep-config-and-flags": ["sweep", "--config", "{config}", "--samples", "2",
                               "--format", "csv", "--output", "{output}"],
    "sweep-abbreviated-flag": ["sweep", *_PHYSICS, "--sam", "2", "--form", "jsonl"],
    "sweep-negative-detuning": ["sweep", *_PHYSICS, "--samples", "2", "--detuning",
                                "-0.001"],
    "degenerate-model": ["degenerate", "--model", "{model}", "--kind", "puc", "--format",
                         "jsonl"],
    "degenerate-every-flag": ["degenerate", *_PHYSICS, "--omega0", "2", "--g", "1e-4",
                              "--l", "100", "--guard-width", "0.02", "--kind", "both",
                              "--format", "csv", "--output", "{output}"],
    "compare-oracle-every-flag": ["compare-oracle", *_PHYSICS, "--g", "1e-5", "--l", "3000",
                                  "--band", "0.45", "0.55", "--samples", "2", "--kind",
                                  "both", "--no-exact", "--format", "jsonl"],
    "compare-oracle-config": ["compare-oracle", "--config", "{config}", "--no-exact"],
    "calibrate-every-flag": ["calibrate", "--theta-d-deg", "9.5", "--mu2", "1.505",
                             "--omega0", "2", "--band", "0.2", "4.8"],
    "calibrate-to-file": ["calibrate", *_PHYSICS, "--output", "{output}"],
    "help": ["-h"],
    "help-long": ["--help"],
    "help-before-verb": ["-h", "sweep"],
    "sweep-help": ["sweep", "-h"],
    "sweep-help-after-flags": ["sweep", "--samples", "3", "--help"],
    "sweep-help-abbreviated": ["sweep", "--he"],
    "degenerate-help": ["degenerate", "--help"],
    "compare-oracle-help": ["compare-oracle", "-h"],
    "calibrate-help": ["calibrate", "-h"],
    "no-verb": [],
    "unknown-verb": ["bogus"],
    "unknown-verb-with-flags": ["sweeps", "--samples", "3"],
    "flag-before-verb": ["--samples", "3", "sweep"],
    "unknown-top-flag": ["--bogus"],
    "unrecognized-flag": ["sweep", "--bogus"],
    "unrecognized-flags": ["sweep", *_PHYSICS, "--bogus", "1", "-x"],
    "unrecognized-positional": ["degenerate", *_PHYSICS, "extra"],
    "detuning-on-compare-oracle": ["compare-oracle", *_PHYSICS, "--detuning", "0.1"],
    "bad-int": ["sweep", "--samples", "x"],
    "bad-float": ["calibrate", "--theta-d-deg", "ten", "--mu2", "1.51"],
    "bad-choice": ["sweep", *_PHYSICS, "--kind", "sfg"],
    "missing-value": ["sweep", "--samples"],
    "missing-band-end": ["sweep", *_PHYSICS, "--band", "0.4"],
    "missing-required": ["calibrate", "--mu2", "1.51"],
    "bad-value-then-unknown": ["sweep", "--samples", "x", "--bogus"],
    "double-dash": ["--"],
    "double-dash-before-verb": ["--", "sweep"],
    "verb-double-dash": ["sweep", "--"],
    "verb-double-dash-positional": ["sweep", *_PHYSICS, "--", "x"],
    "verb-flags-double-dash": ["sweep", *_PHYSICS, "--samples", "2", "--"],
}
_DISPATCH_EXPECTED = Path(__file__).with_name("cli_dispatch_expected.json")


def _dispatch(argv, tmp_path, capsys, monkeypatch):
    """(exit code, stdout, stderr, output file text) of main(argv), with the
    {placeholders} of argv filled in; SystemExit's code is the exit code."""
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal
    files = {"config": tmp_path / "run.cfg", "model": tmp_path / "model.rec",
             "output": tmp_path / "out.txt"}
    files["config"].write_text(
        "[scenario]\ntheta_d_deg = 10.0\nmu2 = 1.51\ng = 1e-4\nl = 100.0\n"
        "[sweep]\nomega_lo = 0.45\nomega_hi = 0.55\nsamples = 3\nkind = both\n"
        "[output]\nformat = jsonl\n")
    files["model"].write_text(calibrate_degenerate_angle(math.radians(10.0), 1.51)
                              .to_record())
    capsys.readouterr()
    try:
        code = main([arg.format(**files) for arg in argv])
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    written = files["output"].read_text() if files["output"].exists() else None
    return [code, out, err, written]


@pytest.mark.parametrize("case", sorted(_DISPATCH_CASES))
def test_parser_dispatch_output_is_unchanged(case, tmp_path, capsys, monkeypatch):
    """Exit code, stdout, stderr and output file of each case, as the
    two-pass parse (the full parser, then the verb's) gave them."""
    expected = json.loads(_DISPATCH_EXPECTED.read_text(encoding="utf-8"))[case]
    assert _dispatch(_DISPATCH_CASES[case], tmp_path, capsys, monkeypatch) == expected
