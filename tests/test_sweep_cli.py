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
from pumpslab.coupled import DETUNING_WARN_FRACTION, _sorted_wavenumbers
from pumpslab.sweep import ORACLE_COLUMNS, SWEEP_COLUMNS, rows_to_text


def scenario_for(g=1e-4, l=100.0):
    model = calibrate_degenerate_angle(math.radians(10.0), 1.51)
    return CrystalScenario(omega0=1.0, g=g, l=l, dispersion=model)


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
        average = sweep_mod._averaged_intensities

        def recorded_grid(*args):
            grids.append(solve(*args))
            return grids[-1]

        def recorded_average(*args, **kwargs):
            received.append(args[:2])
            return average(*args, **kwargs)

        monkeypatch.setattr(sweep_mod, "_resonance_grid", recorded_grid)
        monkeypatch.setattr(sweep_mod, "_averaged_intensities", recorded_average)
        req = SweepRequest(scenario=scenario_for(g=1e-5, l=2800.0),
                           band=(0.4, 0.6), samples=2, kinds=("pdc",))
        rows, _ = compare_oracle(req, include_exact=True)
        exact = [row["status"] for row in rows if row["quantity"] == "exact_excess"]
        assert len(exact) == 2 and set(exact) <= {"ok", "breach"}  # averages ran
        (grid,) = grids
        records = [res for (res, _) in grid.points()]
        assert len(received) == 2
        for (scenario, kin), res in zip(received, records):
            assert scenario is req.scenario
            assert kin == res

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
    k = quartic_wavenumbers(ref, res)
    eps = epsilon_roots(ref, res)
    K0 = ref.pump_wavenumber()
    tol = sweep_mod.QUARTIC_TOL
    pair_err = float(max(abs(k[0] - res.Omega1 - eps.eps1) / abs(eps.eps1),
                         abs(k[1] - res.Omega1 - eps.eps2) / abs(eps.eps2)))
    shift4 = k[3] - K0 - res.Omega2 if kind == "pdc" else k[3] + K0 + res.Omega2
    rows += [
        _expected_oracle_row(omega, kind, "quartic_eps_product",
                             (eps.eps1 * eps.eps2).real,
                             ((k[0] - res.Omega1) * (k[1] - res.Omega1)).real, tol),
        [omega, kind, "quartic_pair_roots", "ok" if pair_err <= tol else "breach",
         0.0, 0.0, pair_err, pair_err, tol],
        _expected_oracle_row(omega, kind, "quartic_eps3", eps.eps3,
                             (k[2] + res.Omega1).real, tol),
        _expected_oracle_row(omega, kind, "quartic_eps4", eps.eps4, shift4.real, tol),
    ]
    if not include_exact:
        return rows
    if report.r10 > sweep_mod.EXACT_MAX_R10 or report.gamma > sweep_mod.EXACT_MAX_GAMMA:
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
    st.integers(2, 6),  # samples
    st.booleans(),  # include_exact
)


@given(_oracle_cases)
@example((("puc", "pdc"), 10.0, 1.45, 1e-5, 2800.0, 0.3, 0.4, 5, True))  # exact puc ok
@example((("pdc", "puc"), 10.0, 1.51, 0.0, 2800.0, 0.3, 1.5, 9, True))  # g = 0, skips
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


class TestColumnarRootSort:
    """compare_oracle sorts every row's quartic roots in one pass, with the
    equidistance refusal and the k1/k2 tie-break of a row sorted alone."""

    @pytest.fixture
    def pdc_rows(self):
        scenario = scenario_for(g=1e-5, l=2800.0)
        req = SweepRequest(scenario=scenario, band=(0.4, 0.6), samples=3, kinds=("pdc",))
        ref = replace(scenario, g=sweep_mod.QUARTIC_REFERENCE_G)
        records = [pdc_resonance(ref, float(omega)) for omega in req.grid()]
        return req, ref.pump_wavenumber(), records, [epsilon_roots(ref, res)
                                                     for res in records]

    @staticmethod
    def patch_roots(monkeypatch, rows):
        def patched(coeffs):
            assert len(coeffs) == len(rows)  # no exact rows: reference roots only
            return np.array(rows, dtype=complex)

        monkeypatch.setattr(sweep_mod, "_quartic_roots", patched)

    def test_equidistant_roots_raise(self, pdc_rows, monkeypatch):
        req, K0, records, _ = pdc_rows
        rows = []
        for res in records:
            a4, d = K0 + res.Omega2, 1e-3 + 2e-3j
            rows.append([a4 + d, -res.Omega1, a4 - d, res.Omega1])  # k4 ambiguous
        self.patch_roots(monkeypatch, rows)
        with pytest.raises(DegenerateRootError) as excinfo:
            compare_oracle(req, include_exact=False)
        res = records[0]
        with pytest.raises(DegenerateRootError) as alone:
            _sorted_wavenumbers(K0, res.Omega1, res.Omega2, 1.0, np.array([rows[0]]))
        for got, want in zip(excinfo.value.assignments, alone.value.assignments):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("swap", [False, True])
    def test_symmetric_pair_puts_positive_imaginary_first(self, pdc_rows, monkeypatch,
                                                          swap):
        # on resonance eps1 = +i|eps|, eps2 = -i|eps|; a pair placed exactly
        # at Omega1 -+ i|eps| is tied in distance, and only the tie-break
        # (+imaginary first) gives zero pair error, in either input order
        req, K0, records, shifts = pdc_rows
        rows = []
        for res, eps in zip(records, shifts):
            assert eps.eps1.real == 0.0 and eps.eps1.imag > 0.0
            up, down = res.Omega1 + eps.eps1, res.Omega1 + eps.eps2
            rows.append([K0 + res.Omega2, down if not swap else up, -res.Omega1,
                         up if not swap else down])
        self.patch_roots(monkeypatch, rows)
        out, _ = compare_oracle(req, include_exact=False)
        pair = [row for row in out if row["quantity"] == "quartic_pair_roots"]
        assert [(row["status"], row["abs_err"]) for row in pair] == [("ok", 0.0)] * 3


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
        # the largest accepted gain sums to finite values, the next is refused
        for kind, partner in (("pdc", 1.0 - 0.4), ("puc", 1.0 + 0.4)):
            limit = sys.float_info.max / (oracle_mod.SERIES_TERMS + 1) ** 2 / (partner / 0.4)
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

    def test_rejected_format_leaves_output_file(self, tmp_path, capsys):
        out_path = tmp_path / "out.csv"
        out_path.write_bytes(b"rows of an earlier run\n")
        text = SCENARIO_INI + f"[output]\nformat = xml\npath = {out_path}\n"
        code, out, err = run_config(tmp_path, capsys, "degenerate", text)
        assert (code, out) == (cli_mod.USAGE_EXIT, "")
        assert "output format must be" in err
        assert out_path.read_bytes() == b"rows of an earlier run\n"


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


def test_readme_config_example_runs(tmp_path, monkeypatch, capsys):
    text = README.read_text(encoding="utf-8")
    example = text.split("```ini\n")[1].split("```")[0]
    monkeypatch.chdir(tmp_path)
    code, out, err = run_config(tmp_path, capsys, "sweep", example)
    assert (code, out, err) == (0, "", "")
    rows = (tmp_path / "rows.csv").read_text().splitlines()
    assert rows[0] == ",".join(SWEEP_COLUMNS) and len(rows) == 1 + 7 * 2
