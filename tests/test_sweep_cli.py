"""Sweep driver, serialization stability and the command-line interface."""
import gc
import json
import math
import subprocess
import sys
from dataclasses import replace

import pytest

import pumpslab.coupled as coupled_mod
import pumpslab.sweep as sweep_mod
from pumpslab import (
    CrystalScenario,
    DispersionModel,
    EvanescentError,
    GeometryError,
    GuardBandError,
    NoResonanceError,
    OutOfBandError,
    PumpslabError,
    SweepError,
    SweepRequest,
    calibrate_degenerate_angle,
    channel_report,
    compare_oracle,
    degenerate_rows,
    pdc_resonance,
    puc_resonance,
    rainbow_split,
    run_sweep,
)
from pumpslab.cli import main
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

    def test_request_validation(self):
        with pytest.raises(ValueError):
            SweepRequest(scenario=scenario_for(), band=(0.4, 0.6), samples=1)
        with pytest.raises(ValueError):
            SweepRequest(scenario=scenario_for(), band=(0.6, 0.4), samples=3)
        with pytest.raises(ValueError):
            SweepRequest(scenario=scenario_for(), band=(0.4, 0.6), samples=3,
                         kinds=("sfg",))

    def test_one_resonance_solve_per_kind_per_omega(self, monkeypatch):
        calls = []
        for kind, name in (("pdc", "pdc_resonance"), ("puc", "puc_resonance")):
            solve = getattr(sweep_mod, name)

            def counted(scenario, omega, kind=kind, solve=solve):
                calls.append((kind, omega))
                return solve(scenario, omega)

            for module in (sweep_mod, coupled_mod):
                monkeypatch.setattr(module, name, counted)
        req = SweepRequest(scenario=scenario_for(), band=(0.05, 1.95), samples=41,
                           kinds=("pdc", "puc"), detuning=1e-3)
        rows = run_sweep(req)
        assert len(rows) == 82
        grid = [float(omega) for omega in req.grid()]
        assert sorted(calls) == sorted((kind, omega) for kind in ("pdc", "puc")
                                       for omega in grid)

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


class TestDegenerateRows:
    def test_single_row_carries_both_angles(self):
        rows = degenerate_rows(scenario_for(), kinds=("pdc",))
        assert len(rows) == 1
        row = rows[0]
        assert row["theta_d_deg"] == pytest.approx(10.0, abs=1e-3)
        assert row["theta_u_deg"] == pytest.approx(25.0, abs=0.5)

    def test_puc_to_pdc_flux_ratio(self):
        rows = degenerate_rows(scenario_for(), kinds=("pdc", "puc"))
        flux = {row["kind"]: row["flux_omega"] for row in rows}
        ratio = flux["puc"] / flux["pdc"]
        # frozen oracle evaluation of the closed forms in the thin-slab
        # limit gives 0.05518711644813; finite thickness shifts it at the
        # sinc^2 level (~1e-5 relative here)
        assert ratio == pytest.approx(0.05518711644813, rel=1e-4)


class TestCompareOracle:
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

    def test_zero_coupling_identities_not_applicable(self):
        req = SweepRequest(scenario=scenario_for(g=0.0), band=(0.45, 0.55),
                           samples=2, kinds=("pdc",))
        rows, breached = compare_oracle(req, include_exact=False)
        assert not breached
        ident = [r for r in rows if r["quantity"].startswith("flux_identity")]
        assert ident and all(r["status"] == "not_applicable" for r in ident)
        series = [r for r in rows if r["quantity"].startswith("series_")]
        assert series and all(r["status"] == "ok" for r in series)


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

    def test_console_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "pumpslab.cli", "degenerate",
             "--theta-d-deg", "10", "--mu2", "1.51"],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0
        assert proc.stdout.startswith(",".join(SWEEP_COLUMNS))
