"""Exact boundary-matching solve and series-summation validators."""
import math
from dataclasses import replace

import numpy as np
import pytest

import pumpslab.oracle as oracle_mod
from pumpslab import (
    ConditioningError,
    CrystalScenario,
    DispersionModel,
    SeriesDomainError,
    build_boundary_system,
    calibrate_degenerate_angle,
    channel_report,
    exact_solve,
    pdc_resonance,
    poynting_intensities,
    puc_resonance,
    series_sum,
    slab_coefficients,
    fresnel_step,
    longitudinal,
    thickness_averaged_intensities,
)


def scenario_for(theta_d_deg=10.0, mu2=1.51, g=1e-5, l=3000.0):
    model = calibrate_degenerate_angle(math.radians(theta_d_deg), mu2)
    return CrystalScenario(omega0=1.0, g=g, l=l, dispersion=model)


def airy_transmission(r0, phase):
    """Coherent slab transmission |T|^2 for one internal phase 2*Omega*l."""
    t0 = 1.0 - r0
    return t0 * t0 / (1.0 + r0 * r0 - 2.0 * r0 * math.cos(phase))


class TestExactSolveLinear:
    def test_empty_slab(self, vacuum):
        sol = exact_solve(vacuum, 1.0, 0.0, "pdc")
        assert abs(sol.T1) == pytest.approx(1.0, abs=1e-12)
        assert abs(sol.R1) < 1e-12
        assert sol.R2 == 0.0 and sol.T2 == 0.0 and sol.A4 == 0.0

    def test_coherent_solution_matches_airy_formula(self, constant_index):
        # independent closed form for the single-frequency coherent slab
        s = replace(constant_index, l=123.4)
        kin_Omega = 0.5 * 1.5
        sol = exact_solve(s, 0.5, 0.0, "pdc")
        r0 = fresnel_step(0.5, kin_Omega).r0
        expected = airy_transmission(r0, 2.0 * kin_Omega * s.l)
        assert abs(sol.T1) ** 2 == pytest.approx(expected, rel=1e-10)

    @pytest.mark.parametrize("mu,r0_expected", [(1.5, 0.04), (3.0, 0.25)])
    def test_phase_average_reproduces_incoherent_slab(self, mu, r0_expected):
        model = DispersionModel.constant(mu)
        s = CrystalScenario(omega0=1.0, g=0.0, l=1000.0, dispersion=model)
        avg = thickness_averaged_intensities(s, 0.5, 0.0, "pdc", phases=64)
        step = fresnel_step(0.5, 0.5 * mu)
        assert step.r0 == pytest.approx(r0_expected, abs=1e-12)
        r_closed, t_closed = slab_coefficients(step)
        assert avg["t1"] == pytest.approx(t_closed, rel=5e-3)
        assert avg["r1"] == pytest.approx(r_closed, rel=5e-3)
        # with 64 phases the periodic average is essentially exact
        assert avg["t1"] == pytest.approx(t_closed, rel=1e-8)

    def test_g_zero_decouples(self, constant_index):
        sol = exact_solve(constant_index, 0.5, 0.0, "pdc")
        assert sol.R2 == 0.0
        assert sol.T2 == 0.0
        assert sol.A4 == 0.0
        with pytest.raises(ValueError):
            build_boundary_system(constant_index, 0.5, 0.0, "pdc")


class TestExactSolveCoupled:
    def test_continuity_residual_and_cond_reported(self):
        s = scenario_for()
        res = pdc_resonance(s, 0.5)
        system = build_boundary_system(s, 0.5, res.p, "pdc")
        sol = exact_solve(s, 0.5, res.p, "pdc")
        assert system.cond > 0.0 and np.isfinite(system.cond)
        assert sol.cond == pytest.approx(system.cond, rel=1e-9)
        x = np.array([sol.R1, sol.R2, sol.T1, sol.T2], dtype=complex)
        assert x.shape == (4,)  # amplitudes exposed individually

    def test_flux_identity_holds_per_sample(self):
        s = scenario_for()
        res = pdc_resonance(s, 0.5)
        for dl in (0.0, 17.0, 41.0):
            varied = replace(s, l=s.l + dl)
            vals = poynting_intensities(varied, 0.5, res.p, "pdc")
            lhs = vals["t1"] + vals["r1"] - 1.0
            rhs = (0.5 / 0.5) * (vals["t2"] + vals["r2"])
            assert lhs == pytest.approx(rhs, rel=1e-3)

    def test_pdc_excess_matches_gain_prediction(self):
        s = scenario_for()
        rep = channel_report(s, 0.5, kind="pdc")
        res = pdc_resonance(s, 0.5)
        avg = thickness_averaged_intensities(s, 0.5, res.p, "pdc")
        measured = avg["t1"] + avg["r1"] - 1.0
        predicted = rep.gamma / (1.0 + rep.r10)
        assert measured == pytest.approx(predicted, rel=2e-2)

    def test_puc_deficit_matches_attenuation_prediction(self):
        s = scenario_for()
        rep = channel_report(s, 0.5, kind="puc")
        res = puc_resonance(s, 0.5)
        avg = thickness_averaged_intensities(s, 0.5, res.p, "puc")
        measured = 1.0 - avg["t1"] - avg["r1"]
        predicted = rep.gamma / (1.0 + rep.r10)
        assert measured > 0.0  # genuinely attenuated
        assert measured == pytest.approx(predicted, rel=2e-2)

    def test_backward_conjugate_wave_is_small_and_tracked(self):
        # the first iteration predicts R2 = 0; the exact solve shows the
        # residual backward conjugate intensity is the closed-form r2,
        # i.e. O(gamma * r20), far below the main outputs
        s = scenario_for()
        rep = channel_report(s, 0.5, kind="pdc")
        res = pdc_resonance(s, 0.5)
        avg = thickness_averaged_intensities(s, 0.5, res.p, "pdc")
        assert avg["r2"] < 1.5 * rep.gamma * rep.r20
        assert avg["r2"] == pytest.approx(rep.r2, rel=5e-2)

    def test_puc_energy_stays_below_input(self):
        s = scenario_for()
        res = puc_resonance(s, 0.5)
        avg = thickness_averaged_intensities(s, 0.5, res.p, "puc")
        assert avg["t1"] + avg["r1"] < 1.0

    def test_conditioning_refusal(self, monkeypatch):
        s = scenario_for()
        res = pdc_resonance(s, 0.5)
        monkeypatch.setattr(oracle_mod, "COND_LIMIT", 1.0)
        with pytest.raises(ConditioningError) as excinfo:
            exact_solve(s, 0.5, res.p, "pdc")
        assert excinfo.value.cond is not None


def per_phase_average(scenario, omega, p, kind, phases=64):
    """The thickness average as separate single-thickness solves."""
    period = 2.0 * math.pi / longitudinal(scenario, omega, p, kind).Omega1
    acc = {"r1": 0.0, "t1": 0.0, "r2": 0.0, "t2": 0.0}
    worst_cond = 0.0
    for j in range(phases):
        varied = replace(scenario, l=scenario.l + j * period / phases)
        sol = exact_solve(varied, omega, p, kind)
        vals = poynting_intensities(varied, omega, p, kind, solution=sol)
        worst_cond = max(worst_cond, sol.cond)
        for key in acc:
            acc[key] += vals[key]
    return {key: val / phases for key, val in acc.items()}, worst_cond


def resonant_case(case):
    """(scenario, omega, p, kind) for a coupled pdc/puc point or g = 0."""
    if case == "g0":
        model = DispersionModel.constant(1.5)
        s = CrystalScenario(omega0=1.0, g=0.0, l=1000.0, dispersion=model)
        return s, 0.45, 0.0, "pdc"
    s = scenario_for()
    res = (pdc_resonance if case == "pdc" else puc_resonance)(s, 0.45)
    return s, 0.45, res.p, case


class TestStackedThicknessAverage:
    @pytest.mark.parametrize("case", ["pdc", "puc", "g0"])
    def test_matches_per_phase_solves(self, case):
        s, omega, p, kind = resonant_case(case)
        stacked = thickness_averaged_intensities(s, omega, p, kind)
        looped, worst_cond = per_phase_average(s, omega, p, kind)
        for key in ("r1", "t1", "r2", "t2"):
            assert stacked[key] == pytest.approx(looped[key], rel=1e-13, abs=0.0)
        assert stacked["cond"] == worst_cond

    def test_condition_refusal_carries_worst_cond(self, monkeypatch):
        s, omega, p, kind = resonant_case("pdc")
        worst = thickness_averaged_intensities(s, omega, p, kind)["cond"]
        # only the worst phase exceeds the limit
        monkeypatch.setattr(oracle_mod, "COND_LIMIT", worst * (1.0 - 1e-12))
        with pytest.raises(ConditioningError) as excinfo:
            thickness_averaged_intensities(s, omega, p, kind)
        assert excinfo.value.cond == worst

    def test_residual_refusal_carries_worst_cond(self, monkeypatch):
        s, omega, p, kind = resonant_case("puc")
        worst = thickness_averaged_intensities(s, omega, p, kind)["cond"]
        monkeypatch.setattr(oracle_mod, "RESIDUAL_LIMIT", 0.0)
        with pytest.raises(ConditioningError, match="continuity residual") as excinfo:
            thickness_averaged_intensities(s, omega, p, kind)
        assert excinfo.value.cond == worst


class TestSeriesSum:
    def test_zero_gain_reduces_to_linear(self):
        r1, t1, r2, t2 = series_sum(0.04, 0.04, 0.0, 0.5, 1.0)
        assert r1 == pytest.approx(2 * 0.04 / 1.04, abs=1e-12)
        assert t1 == pytest.approx(0.96 / 1.04, abs=1e-12)
        assert r2 == 0.0 and t2 == 0.0

    def test_hand_value_for_partner_transmission(self):
        _, _, _, t2 = series_sum(0.04, 0.04, 1e-5, 0.5, 1.0)
        assert t2 == pytest.approx(1e-5 / (1.04 * 1.04), rel=1e-10)
        assert t2 == pytest.approx(9.2456e-6, rel=1e-4)

    def test_asymmetric_coefficients_match_closed_forms(self):
        gamma = 1e-4
        r10, r20, omega = 0.25, 0.10, 0.5
        r1, t1, r2, t2 = series_sum(r10, r20, gamma, omega, 1.0)
        assert r1 == pytest.approx(
            2 * r10 / (1 + r10) + gamma * r10 / (1 + r10) ** 2, abs=1e-12
        )
        assert t1 == pytest.approx(
            (1 - r10) / (1 + r10) + gamma / (1 + r10) ** 2, abs=1e-12
        )
        ratio = (1.0 - omega) / omega
        assert r2 == pytest.approx(
            ratio * gamma * r20 / ((1 + r10) * (1 + r20)), abs=1e-12
        )
        assert t2 == pytest.approx(
            ratio * gamma / ((1 + r10) * (1 + r20)), abs=1e-12
        )

    def test_puc_signs(self):
        r1, t1, _, t2 = series_sum(0.05, 0.04, 1e-4, 0.5, 1.0, kind="puc")
        assert 1.0 - t1 - r1 == pytest.approx(1e-4 / 1.05, rel=1e-10)
        assert t2 > 0.0

    @pytest.mark.parametrize("kind", ["pdc", "puc"])
    @pytest.mark.parametrize(
        "r10,r20,gamma", [(0.04, 0.04, 1e-5), (0.25, 0.10, 1e-3), (0.6, 0.0, 1e-4)]
    )
    def test_matches_double_loop_summation(self, r10, r20, gamma, kind):
        t10, t20 = 1.0 - r10, 1.0 - r20
        sign = 1.0 if kind == "pdc" else -1.0
        freq_ratio = (1.0 - 0.4 if kind == "pdc" else 1.0 + 0.4) / 0.4
        r1, t1, r2, t2 = r10, 0.0, 0.0, 0.0
        for n in range(1, 41):
            r1 += r10 ** (2 * n - 1) * t10 * t10 * (1.0 + sign * n * gamma)
        for n in range(41):
            t1 += t10 * t10 * r10 ** (2 * n) * (1.0 + sign * (n + 1) * gamma)
        for m in range(41):
            for n in range(41):
                base = freq_ratio * gamma * t10 * t20 * r10 ** (2 * m)
                r2 += base * r20 ** (2 * n + 1)
                t2 += base * r20 ** (2 * n)
        summed = series_sum(r10, r20, gamma, 0.4, 1.0, kind=kind)
        for got, want in zip(summed, (r1, t1, r2, t2)):
            assert got == pytest.approx(want, rel=1e-13, abs=0.0)

    def test_divergent_inputs_rejected(self):
        with pytest.raises(SeriesDomainError):
            series_sum(1.0, 0.1, 0.0, 0.5, 1.0)
        with pytest.raises(SeriesDomainError):
            series_sum(0.1, -0.2, 0.0, 0.5, 1.0)
