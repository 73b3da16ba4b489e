"""Exact boundary-matching solve and series-summation validators."""
import math
import re
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pumpslab.oracle as oracle_mod
from pumpslab.coupled import _quartic_roots, quartic_coefficients
from pumpslab import (
    ConditioningError,
    CrystalScenario,
    DispersionModel,
    SeriesDomainError,
    StrongGainError,
    SweepRequest,
    ValidityWarning,
    calibrate_degenerate_angle,
    channel_report,
    compare_oracle,
    pdc_resonance,
    puc_resonance,
    series_sum,
    slab_coefficients,
    fresnel_step,
    quartic_wavenumbers,
    thickness_averaged_intensities,
)


def scenario_for(theta_d_deg=10.0, mu2=1.51, g=1e-5, l=3000.0):
    model = calibrate_degenerate_angle(math.radians(theta_d_deg), mu2)
    return CrystalScenario(omega0=1.0, g=g, l=l, dispersion=model)


def airy_transmission(r0, phase):
    """Coherent slab transmission |T|^2 for one internal phase 2*Omega*l."""
    t0 = 1.0 - r0
    return t0 * t0 / (1.0 + r0 * r0 - 2.0 * r0 * math.cos(phase))


def single_thickness(scenario, kin):
    """Intensities of the exact solve at the thickness scenario.l alone."""
    return thickness_averaged_intensities(scenario, kin, phases=1)


class TestExactSolveLinear:
    def test_empty_slab(self, vacuum):
        vals = single_thickness(vacuum, pdc_resonance(vacuum, 1.0))
        assert vals["t1"] == pytest.approx(1.0, abs=1e-12)
        assert vals["r1"] < 1e-24
        assert vals["r2"] == 0.0 and vals["t2"] == 0.0

    def test_coherent_solution_matches_airy_formula(self, constant_index):
        # independent closed form for the single-frequency coherent slab
        s = replace(constant_index, l=123.4)
        kin_Omega = 0.5 * 1.5
        vals = single_thickness(s, pdc_resonance(s, 0.5))
        r0 = fresnel_step(0.5, kin_Omega).r0
        expected = airy_transmission(r0, 2.0 * kin_Omega * s.l)
        assert vals["t1"] == pytest.approx(expected, rel=1e-10)

    @pytest.mark.parametrize("mu,r0_expected", [(1.5, 0.04), (3.0, 0.25)])
    def test_phase_average_reproduces_incoherent_slab(self, mu, r0_expected):
        model = DispersionModel.constant(mu)
        s = CrystalScenario(omega0=1.0, g=0.0, l=1000.0, dispersion=model)
        avg = thickness_averaged_intensities(s, pdc_resonance(s, 0.5), phases=64)
        step = fresnel_step(0.5, 0.5 * mu)
        assert step.r0 == pytest.approx(r0_expected, abs=1e-12)
        r_closed, t_closed = slab_coefficients(step.r0)
        assert avg["t1"] == pytest.approx(t_closed, rel=5e-3)
        assert avg["r1"] == pytest.approx(r_closed, rel=5e-3)
        # with 64 phases the periodic average is essentially exact
        assert avg["t1"] == pytest.approx(t_closed, rel=1e-8)

    def test_g_zero_decouples(self, constant_index):
        vals = single_thickness(constant_index, pdc_resonance(constant_index, 0.5))
        assert vals["r2"] == 0.0
        assert vals["t2"] == 0.0
        assert vals["cond"] == 1.0


class TestExactSolveCoupled:
    def test_continuity_residual_and_cond_reported(self):
        s = scenario_for()
        res = pdc_resonance(s, 0.5)
        coeffs, *quartic = quartic_coefficients(s, res)
        M, rhs = oracle_mod._boundary_stack(s, res, np.array([s.l]), np.roots(coeffs), quartic)
        x = np.linalg.solve(M[0], rhs)
        assert np.abs(M[0] @ x - rhs).max() < 1e-10
        vals = single_thickness(s, res)
        assert vals["cond"] > 0.0 and np.isfinite(vals["cond"])
        # the reported cond is the 1-norm condition number kappa_1
        assert vals["cond"] == pytest.approx(np.linalg.cond(M[0], 1), rel=1e-9)
        assert vals["t1"] == pytest.approx(abs(x[2]) ** 2, rel=1e-12)

    def test_flux_identity_holds_per_sample(self):
        s = scenario_for()
        res = pdc_resonance(s, 0.5)
        for dl in (0.0, 17.0, 41.0):
            varied = replace(s, l=s.l + dl)
            vals = single_thickness(varied, res)
            lhs = vals["t1"] + vals["r1"] - 1.0
            rhs = (0.5 / 0.5) * (vals["t2"] + vals["r2"])
            assert lhs == pytest.approx(rhs, rel=1e-3)

    def test_pdc_excess_matches_gain_prediction(self):
        s = scenario_for()
        rep = channel_report(s, 0.5, kind="pdc")
        res = pdc_resonance(s, 0.5)
        avg = thickness_averaged_intensities(s, res)
        measured = avg["t1"] + avg["r1"] - 1.0
        predicted = rep.gamma / (1.0 + rep.r10)
        assert measured == pytest.approx(predicted, rel=2e-2)

    def test_puc_deficit_matches_attenuation_prediction(self):
        s = scenario_for()
        rep = channel_report(s, 0.5, kind="puc")
        res = puc_resonance(s, 0.5)
        avg = thickness_averaged_intensities(s, res)
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
        avg = thickness_averaged_intensities(s, res)
        assert avg["r2"] < 1.5 * rep.gamma * rep.r20
        assert avg["r2"] == pytest.approx(rep.r2, rel=5e-2)

    def test_puc_energy_stays_below_input(self):
        s = scenario_for()
        res = puc_resonance(s, 0.5)
        avg = thickness_averaged_intensities(s, res)
        assert avg["t1"] + avg["r1"] < 1.0

    def test_conditioning_refusal(self, monkeypatch):
        s = scenario_for()
        res = pdc_resonance(s, 0.5)
        monkeypatch.setattr(oracle_mod, "COND_LIMIT", 1.0)
        with pytest.raises(ConditioningError) as excinfo:
            single_thickness(s, res)
        assert excinfo.value.cond is not None


def per_phase_average(scenario, kin, phases=64):
    """The thickness average as separate single-thickness solves."""
    period = 2.0 * math.pi / kin.Omega1
    acc = {"r1": 0.0, "t1": 0.0, "r2": 0.0, "t2": 0.0}
    worst_cond = 0.0
    for j in range(phases):
        varied = replace(scenario, l=scenario.l + j * period / phases)
        vals = single_thickness(varied, kin)
        worst_cond = max(worst_cond, vals["cond"])
        for key in acc:
            acc[key] += vals[key]
    return {key: val / phases for key, val in acc.items()}, worst_cond


def boundary_stack(scenario, kin):
    """The (64, 8, 8) stack that thickness_averaged_intensities solves."""
    stacks = []
    build = oracle_mod._boundary_stack

    def recorded(*args):
        stacks.append(build(*args)[0])
        return build(*args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(oracle_mod, "_boundary_stack", recorded)
        thickness_averaged_intensities(scenario, kin)
    (stack,) = stacks
    return stack


def resonant_case(case):
    """(scenario, resonance record) for a coupled pdc/puc point or g = 0."""
    if case == "g0":
        model = DispersionModel.constant(1.5)
        s = CrystalScenario(omega0=1.0, g=0.0, l=1000.0, dispersion=model)
        return s, pdc_resonance(s, 0.45)
    s = scenario_for()
    return s, (pdc_resonance if case == "pdc" else puc_resonance)(s, 0.45)


class TestStackedThicknessAverage:
    @pytest.mark.parametrize("case", ["pdc", "puc", "g0"])
    def test_matches_per_phase_solves(self, case):
        s, kin = resonant_case(case)
        stacked = thickness_averaged_intensities(s, kin)
        looped, worst_cond = per_phase_average(s, kin)
        for key in ("r1", "t1", "r2", "t2"):
            assert stacked[key] == pytest.approx(looped[key], rel=1e-13, abs=0.0)
        assert stacked["cond"] == worst_cond

    def test_condition_refusal_carries_worst_cond(self, monkeypatch):
        s, kin = resonant_case("pdc")
        stack = boundary_stack(s, kin)
        kappa2 = np.linalg.cond(stack)
        worst = kappa2.max()
        limit = worst * (1.0 - 1e-12)
        assert np.count_nonzero(kappa2 > limit) == 1  # only the worst phase
        monkeypatch.setattr(oracle_mod, "COND_LIMIT", limit)
        with pytest.raises(ConditioningError) as excinfo:
            thickness_averaged_intensities(s, kin)
        assert excinfo.value.cond == worst

    def test_residual_refusal_carries_worst_cond(self, monkeypatch):
        s, kin = resonant_case("puc")
        worst = thickness_averaged_intensities(s, kin)["cond"]
        monkeypatch.setattr(oracle_mod, "RESIDUAL_LIMIT", 0.0)
        with pytest.raises(ConditioningError, match="continuity residual") as excinfo:
            thickness_averaged_intensities(s, kin)
        assert excinfo.value.cond == worst


_screen_cases = st.tuples(
    st.sampled_from(["pdc", "puc"]),
    st.floats(5.0, 15.0),  # degenerate emission angle, degrees
    st.floats(1.45, 1.55),  # mu(omega0)
    st.floats(1e-7, 1e-4),  # g
    st.floats(100.0, 5000.0),  # l
    st.floats(0.3, 0.7),  # omega
)


class TestConditionScreen:
    """The kappa_1 screen refuses exactly what the 2-norm rule refuses."""

    @given(_screen_cases)
    @settings(max_examples=20, deadline=None)
    def test_refusals_match_the_two_norm_rule(self, case):
        kind, theta_d, mu2, g, l, omega = case
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ValidityWarning)
            s = scenario_for(theta_d, mu2, g, l)
            kin = (pdc_resonance if kind == "pdc" else puc_resonance)(s, omega)
        stack = boundary_stack(s, kin)
        kappa1 = np.linalg.cond(stack, 1).max()
        kappa2 = np.linalg.cond(stack).max()
        assert kappa1 / 8.0 <= kappa2 <= 8.0 * kappa1
        limits = (
            kappa1 / 16.0,  # below the band: refused
            kappa1 / 8.0 * (1.0 + 1e-6),  # inside [kappa1 / 8, 8 kappa1]
            kappa2 * (1.0 - 1e-9),
            kappa2 * (1.0 + 1e-9),
            kappa1,
            8.0 * kappa1 * (1.0 - 1e-6),
            8.0 * kappa1 * (1.0 + 1e-6),  # above the band: screened, no SVD
            16.0 * kappa1,
        )
        two_norm = np.linalg.cond
        svds = []

        def counted(*args, **kwargs):
            svds.append(args)
            return two_norm(*args, **kwargs)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(np.linalg, "cond", counted)
            for limit in limits:
                patch.setattr(oracle_mod, "COND_LIMIT", limit)
                svds.clear()
                try:
                    thickness_averaged_intensities(s, kin)
                except ConditioningError as exc:
                    assert "condition number" in str(exc)
                    refused = True
                else:
                    refused = False
                assert refused == (kappa2 > limit), limit
                # the SVD runs only where the kappa_1 screen cannot decide
                assert len(svds) == (kappa1 > limit / 8.0), limit

    def test_singular_phase_is_a_conditioning_refusal(self, monkeypatch):
        # one exactly singular phase makes the batched inverse raise for the
        # whole stack; the 2-norm rule then refuses it, as it always did
        build = oracle_mod._boundary_stack
        stacks = []

        def singular(*args):
            M, rhs = build(*args)
            M[5, 3] = 0.0
            stacks.append(M)
            return M, rhs

        monkeypatch.setattr(oracle_mod, "_boundary_stack", singular)
        s, kin = resonant_case("pdc")
        with pytest.raises(ConditioningError) as excinfo:
            thickness_averaged_intensities(s, kin)
        assert excinfo.value.cond > oracle_mod.COND_LIMIT
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.inv(stacks[0])
        req = SweepRequest(scenario=s, band=(0.4, 0.6), samples=2, kinds=("pdc",))
        rows, breached = compare_oracle(req)
        exact = [r["status"] for r in rows if r["quantity"] == "exact_excess"]
        assert exact == ["conditioning_error"] * 2
        assert not breached

    def test_non_finite_stack_is_a_conditioning_refusal(self):
        # e^{ikl} overflows in a strongly amplified thick slab, and the SVD
        # of the non-finite stack fails instead of returning a number
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            s = scenario_for(g=1e-2, l=1e6)
            with pytest.raises(ConditioningError) as excinfo:
                thickness_averaged_intensities(s, pdc_resonance(s, 0.5))
        assert excinfo.value.cond == math.inf

    def test_exact_oracle_runs_no_svd_and_no_np_roots(self, monkeypatch):
        # the screen accepts these stacks from the inverse that their one
        # LU factorization gives, and the quartic roots come from batched
        # companion eigenvalues
        def forbidden(*args, **kwargs):
            raise AssertionError("the exact oracle called an SVD, inv or np.roots")

        solves = []
        solve = np.linalg.solve

        def counted(*args, **kwargs):
            solves.append(args[0].shape)
            return solve(*args, **kwargs)

        linalg_impl = sys.modules[np.linalg.cond.__module__]
        for namespace, name in ((np.linalg, "svd"), (linalg_impl, "svd"),
                                (np.linalg, "inv"), (linalg_impl, "inv"),
                                (np, "roots")):
            monkeypatch.setattr(namespace, name, forbidden)
        monkeypatch.setattr(np.linalg, "solve", counted)
        req = SweepRequest(scenario=scenario_for(g=1e-5, l=2800.0), band=(0.3, 0.7),
                           samples=5, kinds=("pdc", "puc"))
        rows, _ = compare_oracle(req)
        exact = [r["status"] for r in rows if r["quantity"] == "exact_excess"]
        assert exact.count("ok") == 5  # every pdc average ran
        assert exact.count("not_applicable") == 5  # no puc average did
        assert solves == [(oracle_mod.THICKNESS_PHASES, 8, 8)] * 5


def boundary_system(scenario, kin):
    """The (64, 8, 8) stack of kin's thickness average and its rhs (8,)."""
    period = 2.0 * math.pi / kin.Omega1
    lengths = scenario.l + np.arange(64) * period / 64
    coeffs, *quartic = quartic_coefficients(scenario, kin)
    return oracle_mod._boundary_stack(scenario, kin, lengths, _quartic_roots(coeffs)[0], quartic)


def assert_one_lu_identity(M, rhs):
    """solve(M, [rhs | I]) is bit for bit solve(M, rhs) beside inv(M)."""
    both = np.linalg.solve(M, np.hstack((rhs[:, None], np.eye(8))))
    assert np.array_equal(both[..., :1], np.linalg.solve(M, rhs[:, None]))
    assert np.array_equal(both[..., 1:], np.linalg.inv(M))


class TestOneFactorization:
    """The exact oracle takes amplitudes and M^-1 from one LU per stack; a
    LAPACK build that solved the columns of [rhs | I] differently from
    separate solve and inv calls would move the oracle's digits."""

    def test_random_complex_stacks(self):
        rng = np.random.default_rng(1997)
        for _ in range(50):
            M = rng.standard_normal((64, 8, 8)) + 1j * rng.standard_normal((64, 8, 8))
            M *= 10.0 ** rng.uniform(-3.0, 3.0, (64, 8, 1))
            assert_one_lu_identity(M, rng.standard_normal(8) + 1j * rng.standard_normal(8))

    @given(_screen_cases)
    @settings(max_examples=30, deadline=None)
    def test_boundary_stacks(self, case):
        kind, theta_d, mu2, g, l, omega = case
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ValidityWarning)
            s = scenario_for(theta_d, mu2, g, l)
            kin = (pdc_resonance if kind == "pdc" else puc_resonance)(s, omega)
        assert_one_lu_identity(*boundary_system(s, kin))


class TestQuarticFloatRange:
    """At omega0 = 1e80 the quartic coefficient A K0^2 overflows: a
    StrongGainError naming omega, not numpy's LinAlgError from the
    companion eigenvalues."""

    @staticmethod
    def scenario(g):
        model = calibrate_degenerate_angle(math.radians(10.0), 1.51, omega0=1e80)
        return CrystalScenario(omega0=1e80, g=g, l=400.0, dispersion=model)

    @pytest.mark.parametrize("g", [0.0, 1e-5])
    @pytest.mark.parametrize("call", ["compare_oracle", "quartic_wavenumbers",
                                      "thickness_averaged_intensities"])
    def test_refused_as_strong_gain(self, call, g):
        s = self.scenario(g)
        res = pdc_resonance(s, 0.45e80)
        calls = {
            "compare_oracle": lambda: compare_oracle(SweepRequest(s, (0.3e80, 0.7e80), 3)),
            "quartic_wavenumbers": lambda: quartic_wavenumbers(s, res),
            "thickness_averaged_intensities": lambda: thickness_averaged_intensities(s, res),
        }
        if call == "thickness_averaged_intensities" and g == 0.0:
            # the linear slab needs no quartic roots, so none are built
            out = calls[call]()
            assert (out["r2"], out["t2"], out["cond"]) == (0.0, 0.0, 1.0)
            assert out["r1"] + out["t1"] == pytest.approx(1.0)
            return
        # with g > 0 the channel reports refuse the table first
        message = ("sinc" if call == "compare_oracle" and g > 0.0 else
                   "quartic coefficients overflow at omega=" + (
                       "3e+79" if call == "compare_oracle" else "4.5e+79"))
        with pytest.raises(StrongGainError, match=f"^{re.escape(message)}"):
            calls[call]()


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
