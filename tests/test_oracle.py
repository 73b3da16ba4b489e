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
import reference_solve as reference
from pumpslab.coupled import _Pairs, _quartic
from pumpslab import (
    ConditioningError,
    CrystalScenario,
    DispersionModel,
    GeometryError,
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
        r0 = fresnel_step(0.5, kin_Omega)
        expected = airy_transmission(r0, 2.0 * kin_Omega * s.l)
        assert vals["t1"] == pytest.approx(expected, rel=1e-10)

    @pytest.mark.parametrize("mu,r0_expected", [(1.5, 0.04), (3.0, 0.25)])
    def test_phase_average_reproduces_incoherent_slab(self, mu, r0_expected):
        model = DispersionModel.constant(mu)
        s = CrystalScenario(omega0=1.0, g=0.0, l=1000.0, dispersion=model)
        avg = thickness_averaged_intensities(s, pdc_resonance(s, 0.5), phases=64)
        r0 = fresnel_step(0.5, 0.5 * mu)
        assert r0 == pytest.approx(r0_expected, abs=1e-12)
        r_closed, t_closed = slab_coefficients(r0)
        assert avg["t1"] == pytest.approx(t_closed, rel=5e-3)
        assert avg["r1"] == pytest.approx(r_closed, rel=5e-3)
        # with 64 phases the periodic average is essentially exact
        assert avg["t1"] == pytest.approx(t_closed, rel=1e-8)

    def test_g_zero_decouples(self, constant_index):
        vals = single_thickness(constant_index, pdc_resonance(constant_index, 0.5))
        assert vals["r2"] == 0.0
        assert vals["t2"] == 0.0
        assert vals["cond"] == 1.0


# Seeded g = 0 slabs: constant index mu 1.05-12 (pdc) and, every fourth
# draw, the calibrated model (either kind); l 1-1e5 log-uniform, omega
# 0.3-0.7.  Over seeds 0-5 (40 draws each, at phases 1 and 64) r1 + t1 - 1
# was at most 1.4e-15 by elimination and 6.7e-16 by the stacked 4x4 LU it
# replaced, and t1 was within 2.8e-15 (elimination) and 2.0e-15 (LU) of
# the Airy formula, relative
LINEAR_SEED = 0
LINEAR_DRAWS = 40
LINEAR_TOL = 1e-14


def linear_cases():
    """LINEAR_DRAWS g = 0 (scenario, record) pairs across regimes."""
    rng = np.random.default_rng(LINEAR_SEED)
    calibrated = calibrate_degenerate_angle(math.radians(10.0), 1.51)
    for i in range(LINEAR_DRAWS):
        model = DispersionModel.constant(rng.uniform(1.05, 12.0)) if i % 4 else calibrated
        solve = (pdc_resonance, puc_resonance)[rng.integers(2)] if i % 4 == 0 else pdc_resonance
        s = CrystalScenario(omega0=1.0, g=0.0, l=10.0 ** rng.uniform(0.0, 5.0), dispersion=model)
        yield s, solve(s, rng.uniform(0.3, 0.7))


@pytest.mark.parametrize("phases", [1, 64])
def test_linear_slab_across_regimes(phases, monkeypatch):
    cases = list(linear_cases())  # the resonance solves may use np.linalg

    def forbidden(*args, **kwargs):
        raise AssertionError("the g = 0 slab called np.linalg")

    linalg_impl = sys.modules[np.linalg.cond.__module__]
    for name in np.linalg.__all__:
        if not isinstance(getattr(np.linalg, name), type):  # LinAlgError stays
            for namespace in (np.linalg, linalg_impl):
                monkeypatch.setattr(namespace, name, forbidden, raising=False)
    for s, kin in cases:
        vals = thickness_averaged_intensities(s, kin, phases=phases)
        assert abs(vals["r1"] + vals["t1"] - 1.0) <= LINEAR_TOL
        r0 = fresnel_step(kin.Omega10, kin.Omega1)
        lengths = oracle_mod._thicknesses(s.l, kin.Omega1, phases).tolist()
        expected = sum(airy_transmission(r0, 2.0 * kin.Omega1 * x) for x in lengths) / phases
        assert vals["t1"] == pytest.approx(expected, rel=LINEAR_TOL, abs=0.0)
        assert (vals["r2"], vals["t2"], vals["cond"]) == (0.0, 0.0, 1.0)


class TestExactSolveCoupled:
    def test_continuity_residual_and_cond_reported(self):
        s = scenario_for()
        res = pdc_resonance(s, 0.5)
        pair = _Pairs.of_record(res)
        modes = reference.oracle_modes(s, pair, np.roots(_quartic(s, pair)[0]))
        M, rhs = reference.matrices(s, pair, [s.l], modes)
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


def kappa_1(scenario, kin):
    """The oracle's kappa_1 of each of kin's 64 phases, at any COND_LIMIT."""
    lengths = oracle_mod._thicknesses(scenario.l, kin.Omega1, 64)
    return reference.oracle_amplitudes(scenario, _Pairs.of_record(kin), lengths)[1]


def names_the_pair(kin):
    """The end of a refusal message of kin's mode pair, as a pattern."""
    return re.escape(f" (omega={kin.omega:g}, p={kin.p:g}, kind={kin.kind})") + "$"


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
        kappa1 = kappa_1(s, kin)
        worst = thickness_averaged_intensities(s, kin)["cond"]
        assert worst == kappa1.max()
        limit = worst * (1.0 - 1e-12)
        assert np.count_nonzero(kappa1 > limit) == 1  # only the worst phase
        monkeypatch.setattr(oracle_mod, "COND_LIMIT", limit)
        with pytest.raises(ConditioningError, match=rf"^boundary system condition number "
                           rf"\S+ exceeds \S+{names_the_pair(kin)}") as excinfo:
            thickness_averaged_intensities(s, kin)
        assert excinfo.value.cond == worst

    def test_residual_refusal_carries_worst_cond(self, monkeypatch):
        s, kin = resonant_case("puc")
        worst = thickness_averaged_intensities(s, kin)["cond"]
        monkeypatch.setattr(oracle_mod, "RESIDUAL_LIMIT", 0.0)
        with pytest.raises(ConditioningError, match=rf"^continuity residual \S+ above 0 "
                           rf"\(cond=\S+\){names_the_pair(kin)}") as excinfo:
            thickness_averaged_intensities(s, kin)
        assert excinfo.value.cond == worst

    def test_inaccurate_inverse_fails_the_continuity_check(self, monkeypatch):
        # a QR whose Q is off by a relative 1e-6 puts S^-1's first two
        # columns off by as much: that passes the condition screen, but the
        # amplitudes it gives miss the continuity equations by about 1e-6
        # W10, far above RESIDUAL_LIMIT
        qr = np.linalg.qr

        def scaled(a, mode="reduced"):
            Q, R = qr(a, mode=mode)
            return (1.0 + 1e-6) * Q, R

        monkeypatch.setattr(np.linalg, "qr", scaled)
        s, kin = resonant_case("pdc")
        with pytest.raises(ConditioningError, match="continuity residual") as excinfo:
            thickness_averaged_intensities(s, kin)
        assert excinfo.value.cond <= oracle_mod.COND_LIMIT
        req = SweepRequest(scenario=s, band=(0.4, 0.6), samples=2, kinds=("pdc",))
        rows, breached = compare_oracle(req)
        exact = [r["status"] for r in rows if r["quantity"] == "exact_excess"]
        assert exact == ["conditioning_error"] * 2
        assert not breached


_screen_cases = st.tuples(
    st.sampled_from(["pdc", "puc"]),
    st.floats(5.0, 15.0),  # degenerate emission angle, degrees
    st.floats(1.45, 1.55),  # mu(omega0)
    st.floats(1e-7, 1e-4),  # g
    st.floats(100.0, 5000.0),  # l
    st.floats(0.3, 0.7),  # omega
)


def screen_case(case):
    """(scenario, resonance record) of one _screen_cases example."""
    kind, theta_d, mu2, g, l, omega = case
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ValidityWarning)
        s = scenario_for(theta_d, mu2, g, l)
        return s, (pdc_resonance if kind == "pdc" else puc_resonance)(s, omega)


class TestConditionScreen:
    """A pair is refused exactly where its worst kappa_1 exceeds COND_LIMIT."""

    @given(_screen_cases)
    @settings(max_examples=20, deadline=None)
    def test_refusals_follow_kappa_1(self, case):
        s, kin = screen_case(case)
        pair = _Pairs.of_record(kin)
        stack = reference.matrices(s, pair, oracle_mod._thicknesses(s.l, kin.Omega1, 64),
                                   reference.oracle_modes(s, pair))[0]
        kappa1 = np.linalg.cond(stack, 1).max()
        kappa2 = np.linalg.cond(stack).max()
        worst = kappa_1(s, kin).max()
        assert worst == pytest.approx(kappa1, rel=1e-9)
        # the limits where a 2-norm rule could decide otherwise, and beside it
        limits = (
            kappa1 / 16.0,
            kappa1 / 8.0 * (1.0 + 1e-6),
            kappa2 * (1.0 - 1e-9),
            kappa2 * (1.0 + 1e-9),
            worst * (1.0 - 1e-9),
            worst * (1.0 + 1e-9),
            kappa1,
            8.0 * kappa1 * (1.0 - 1e-6),
            8.0 * kappa1 * (1.0 + 1e-6),
            16.0 * kappa1,
        )

        def forbidden(*args, **kwargs):
            raise AssertionError("the exact oracle built an 8x8 stack or called cond")

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(np.linalg, "cond", forbidden)
            for limit in limits:
                patch.setattr(oracle_mod, "COND_LIMIT", limit)
                try:
                    thickness_averaged_intensities(s, kin)
                except ConditioningError as exc:
                    assert "condition number" in str(exc)
                    assert exc.cond == worst
                    refused = True
                else:
                    refused = False
                assert refused == (worst > limit), limit

    def test_singular_phase_is_a_conditioning_refusal(self, monkeypatch):
        # one exactly singular phase has an exactly singular 2x2 Schur
        # block K: its kappa_1 is inf, and its record is refused
        monkeypatch.setattr(oracle_mod, "_inverses",
                            singular_phase(oracle_mod._inverses, records=slice(None)))
        s, kin = resonant_case("pdc")
        with pytest.raises(ConditioningError, match="condition number inf exceeds") as excinfo:
            thickness_averaged_intensities(s, kin)
        assert excinfo.value.cond == math.inf
        req = SweepRequest(scenario=s, band=(0.4, 0.6), samples=2, kinds=("pdc",))
        rows, breached = compare_oracle(req)
        exact = [r["status"] for r in rows if r["quantity"] == "exact_excess"]
        assert exact == ["conditioning_error"] * 2
        assert not breached

    def test_non_finite_stack_is_a_conditioning_refusal(self):
        # e^{ikl} overflows in a strongly amplified thick slab: the
        # non-finite stack's kappa_1 is inf
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            s = scenario_for(g=1e-2, l=1e6)
            with pytest.raises(ConditioningError) as excinfo:
                thickness_averaged_intensities(s, pdc_resonance(s, 0.5))
        assert excinfo.value.cond == math.inf

    def test_exact_oracle_runs_no_svd_and_no_np_roots(self, monkeypatch):
        # S^-1 and kappa_1 come from one QR per chunk and a 2x2 per
        # thickness: no 4x4 is inverted, no 8x8 system is built or solved
        # at any COND_LIMIT, and the quartic roots come from batched
        # companion eigenvalues
        def forbidden(*args, **kwargs):
            raise AssertionError("the exact oracle called an SVD, a solve, an inverse, "
                                 "the 1-norm condition number or np.roots")

        factored = []
        qr = np.linalg.qr

        def counted(a, mode="reduced"):
            factored.append(a.shape)
            return qr(a, mode=mode)

        linalg_impl = sys.modules[np.linalg.cond.__module__]
        for namespace in (np.linalg, linalg_impl):
            for name in ("svd", "solve", "inv", "cond"):
                monkeypatch.setattr(namespace, name, forbidden)
        monkeypatch.setattr(np, "roots", forbidden)
        monkeypatch.setattr(np.linalg, "qr", counted)
        req = SweepRequest(scenario=scenario_for(g=1e-5, l=2800.0), band=(0.3, 0.7),
                           samples=21, kinds=("pdc", "puc"))
        rows, _ = compare_oracle(req)
        exact = [r["status"] for r in rows if r["quantity"] == "exact_excess"]
        assert exact.count("ok") == 21  # every pdc average ran
        assert exact.count("not_applicable") == 21  # no puc average did
        assert oracle_mod.EXACT_CHUNK == 16
        assert factored == [(16, 4, 2), (5, 4, 2)]  # R01^H of each chunk's pairs
        monkeypatch.setattr(oracle_mod, "COND_LIMIT", 1.0)
        rows, _ = compare_oracle(req)
        exact = [r["status"] for r in rows if r["quantity"] == "exact_excess"]
        assert exact.count("conditioning_error") == 21


def singular_phase(solve, records):
    """_inverses with the phase factors e^{ikl} and e^{ik'l} of phase 5
    zeroed in the given records of each chunk: S's rows 2 and 3 vanish
    there, an exactly singular reduced system."""
    def singular(rows, ab, E):
        E[records, :, :, 5] = 0.0
        return solve(rows, ab, E)
    return singular


def against_eight_by_eight(s, kin, phases):
    """The oracle's amplitudes (R1, R2, T1, T2) at `phases` thicknesses of
    kin's average and those of the full 8x8 systems of its own roots and
    mode vectors, solved in floats, each (phases, 4), and the systems'
    1-norm condition numbers, once the oracle's "cond" kappa_1 has matched
    those to 1e-9 and its residuals have stayed within RESIDUAL_LIMIT."""
    pair = _Pairs.of_record(kin)
    lengths = oracle_mod._thicknesses(s.l, kin.Omega1, phases)
    M, rhs = reference.matrices(s, pair, lengths, reference.oracle_modes(s, pair))
    amplitudes, cond, residual = reference.oracle_amplitudes(s, pair, lengths)
    kappa1 = np.linalg.cond(M, 1)
    np.testing.assert_allclose(cond, kappa1, rtol=1e-9, atol=0.0)
    assert residual.max() <= oracle_mod.RESIDUAL_LIMIT
    return amplitudes, np.linalg.solve(M, rhs)[:, :4], kappa1


# Seeded draws far outside _screen_cases' index band: mu2 1.4-12, g 1e-8 -
# 3e-3 and l 30 - 3e4 (both log-uniform), omega 0.1-0.9, both kinds, theta_d
# 5-15 deg; 8 thicknesses of each record's average.  Over 1,600 draws
# (seeds 0-3, 400 each, the first 100 of each drawn here) the amplitude
# error relative to the largest amplitude was at most 8.2e-14, and 1.1e-13
# for the stacked 4x4 LU the Schur route replaced; without the column
# scales of _inverses it reached 1.6e-10 (seed 3, pdc, g 1.9e-3, l 2.2e4)
WIDE_SEEDS = (0, 1, 2, 3)
WIDE_DRAWS = 100  # per seed
WIDE_TOL = 5e-13


def wide_cases(seed):
    """WIDE_DRAWS cases (kind, theta_d, mu2, g, l, omega) for screen_case."""
    rng = np.random.default_rng(seed)
    for _ in range(WIDE_DRAWS):
        yield (("pdc", "puc")[rng.integers(2)], rng.uniform(5.0, 15.0), rng.uniform(1.4, 12.0),
               10.0 ** rng.uniform(-8.0, math.log10(3e-3)),
               10.0 ** rng.uniform(math.log10(30.0), math.log10(3e4)), rng.uniform(0.1, 0.9))


class TestReducedSolution:
    """The 4x4 mode-amplitude core gives what the full 8x8 system gives."""

    @given(_screen_cases)
    @settings(max_examples=30, deadline=None)
    def test_matches_the_eight_by_eight_solve(self, case):
        s, kin = screen_case(case)
        amplitudes, x, kappa1 = against_eight_by_eight(s, kin, 64)
        # R1, R2, T1, T2 of a unit incident amplitude: within 1e-14 (about
        # 45 ulps of 1; 1.0e-15 was the largest of 400 random cases)
        for j in range(4):
            assert np.abs(amplitudes[:, j] - x[:, j]).max() <= 1e-14, j
        assert (thickness_averaged_intensities(s, kin)["cond"]
                == pytest.approx(kappa1.max(), rel=1e-9))

    @pytest.mark.parametrize("seed", WIDE_SEEDS)
    def test_matches_the_eight_by_eight_solve_across_regimes(self, seed):
        for case in wide_cases(seed):
            amplitudes, x, _ = against_eight_by_eight(*screen_case(case), 8)
            assert np.abs(amplitudes - x).max() <= WIDE_TOL * np.abs(x).max(), case

    @staticmethod
    def chunk(n=7):
        """n pdc records across 0.3-0.7 and their mode pair columns, as
        compare_oracle gives them to _exact_averages."""
        s = scenario_for(g=1e-5, l=2800.0)
        records = [pdc_resonance(s, omega) for omega in np.linspace(0.3, 0.7, n).tolist()]
        return s, records, _Pairs(*np.array([_Pairs.of_record(kin) for kin in records]).T)

    @pytest.mark.parametrize("cause", ["singular", "ill_conditioned"])
    def test_one_refusal_leaves_the_other_records_bit_identical(self, cause, monkeypatch):
        s, records, pairs = self.chunk()
        alone = [thickness_averaged_intensities(s, kin) for kin in records]
        if cause == "singular":
            refused = 2
            monkeypatch.setattr(oracle_mod, "_inverses",
                                singular_phase(oracle_mod._inverses, records=refused))
        else:
            # a limit that only the worst record's kappa_1 exceeds
            kappa1 = [averaged["cond"] for averaged in alone]
            refused = int(np.argmax(kappa1))
            limit = (kappa1[refused] + sorted(kappa1)[-2]) / 2.0
            monkeypatch.setattr(oracle_mod, "COND_LIMIT", limit)
        out = oracle_mod._exact_averages(s, pairs)
        assert isinstance(out[refused], ConditioningError)
        assert out[refused].cond == (math.inf if cause == "singular" else kappa1[refused])
        for i, (averaged, single) in enumerate(zip(out, alone)):
            if i != refused:
                assert repr(averaged) == repr(single), i

    def test_chunk_boundaries_leave_each_pair_as_alone(self, monkeypatch):
        # 2 EXACT_CHUNK + 1 pairs: two full chunks and one of a single pair
        chunk = oracle_mod.EXACT_CHUNK
        s, records, pairs = self.chunk(2 * chunk + 1)
        alone = [thickness_averaged_intensities(s, kin) for kin in records]
        out = oracle_mod._exact_averages(s, pairs)
        assert [repr(averaged) for averaged in out] == [repr(single) for single in alone]
        # a singular system in the middle chunk refuses that pair alone
        sizes, solve = [], oracle_mod._inverses

        def singular_in_middle(rows, ab, E):
            sizes.append(len(rows))
            if len(sizes) == 2:
                E[3, :, :, 5] = 0.0
            return solve(rows, ab, E)

        monkeypatch.setattr(oracle_mod, "_inverses", singular_in_middle)
        out = oracle_mod._exact_averages(s, pairs)
        assert sizes == [chunk, chunk, 1]
        refused = chunk + 3
        assert isinstance(out[refused], ConditioningError)
        assert out[refused].cond == math.inf
        for i, (averaged, single) in enumerate(zip(out, alone)):
            if i != refused:
                assert repr(averaged) == repr(single), i


def errors_against_the_reference(scenario, kin, phases=8):
    """Per amplitude (R1, R2, T1, T2), the oracle's largest error against
    the 40-digit reference over `phases` thicknesses of kin's average,
    relative to the amplitude's largest modulus there, and the root noise
    scale eps kappa_1 Omega1 l (kappa_1 the worst over the phases)."""
    oracle, exact, cond = reference.compare(scenario, kin, phases)
    error = abs(oracle - exact).max(axis=0) / abs(exact).max(axis=0)
    return error, np.finfo(float).eps * cond.max() * kin.Omega1 * scenario.l


# Root noise bound: the oracle's float eigvals roots carry phase errors
# that grow with Omega1 l.  Over 114 random pairs (puc, and pdc below
# omega0/2; theta_d 5-15 deg, mu2 1.45-1.55, g 1e-5-1e-4, l 100-5000,
# omega 0.3-0.7, 8 phases) the largest error was 184 times the scale
NOISE_C = 1000.0
# Above omega0/2, pdc R2 and T2 were off by 2.5e-8 - 7.2e-5 over 36 random
# pairs and probes: there the conjugate mode vector b = F1, of order g,
# carries the near-double roots' eigvals error (ROADMAP item 4)
ABOVE_HALF_TOL = 1e-3


@pytest.fixture(scope="module")
def accuracy_set():
    """Eight seeded pairs, pdc and puc in turn, omega below omega0/2 for
    pairs 0-3 and above it for 4-7: (kin, errors, scale) of each."""
    rng = np.random.default_rng(15)
    out = []
    for i in range(8):
        theta_d, mu2 = rng.uniform(5.0, 15.0), rng.uniform(1.45, 1.55)
        g, l = 10.0 ** rng.uniform(-5.0, -4.0), 10.0 ** rng.uniform(2.0, math.log10(5000.0))
        omega = rng.uniform(0.3, 0.5) if i < 4 else rng.uniform(0.5, 0.7)
        s, kin = screen_case((("pdc", "puc")[i % 2], theta_d, mu2, g, l, omega))
        out.append((kin, *errors_against_the_reference(s, kin)))
    return out


def above_half_pump(kin):
    """A pdc pair above omega0/2, where _mode_vectors builds the conjugate
    field b of the near-double roots from F1 = k^2 - Omega1^2."""
    return kin.kind == "pdc" and kin.omega > kin.partner


class TestAgainstTheReference:
    """The exact oracle's amplitudes against the 40-digit boundary solve."""

    def test_amplitudes_within_the_root_noise_bound(self, accuracy_set):
        for kin, error, scale in accuracy_set:
            conjugate_tol = ABOVE_HALF_TOL if above_half_pump(kin) else NOISE_C * scale
            assert error[[0, 2]].max() <= NOISE_C * scale, kin
            assert error[[1, 3]].max() <= conjugate_tol, kin

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 4: eigvals places the near-double "
                       "roots about 1e-10 off, and above omega0/2 the conjugate mode vector "
                       "b = F1, of order g, carries that error")
    def test_conjugate_amplitudes_above_half_pump(self, accuracy_set):
        above = [(kin, error, scale) for kin, error, scale in accuracy_set
                 if above_half_pump(kin)]
        assert len(above) == 2
        for kin, error, scale in above:
            assert error[[1, 3]].max() <= NOISE_C * scale, kin

    @pytest.mark.parametrize("g", [1e-4, 1e-5])
    def test_mode_vector_tie_at_half_pump(self, g):
        # at pdc omega = omega0/2, |F1| = |F2| in _mode_vectors and a
        # last-bit tie picks the branch; the branch through F1 puts the root
        # error into R2 and T2 (measured 1.4e-5 at g 1e-5 on it, 1e-12 off
        # it).  The 40-digit roots rounded to floats, under the same rule,
        # agree to 1e-13 (measured 6e-15): the roots are at fault, not the
        # rule
        s = scenario_for(g=g, l=100.0)
        kin = pdc_resonance(s, 0.5)
        assert kin.omega == kin.partner and kin.Omega1 == kin.Omega2
        error, scale = errors_against_the_reference(s, kin, phases=4)
        assert error[[0, 2]].max() <= NOISE_C * scale
        assert error[[1, 3]].max() <= ABOVE_HALF_TOL
        pair = _Pairs.of_record(kin)
        lengths = oracle_mod._thicknesses(s.l, kin.Omega1, 4)
        rounded = reference.oracle_modes(s, pair, reference.quartic_roots(s, pair))
        exact = reference.solve(s, pair, lengths)[:, 0]
        assert abs(reference.solve(s, pair, lengths, rounded)[:, 0] - exact).max() <= 1e-13

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 4: at g 1e-7 eigvals splits the "
                       "near-double roots about sqrt(eps) off; the excess agrees to 0.15")
    @pytest.mark.parametrize("kind", ["pdc", "puc"])
    def test_excess_at_small_coupling(self, kind):
        # t1 + r1 - 1 per phase within 1e-3 relative: at g 1e-5 the same
        # pairs agree to 2.4e-6 (pdc) and 4.3e-6 (puc)
        s, kin = screen_case((kind, 10.0, 1.51, 1e-7, 2800.0, 0.4))
        oracle, exact, _ = reference.compare(s, kin, 8)
        excess = [reference.excess(x) for x in (oracle, exact)]
        assert (abs(excess[0] - excess[1]) / abs(excess[1])).max() <= 1e-3

    @pytest.mark.parametrize("kind", ["pdc", "puc"])
    def test_four_ports_conserve_photons(self, kind):
        # the reference checks itself with no closed form: with each port's
        # photon weight w (its exterior cosine), Sn = sqrt(w_i / w_j) S
        # satisfies Sn^H eta Sn = eta, eta = +1 on omega ports and -sign on
        # partner ports (Manley-Rowe); measured 1.1e-16
        s, kin = screen_case((kind, 10.0, 1.51, 1e-4, 100.0, 0.4))
        pair = _Pairs.of_record(kin)
        S = reference.solve(s, pair, [s.l, s.l + 1.0]).transpose(0, 2, 1)  # [i out, j in]
        w = np.array([kin.Omega10 / kin.omega, kin.Omega20 / kin.partner] * 2)
        eta = np.diag([1.0, -pair.sign, 1.0, -pair.sign])
        Sn = np.sqrt(w[:, None] / w) * S
        assert abs(Sn.conj().transpose(0, 2, 1) @ eta @ Sn - eta).max() <= 1e-14


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

    @pytest.mark.parametrize("omega,omega0,kind", [
        (1.5, 1.0, "pdc"),  # partner omega0 - omega < 0
        (1.0, 1.0, "pdc"),  # partner 0
        (0.5, -1.0, "pdc"),
        (0.5, -1.0, "puc"),
        (-0.5, 1.0, "puc"),  # partner 0.5 > 0
        (0.0, 1.0, "pdc"),
        (math.inf, 1.0, "puc"),
        (math.nan, 1.0, "pdc"),
        (0.5, math.inf, "pdc"),
    ])
    def test_bad_frequencies_refused(self, omega, omega0, kind):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(GeometryError, match="must be positive and finite"):
                series_sum(0.04, 0.04, 1e-5, omega, omega0, kind=kind)

    def test_divergent_inputs_rejected(self):
        with pytest.raises(SeriesDomainError):
            series_sum(1.0, 0.1, 0.0, 0.5, 1.0)
        with pytest.raises(SeriesDomainError):
            series_sum(0.1, -0.2, 0.0, 0.5, 1.0)
