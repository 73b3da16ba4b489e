"""Coupled-pair shifts, quartic roots, fluxes and the rainbow split."""
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from pumpslab import (
    CrystalScenario,
    DispersionModel,
    EvanescentError,
    GeometryError,
    UndefinedSplitError,
    ValidityWarning,
    calibrate_degenerate_angle,
    channel_report,
    epsilon_roots,
    pdc_resonance,
    puc_resonance,
    quartic_wavenumbers,
    rainbow_split,
)
from pumpslab.coupled import csinc
from pumpslab.kinematics import ModeKinematics

GAMMA_UNIT_COUPLING = 1.0964431384588394e-05  # (g*l*omega0)^2/(4*mu2^2) at 0.01


def scenario_for(theta_d_deg=10.0, mu2=1.51, g=1e-4, l=100.0):
    model = calibrate_degenerate_angle(math.radians(theta_d_deg), mu2)
    return CrystalScenario(omega0=1.0, g=g, l=l, dispersion=model)


class TestCsinc:
    def test_removable_singularity(self):
        assert csinc(0.0) == 1.0

    def test_matches_series_for_imaginary_argument(self):
        # sin(ix)/(ix) = sinh(x)/x = 1 + x^2/6 + x^4/120 + ...
        for x in (1e-6, 1e-5, 5e-5):
            series = 1.0 + x * x / 6.0 + x**4 / 120.0
            assert csinc(1j * x).real == pytest.approx(series, rel=1e-14)
            assert csinc(1j * x).imag == 0.0

    def test_series_branch_agrees_with_direct_evaluation(self):
        for x in (0.99e-4, 1.01e-4):  # straddle the series cutoff
            assert csinc(x).real == pytest.approx(math.sin(x) / x, rel=1e-15)

    def test_real_argument(self):
        assert csinc(2.0).real == pytest.approx(math.sin(2.0) / 2.0, rel=1e-15)


class TestEpsilonRoots:
    def test_linear_limit(self):
        s = scenario_for(g=0.0)
        res = pdc_resonance(s, 0.5)
        eps = epsilon_roots(s, res, p=res.p + 1e-3)
        assert eps.eps1 * eps.eps2 == 0.0
        assert eps.eps3 == 0.0 and eps.eps4 == 0.0
        # detuning alone fixes the split
        assert eps.xi == pytest.approx((eps.eps1 - eps.eps2) * s.l / 2.0)
        assert abs(eps.eps1 + eps.eps2 - eps.detuning_sum) < 1e-18

    def test_pdc_resonance_gain(self):
        s = scenario_for()
        res = pdc_resonance(s, 0.5)
        eps = epsilon_roots(s, res)
        assert eps.product > 0.0
        assert abs(eps.eps1 + eps.eps2) < 1e-18
        root = math.sqrt(eps.product)
        assert eps.eps1 == pytest.approx(1j * root, abs=1e-18)
        assert eps.eps2 == pytest.approx(-1j * root, abs=1e-18)
        assert eps.xi.real == 0.0  # purely imaginary
        assert eps.sinc_sq > 1.0

    def test_puc_resonance_attenuation(self):
        s = scenario_for()
        res = puc_resonance(s, 0.5)
        eps = epsilon_roots(s, res)
        assert eps.product < 0.0
        root = math.sqrt(-eps.product)
        assert eps.eps1 == pytest.approx(root, abs=1e-18)
        assert eps.eps2 == pytest.approx(-root, abs=1e-18)
        assert eps.xi.imag == 0.0  # purely real
        assert eps.sinc_sq <= 1.0

    def test_detuning_warning(self):
        s = scenario_for()
        res = pdc_resonance(s, 0.5)
        with pytest.warns(ValidityWarning):
            epsilon_roots(s, res, p=res.p + 0.02 * res.omega)

    def test_strong_coupling_warning_at_construction(self):
        model = calibrate_degenerate_angle(math.radians(10.0), 1.51)
        with pytest.warns(ValidityWarning):
            CrystalScenario(omega0=1.0, g=0.05, l=100.0, dispersion=model)


class TestQuarticWavenumbers:
    def test_uncoupled_factorization_pdc(self):
        s = scenario_for(g=0.0)
        res = pdc_resonance(s, 0.4)
        k = quartic_wavenumbers(s, res)
        K0 = s.pump_wavenumber()
        # the coincident pair is a double root: accurate only to sqrt(eps)
        np.testing.assert_allclose(k[0], res.Omega1, atol=1e-7)
        np.testing.assert_allclose(k[1], res.Omega1, atol=1e-7)
        np.testing.assert_allclose(k[2], -res.Omega1, rtol=1e-12)
        np.testing.assert_allclose(k[3], K0 + res.Omega2, rtol=1e-12)

    def test_uncoupled_factorization_puc(self):
        s = scenario_for(g=0.0)
        res = puc_resonance(s, 0.5)
        k = quartic_wavenumbers(s, res)
        K0 = s.pump_wavenumber()
        np.testing.assert_allclose(k[0], res.Omega1, atol=1e-7)
        np.testing.assert_allclose(k[3], -(K0 + res.Omega2), rtol=1e-12)

    @pytest.mark.parametrize("kind,omega", [("pdc", 0.4), ("puc", 0.5)])
    def test_first_order_convergence_of_pair_roots(self, kind, omega):
        errs = {}
        for g in (1e-3, 1e-4):
            s = scenario_for(g=g)
            res = (pdc_resonance if kind == "pdc" else puc_resonance)(s, omega)
            k = quartic_wavenumbers(s, res)
            eps = epsilon_roots(s, res)
            errs[g] = max(
                abs(k[0] - res.Omega1 - eps.eps1) / abs(eps.eps1),
                abs(k[1] - res.Omega1 - eps.eps2) / abs(eps.eps2),
            )
        # first-order shrink: a factor-10 coupling drop cuts the error ~10x
        assert errs[1e-4] < 0.3 * errs[1e-3]
        assert errs[1e-4] < 1e-3

    def test_root_sorting_ambiguity_reported(self):
        # contrive a geometry whose far anchor collides with the coupled
        # pair (Omega1 = K0 + Omega2), leaving no unambiguous assignment
        from pumpslab import DegenerateRootError

        model = DispersionModel.constant(1.0)
        s = CrystalScenario(omega0=1.0, g=0.0, l=10.0, dispersion=model)
        kin = ModeKinematics(
            omega=3.0, partner=-2.0, p=0.0, kind="pdc", Omega1=3.0, Omega2=2.0,
            Omega10=3.0, Omega20=2.0,
        )
        with pytest.raises(DegenerateRootError) as excinfo:
            quartic_wavenumbers(s, kin)
        assert excinfo.value.assignments is not None
        assert len(excinfo.value.assignments) == 2

    @pytest.mark.parametrize("kind,omega", [("pdc", 0.4), ("puc", 0.5)])
    def test_counterpropagating_shifts(self, kind, omega):
        s = scenario_for(g=1e-4)
        res = (pdc_resonance if kind == "pdc" else puc_resonance)(s, omega)
        k = quartic_wavenumbers(s, res)
        eps = epsilon_roots(s, res)
        K0 = s.pump_wavenumber()
        shift3 = (k[2] + res.Omega1).real
        if kind == "pdc":
            shift4 = (k[3] - K0 - res.Omega2).real
        else:
            shift4 = (k[3] + K0 + res.Omega2).real
        assert shift3 == pytest.approx(eps.eps3, rel=1e-3)
        assert shift4 == pytest.approx(eps.eps4, rel=1e-3)


class TestChannelReport:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="conjugate kind"):
            channel_report(scenario_for(), 0.5, kind="sfg")

    @pytest.mark.parametrize("p,error", [(0.6, EvanescentError),
                                         (-0.01, GeometryError)])
    def test_working_p_outside_range_rejected(self, p, error):
        # p must lie in [0, min(omega, partner)); 0.5 is the bound at omega0/2
        with warnings.catch_warnings():
            warnings.simplefilter("error", ValidityWarning)
            with pytest.raises(error, match=f"working p={p:g}"):
                channel_report(scenario_for(), 0.5, kind="pdc", p=p)

    def test_linear_limit_reduces_to_slab(self):
        s = scenario_for(g=0.0)
        rep = channel_report(s, 0.5, kind="pdc")
        assert rep.gamma == 0.0
        assert abs(rep.n_idler) < 1e-15  # pure float cancellation noise
        assert rep.n_signal == 0.0
        assert rep.r1 + rep.t1 == pytest.approx(1.0, abs=1e-15)
        assert rep.r2 == rep.t2 == 0.0

    def test_gain_factor_hand_value(self):
        # g*l*omega0 = 0.01 on the reference geometry; peel off sinc^2(xi)
        s = scenario_for(g=1e-4, l=100.0)
        rep = channel_report(s, 0.5, kind="pdc")
        res = pdc_resonance(s, 0.5)
        eps = epsilon_roots(s, res)
        assert rep.gamma / eps.sinc_sq == pytest.approx(
            GAMMA_UNIT_COUPLING, rel=1e-12
        )
        assert rep.gamma / eps.sinc_sq == pytest.approx(1.0965e-5, rel=1e-3)

    @pytest.mark.parametrize("kind", ["pdc", "puc"])
    def test_flux_identity_random_sweep(self, kind):
        rng = np.random.default_rng(11)
        for _ in range(60):
            s = scenario_for(
                theta_d_deg=rng.uniform(3.0, 14.0),
                mu2=rng.uniform(1.3, 1.7),
                g=10 ** rng.uniform(-3.0, -2.05),
                l=rng.uniform(20.0, 300.0),
            )
            omega = rng.uniform(0.3, 0.7)
            rep = channel_report(s, omega, kind=kind)
            assert rep.identity_residual() < 1e-10

    def test_gamma_symmetric_in_conjugate_pair(self):
        s = scenario_for()
        a = channel_report(s, 0.4, kind="pdc")
        b = channel_report(s, 0.6, kind="pdc")
        assert a.gamma == pytest.approx(b.gamma, rel=1e-12)

    def test_quadratic_convergence_to_linear(self):
        lin = channel_report(scenario_for(g=0.0), 0.5, "pdc")
        gaps = {}
        for g in (1e-4, 1e-5):
            rep = channel_report(scenario_for(g=g), 0.5, "pdc")
            gaps[g] = max(
                abs(rep.r1 - lin.r1),
                abs(rep.t1 - lin.t1),
                abs(rep.r2),
                abs(rep.t2),
            )
        assert gaps[1e-5] == pytest.approx(gaps[1e-4] / 100.0, rel=1e-3)

    def test_gain_peaks_at_resonance(self):
        s = scenario_for(g=1e-4, l=2000.0)
        res = pdc_resonance(s, 0.5)
        offsets = np.linspace(-3e-3, 3e-3, 121)
        gammas = [
            channel_report(s, 0.5, "pdc", p=res.p + float(d)).gamma
            for d in offsets
        ]
        assert int(np.argmax(gammas)) == len(offsets) // 2

    def test_pdc_ratio_equals_cosine_ratio(self):
        s = scenario_for()
        for omega in (0.35, 0.42, 0.5, 0.61):
            rep = channel_report(s, omega, kind="pdc")
            res = pdc_resonance(s, omega)
            cos_ratio = (res.Omega20 / rep.partner) / (res.Omega10 / rep.omega)
            assert rep.ratio == pytest.approx(cos_ratio, rel=1e-14)
            assert rep.flux_omega / rep.flux_partner == pytest.approx(
                cos_ratio, rel=1e-12
            )

    def test_channel_sum_matches_idler_plus_conjugate_signal(self):
        # the cosine form of the channel sum is exactly the free-space
        # wavenumber conversion applied to the conjugate solve's signal
        s = scenario_for()
        for omega in (0.38, 0.5, 0.57):
            rep = channel_report(s, omega, kind="pdc")
            conj = channel_report(s, s.omega0 - omega, kind="pdc")
            assert rep.flux_omega == pytest.approx(
                rep.n_idler + conj.n_signal, rel=1e-12
            )

    def test_puc_flux_signs(self):
        s = scenario_for()
        rep = channel_report(s, 0.5, kind="puc")
        assert rep.flux_omega > 0.0
        assert rep.flux_partner < 0.0
        assert rep.n_idler < 0.0  # input attenuated below the zeropoint

    def test_puc_sign_flipped_identity(self):
        s = scenario_for()
        rep = channel_report(s, 0.5, kind="puc")
        deficit = 1.0 - rep.t1 - rep.r1
        assert deficit > 0.0
        assert deficit == pytest.approx(rep.gamma / (1 + rep.r10), rel=1e-10)

    def test_sinc_bounds_on_resonance(self):
        s = scenario_for(g=5e-3, l=300.0)
        res_d = pdc_resonance(s, 0.5)
        res_u = puc_resonance(s, 0.5)
        assert epsilon_roots(s, res_d).sinc_sq > 1.0
        assert epsilon_roots(s, res_u).sinc_sq < 1.0


class TestRainbowSplit:
    def test_no_internal_reflection_goes_fully_forward(self, vacuum):
        s = replace(vacuum, g=1e-4)
        rep = channel_report(s, 1.0, kind="pdc")
        assert rep.r10 == 0.0
        forward, backward = rainbow_split(rep)
        assert forward == 1.0
        assert backward == 0.0

    def test_split_fractions_sum_to_one(self):
        rep = channel_report(scenario_for(), 0.5, "pdc")
        forward, backward = rainbow_split(rep)
        assert forward + backward == pytest.approx(1.0, abs=1e-15)
        assert 0.9 < forward < 1.0

    def test_undefined_without_pump(self):
        rep = channel_report(scenario_for(g=0.0), 0.5, "pdc")
        with pytest.raises(UndefinedSplitError):
            rainbow_split(rep)
