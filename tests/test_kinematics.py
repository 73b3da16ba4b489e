"""Wavenumbers, resonance solving and closed-form rainbow angles."""
import math
from dataclasses import fields

import numpy as np
import pytest

from pumpslab import (
    CrystalScenario,
    DispersionModel,
    EvanescentError,
    GeometryError,
    GuardBandError,
    ModeKinematics,
    NoResonanceError,
    degenerate_closed_forms,
    longitudinal,
    pdc_resonance,
    puc_resonance,
)

Q_D = math.sin(math.radians(10.0)) ** 2

# frozen outputs of the independent scan-plus-bisection oracle
P0_DEGENERATE = 0.0868240888334661
P0_04 = 0.0833456136204162
THETA_04_DEG = 12.026497670680131
THETA_06_DEG = 7.984740305200289
THETA_U_DEG = 24.986804020817154


class TestLongitudinal:
    def test_vacuum_normal_incidence(self, vacuum):
        kin = longitudinal(vacuum, 1.0, 0.0, "pdc")
        assert kin.Omega1 == kin.Omega10 == 1.0
        assert kin.Omega2 == kin.Omega20 == 1.0
        assert kin.partner == 1.0

    def test_constant_index(self, constant_index):
        kin = longitudinal(constant_index, 0.5, 0.0, "pdc")
        assert kin.Omega1 == pytest.approx(0.75, abs=1e-15)
        assert kin.Omega10 == pytest.approx(0.5, abs=1e-15)

    def test_calibrated_resonant_internal_wavenumber(self, reference):
        # at the degenerate resonance the internal wavenumber collapses to
        # (omega0/2) * mu(omega0)
        res = pdc_resonance(reference, 0.5)
        kin = longitudinal(reference, 0.5, res.p, "pdc")
        assert kin.Omega1 == pytest.approx(0.755, rel=1e-12)
        assert kin.Omega2 == pytest.approx(0.755, rel=1e-12)

    def test_internal_at_least_free_space(self, reference):
        rng = np.random.default_rng(7)
        for _ in range(50):
            omega = rng.uniform(0.3, 0.7)
            p = rng.uniform(0.0, 0.9) * min(omega, reference.omega0 - omega)
            kin = longitudinal(reference, omega, p, "pdc")
            assert kin.Omega1 >= kin.Omega10 > 0.0
            assert kin.Omega2 >= kin.Omega20 > 0.0

    def test_evanescent_rejected(self, reference):
        with pytest.raises(EvanescentError):
            longitudinal(reference, 0.5, 0.51, "pdc")

    def test_guard_band_rejected(self, reference):
        with pytest.raises(GuardBandError):
            longitudinal(reference, 0.985, 0.0, "puc")

    def test_pdc_requires_omega_below_pump(self, reference):
        with pytest.raises(GeometryError):
            longitudinal(reference, 1.2, 0.0, "pdc")


class TestPdcResonance:
    def test_degenerate_angle_by_construction(self, reference):
        res = pdc_resonance(reference, 0.5)
        assert res.theta_deg == pytest.approx(10.0, abs=1e-3)
        assert res.theta_deg == pytest.approx(10.0, abs=1e-9)
        assert res.p == pytest.approx(P0_DEGENERATE, abs=1e-13)

    def test_residual_tolerance(self, reference):
        target = reference.pump_wavenumber()
        for omega in (0.31, 0.5, 0.62):
            res = pdc_resonance(reference, omega)
            assert abs(res.Omega1 + res.Omega2 - target) < 1e-12 * reference.omega0

    def test_constant_index_is_collinear(self, constant_index):
        res = pdc_resonance(constant_index, 0.5)
        assert res.p == 0.0
        assert res.theta == 0.0

    def test_nondegenerate_regression_values(self, reference):
        res4 = pdc_resonance(reference, 0.4)
        res6 = pdc_resonance(reference, 0.6)
        assert res4.p == pytest.approx(P0_04, abs=1e-12)
        assert res4.theta_deg == pytest.approx(THETA_04_DEG, abs=1e-9)
        assert res6.theta_deg == pytest.approx(THETA_06_DEG, abs=1e-9)
        assert res4.theta_deg != res6.theta_deg
        assert 0.0 < res4.theta_deg < 90.0
        assert 0.0 < res6.theta_deg < 90.0

    def test_conjugate_pair_shares_p0(self, reference):
        target = reference.pump_wavenumber()
        for omega in (0.33, 0.41, 0.47):
            a = pdc_resonance(reference, omega)
            b = pdc_resonance(reference, reference.omega0 - omega)
            assert a.p == pytest.approx(b.p, abs=1e-12)
            assert abs(a.Omega1 + a.Omega2 - target) < 1e-12
            assert abs(b.Omega1 + b.Omega2 - target) < 1e-12

    def test_no_resonance_for_normal_dispersion(self):
        model = DispersionModel.rational(2.2, 0.5, 9.0, band=(0.1, 2.0))
        scenario = CrystalScenario(omega0=1.0, g=1e-4, l=100.0, dispersion=model)
        with pytest.raises(NoResonanceError) as excinfo:
            pdc_resonance(scenario, 0.5)
        assert excinfo.value.bracket is not None


class TestPucResonance:
    def test_degenerate_up_conversion_angle(self, reference):
        res = puc_resonance(reference, 0.5)
        assert res.theta_deg == pytest.approx(THETA_U_DEG, abs=1e-9)
        assert res.theta_deg == pytest.approx(25.0, abs=0.5)

    def test_residual(self, reference):
        res = puc_resonance(reference, 0.5)
        target = reference.pump_wavenumber()
        assert abs(res.Omega2 - res.Omega1 - target) < 1e-12

    def test_zero_dispersion_limit_is_collinear(self):
        model = DispersionModel.constant(1.51, band=(0.01, 3.0))
        scenario = CrystalScenario(omega0=1.0, g=1e-4, l=100.0, dispersion=model)
        res = puc_resonance(scenario, 0.5)
        assert res.p == pytest.approx(0.0, abs=1e-12)


class TestResonanceResiduals:
    def test_random_calibrations_meet_residual_bound(self):
        rng = np.random.default_rng(41)
        from pumpslab import CrystalScenario, calibrate_degenerate_angle

        for _ in range(40):
            model = calibrate_degenerate_angle(
                math.radians(rng.uniform(1.0, 16.0)), rng.uniform(1.2, 1.8)
            )
            scenario = CrystalScenario(omega0=1.0, g=1e-4, l=100.0,
                                       dispersion=model)
            omega = rng.uniform(0.28, 0.72)
            target = scenario.pump_wavenumber()
            res_d = pdc_resonance(scenario, omega)
            assert abs(res_d.Omega1 + res_d.Omega2 - target) < 1e-12
            res_u = puc_resonance(scenario, omega)
            assert abs(res_u.Omega2 - res_u.Omega1 - target) < 1e-12
            assert 0.0 <= res_d.p < omega
            assert 0.0 <= res_u.p < omega


@pytest.mark.parametrize("solve,kind", [(pdc_resonance, "pdc"),
                                        (puc_resonance, "puc")])
def test_resonance_record_is_longitudinal_at_p0(reference, solve, kind):
    for omega in (0.31, 0.5, 0.62):
        res = solve(reference, omega)
        kin = longitudinal(reference, omega, res.p, kind)
        for f in fields(ModeKinematics):
            assert getattr(res, f.name) == getattr(kin, f.name), f.name
        assert res.theta == kin.theta


class TestDegenerateClosedForms:
    def test_dispersionless_collapses_to_zero(self):
        q_d, q_u, q_u_quad = degenerate_closed_forms(1.5, 1.5, 1.5)
        assert q_d == 0.0
        assert q_u == pytest.approx(0.0, abs=1e-12)
        assert q_u_quad == 0.0

    def test_hand_arithmetic_values(self):
        mu1 = math.sqrt(1.51**2 + Q_D)
        mu3 = math.sqrt(1.51**2 - Q_D)
        q_d, q_u, q_u_quad = degenerate_closed_forms(mu1, 1.51, mu3)
        assert q_d == pytest.approx(Q_D, rel=1e-12)
        # 6*q_d - 25*q_d^2/(4*mu2^2) = 0.180924... - 0.002493...
        assert q_u_quad == pytest.approx(0.1809221376 - 0.0024923495, abs=1e-6)
        assert q_u_quad == pytest.approx(0.178431, abs=5e-6)
        assert abs(q_u - q_u_quad) / q_u < 0.01

    def test_quadratic_form_is_exact_under_linearized_mu3(self):
        # with mu3^2 = mu2^2 - q_d substituted, the quadratic expression
        # reproduces the exact closed form identically, so the exact value
        # can never fall below it by more than rounding noise
        for theta_deg in np.linspace(2.0, 20.0, 10):
            q_d_target = math.sin(math.radians(theta_deg)) ** 2
            for mu2 in (1.3, 1.51, 1.75):
                mu1 = math.sqrt(mu2 * mu2 + q_d_target)
                mu3 = math.sqrt(mu2 * mu2 - q_d_target)
                _, q_u, q_u_quad = degenerate_closed_forms(mu1, mu2, mu3)
                assert q_u >= q_u_quad - 1e-10 * q_u
                assert abs(q_u - q_u_quad) < 1e-10 * q_u

    def test_geometry_error_when_angle_impossible(self):
        with pytest.raises(GeometryError):
            degenerate_closed_forms(2.4, 1.1, 1.05)
        with pytest.raises(GeometryError):
            degenerate_closed_forms(1.5, 1.5, 0.9)
