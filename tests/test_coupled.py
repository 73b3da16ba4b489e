"""Coupled-pair shifts, quartic roots, fluxes and the rainbow split."""
import cmath
import math
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from pumpslab import (
    CrystalScenario,
    DegenerateRootError,
    DispersionModel,
    EvanescentError,
    GeometryError,
    GuardBandError,
    NoResonanceError,
    OutOfBandError,
    StrongGainError,
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
from pumpslab.coupled import (
    OK,
    STATUS_REASONS,
    EpsilonRoots,
    _quartic_roots,
    _shift_pair,
    _sorted_wavenumbers,
    csinc,
    epsilon_table,
    quartic_coefficients,
    report_table,
    resonance_report,
)
from pumpslab.kinematics import ModeKinematics, ResonanceGrid, _resonance_grid

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

    def test_overflowing_argument_is_a_typed_error(self):
        assert csinc(700j).real == pytest.approx(math.sinh(700.0) / 700.0, rel=1e-13)
        with pytest.raises(StrongGainError):
            csinc(720j)  # cmath.sin would raise a bare OverflowError


class TestStrongGain:
    """Gain too strong for a float is a StrongGainError, never an inf."""

    @pytest.mark.parametrize("g,l", [(0.1, 3e4), (9e-3, 2e5)])
    def test_channel_report_raises_typed_error(self, g, l):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ValidityWarning)
            s = scenario_for(g=g, l=l)
        with pytest.raises(StrongGainError):
            channel_report(s, 0.5)

    def test_largest_finite_gain_still_reports(self):
        report = channel_report(scenario_for(g=5e-3, l=2e5), 0.5)
        assert math.isfinite(report.gamma) and report.gamma > 1e280


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
        model = DispersionModel.constant(1.0)
        s = CrystalScenario(omega0=1.0, g=0.0, l=10.0, dispersion=model)
        kin = ModeKinematics(
            omega=3.0, partner=-2.0, p=0.0, kind="pdc", Omega1=3.0, Omega2=2.0,
            Omega10=3.0, Omega20=2.0,
        )
        with pytest.raises(DegenerateRootError) as excinfo:
            quartic_wavenumbers(s, kin)
        assignments = excinfo.value.assignments
        assert assignments is not None
        assert len(assignments) == 2
        # each assignment places every root once, and they differ
        roots = _quartic_roots(quartic_coefficients(s, kin)[0])[0]
        for assignment in assignments:
            assert sorted(assignment.tolist(), key=_hex) == sorted(roots.tolist(), key=_hex)
        assert assignments[0].tolist() != assignments[1].tolist()

    @pytest.mark.parametrize("tied", ["k3", "k4"])
    def test_equidistant_roots_give_two_permutations(self, tied):
        # two roots equidistant from the k3 anchor -Omega1 or the k4 anchor
        # K0 + Omega2: both assignments place each root once, and differ
        # by swapping the tied pair
        K0, w1, w2, d = 1.5, 1.0, 1.2, 1e-3 + 2e-3j
        a3, a4 = -w1, K0 + w2
        if tied == "k3":
            roots = [w1 + 1e-6, a3 + d, a4 + 1e-6, a3 - d]
        else:
            roots = [a4 + d, a3, a4 - d, w1 - 1e-6j]
        with pytest.raises(DegenerateRootError) as excinfo:
            _sorted_wavenumbers(K0, w1, w2, 1.0, np.array([roots]))
        first, second = (a.tolist() for a in excinfo.value.assignments)
        for assignment in (first, second):
            assert sorted(assignment, key=_hex) == sorted(roots, key=_hex)
        swapped = [i for i in range(4) if first[i] != second[i]]
        assert len(swapped) == 2 and (2 if tied == "k3" else 3) in swapped
        anchor = a3 if tied == "k3" else a4
        assert {first[i] for i in swapped} == {anchor + d, anchor - d}

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


_quartic_cases = st.tuples(
    st.floats(5.0, 15.0),  # degenerate emission angle, degrees
    st.floats(1.45, 1.55),  # mu(omega0)
    st.one_of(st.just(0.0), st.floats(1e-7, 1e-3)),  # g
    st.lists(st.floats(0.05, 1.95), min_size=1, max_size=8),
)


@given(_quartic_cases)
@example((10.0, 1.51, 1e-4, [0.5]))  # puc: four real roots, pdc: complex
@example((10.0, 1.51, 0.0, [0.3, 0.5]))  # g = 0: double roots
@settings(max_examples=60, deadline=None)
def test_quartic_roots_match_np_roots_bit_for_bit(case):
    theta_d, mu2, g, omegas = case
    s = scenario_for(theta_d, mu2, g)
    grid = _resonance_grid(s, omegas, ("pdc", "puc"))
    records = [res for point in grid.points() for res in point
               if not isinstance(res, str)]
    assume(records)
    coeffs = [quartic_coefficients(s, res)[0] for res in records]
    batched = _quartic_roots(coeffs)
    assert batched.dtype == complex and batched.shape == (len(records), 4)
    for row, roots in zip(coeffs, batched):
        expected = np.roots(row).astype(complex)
        assert roots.tobytes() == expected.tobytes()
        assert _quartic_roots([row]).tobytes() == expected.tobytes()


def test_quartic_roots_cover_all_real_rows():
    # np.roots returns a real array where all four roots are real (puc on
    # resonance); the batch gives the same values, typed complex
    s = scenario_for(g=1e-4)
    rows = [quartic_coefficients(s, solve(s, 0.5))[0]
            for solve in (pdc_resonance, puc_resonance)]
    assert np.roots(rows[1]).dtype == float
    assert np.roots(rows[0]).dtype == complex
    assert _quartic_roots(rows)[1].tobytes() == np.roots(rows[1]).astype(complex).tobytes()
    assert _quartic_roots(np.empty((0, 5))).shape == (0, 4)


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


# ---------------------------------------------------------------------------
# report_table / epsilon_table against the scalar arithmetic they replaced
# and against their one-element calls
# ---------------------------------------------------------------------------
_REASON_OF = {
    GuardBandError: "guard_band",
    GeometryError: "geometry",
    OutOfBandError: "out_of_band",
    EvanescentError: "evanescent",
    NoResonanceError: "no_resonance",
    UndefinedSplitError: "undefined_ratio",
}
_REPORT_FIELDS = ("gamma", "r10", "r20", "r1", "t1", "r2", "t2", "n_idler",
                  "n_signal", "flux_omega", "flux_partner", "ratio")
_SHIFT_FIELDS = ("eps1", "eps2", "eps3", "eps4", "xi", "detuning_sum", "product")


def _scalar_leads(z0, z1):
    """Whether Python complex z0 goes first: the smaller modulus, or for
    moduli equal to 1e-12 relative the +imaginary, then +real, one."""
    a0, a1 = abs(z0), abs(z1)
    if abs(a0 - a1) > 1e-12 * max(a0, a1, 1e-300):
        return a0 < a1
    return (z0.imag, z0.real) >= (z1.imag, z1.real)


def _scalar_pair(detuning, disc, l):
    """(eps1, eps2, xi) from Python floats, with cmath and Python complexes."""
    root = cmath.sqrt(disc)
    cand = ((detuning + root) / 2.0, (detuning - root) / 2.0)
    eps1, eps2 = cand if _scalar_leads(*cand) else cand[::-1]
    return eps1, eps2, (eps1 - eps2) * l / 2.0


def _scalar_reference(scenario, res, p):
    """The per-element Python arithmetic that the tables replaced.

    Kept as their reference: numpy's +, -, * and / round as Python's do,
    so the tables must give these bits exactly.  Returns (shift status,
    shifts, report status, report), a field dict being None where its
    status is a skip reason.
    """
    omega, partner, p0 = res.omega, res.partner, res.p
    w1, w2, w10, w20 = res.Omega1, res.Omega2, res.Omega10, res.Omega20
    if p < 0.0:
        return "geometry", None, "geometry", None
    if p >= omega or p >= partner:
        return "evanescent", None, "evanescent", None
    g, l, w0 = scenario.g, scenario.l, scenario.omega0
    strength = g * g * w0 * w0 * omega * partner
    if res.kind == "pdc":
        detuning = (p - p0) * p0 * (w1 + w2) / (w1 * w2)
        product = strength / (4.0 * w1 * w2)
        eps3 = -strength / (8.0 * (w1 + w2) * w1 * w1)
        eps4 = +strength / (8.0 * (w1 + w2) * w2 * w2)
    else:
        detuning = (p - p0) * p0 * (w2 - w1) / (w1 * w2)
        product = -strength / (4.0 * w1 * w2)
        eps3 = +strength / (8.0 * (w2 - w1) * w1 * w1)
        eps4 = -strength / (8.0 * (w2 - w1) * w2 * w2)
    eps1, eps2, xi = _scalar_pair(detuning, detuning * detuning - 4.0 * product, l)
    shifts = dict(eps1=eps1, eps2=eps2, eps3=eps3, eps4=eps4, xi=xi,
                  detuning_sum=detuning, product=product)
    z = complex(xi)
    if abs(z) < 1e-4:
        z2 = z * z
        sinc = 1.0 - z2 / 6.0 + z2 * z2 / 120.0
    else:
        sinc = cmath.sin(z) / z
    gamma = (g * g * l * l * w0 * w0 * omega * partner / (4.0 * w1 * w2)
             * (sinc * sinc).real)
    R10, R20 = (w10 - w1) / (w10 + w1), (w20 - w2) / (w20 + w2)
    r10, r20 = R10 * R10, R20 * R20  # fresnel_step's r0
    sign = 1.0 if res.kind == "pdc" else -1.0
    r1 = 2.0 * r10 / (1.0 + r10) + sign * gamma * r10 / (1.0 + r10) ** 2
    t1 = (1.0 - r10) / (1.0 + r10) + sign * gamma / (1.0 + r10) ** 2
    freq_ratio = partner / omega
    r2 = freq_ratio * gamma * r20 / ((1.0 + r10) * (1.0 + r20))
    t2 = freq_ratio * gamma / ((1.0 + r10) * (1.0 + r20))
    cos_ratio = (w20 / partner) / (w10 / omega)
    if res.kind == "pdc":
        bracket_omega = 1.0 / (1.0 + r10) + cos_ratio / (1.0 + r20)
        bracket_partner = 1.0 / (1.0 + r20) + (1.0 / cos_ratio) / (1.0 + r10)
    else:
        bracket_omega = cos_ratio / (1.0 + r20) - 1.0 / (1.0 + r10)
        bracket_partner = (1.0 / cos_ratio) / (1.0 + r10) - 1.0 / (1.0 + r20)
    if bracket_partner == 0.0:
        return "ok", shifts, "undefined_ratio", None
    report = dict(
        gamma=gamma, r10=r10, r20=r20, r1=r1, t1=t1, r2=r2, t2=t2,
        n_idler=(t1 + r1 - 1.0) / 2.0, n_signal=(t2 + r2) * w10 / (2.0 * w20),
        flux_omega=0.5 * gamma * bracket_omega,
        flux_partner=0.5 * gamma * bracket_partner,
        ratio=bracket_omega / bracket_partner,
    )
    if gamma > 0.0:
        report["forward_fraction"] = (t1 + t2) / ((t1 + t2) + (r1 + r2))
    return "ok", shifts, "ok", report


_tables = st.tuples(
    st.floats(5.0, 15.0),  # degenerate emission angle, degrees
    st.floats(1.45, 1.55),  # mu(omega0)
    st.one_of(st.just(0.0), st.floats(1e-6, 1e-3)),  # g
    st.floats(10.0, 3000.0),  # l
    st.one_of(  # working-p offset from p0, in units of omega
        st.just(0.0),
        st.floats(-0.0099, 0.0099),
        st.floats(-1.0, 1.0),
        st.floats(1.0, 2.0),  # p >= omega: evanescent
        st.floats(-2.0, -1.0),  # p < 0: geometry
    ),
    st.lists(st.one_of(st.just(0.5), st.floats(0.02, 1.98)), min_size=1, max_size=12),
)


def _one_element(call):
    """call()'s result, or the skip reason of the error it raised."""
    try:
        return call()
    except tuple(_REASON_OF) as exc:
        return _REASON_OF[type(exc)]


def _bits(value):
    # repr tells apart every two floats, -0.0 and 0.0 included
    return repr(value)


def _element(table, k, i):
    """The fields of GridTable element (k, i) as Python scalars."""
    j = table.index.item(k, i)
    return {name: col.item(j) for name, col in table.columns.items()}


@given(_tables)
@settings(max_examples=80, deadline=None)
def test_tables_match_scalar_arithmetic_bit_for_bit(case):
    # every element of report_table and epsilon_table carries the bits of
    # _scalar_reference and of the one-element channel_report and
    # epsilon_roots, and the same status
    theta_d, mu2, g, l, detuning, omegas = case
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ValidityWarning)
        s = scenario_for(theta_d, mu2, g, l)
        grid = _resonance_grid(s, omegas, ("pdc", "puc"))
        reports = report_table(s, grid, detuning)
        shifts = epsilon_table(s, grid, detuning)
        for k, kind in enumerate(grid.kinds):
            for i, omega in enumerate(grid.omega.tolist()):
                solve = pdc_resonance if kind == "pdc" else puc_resonance
                res = _one_element(lambda: solve(s, omega))
                if isinstance(res, str):
                    assert STATUS_REASONS[reports.status[k, i]] == res
                    assert STATUS_REASONS[shifts.status[k, i]] == res
                    continue
                p = res.p + detuning * omega
                shift_status, want_shifts, report_status, want_report = (
                    _scalar_reference(s, res, p))
                rep = _one_element(lambda: channel_report(s, omega, kind, p=p))
                eps = _one_element(lambda: epsilon_roots(s, res, p=p))
                assert STATUS_REASONS[reports.status[k, i]] == report_status
                assert (rep if isinstance(rep, str) else "ok") == report_status
                assert STATUS_REASONS[shifts.status[k, i]] == shift_status
                assert (eps if isinstance(eps, str) else "ok") == shift_status
                if want_report is not None:
                    row = _element(reports, k, i)
                    for name, want in want_report.items():
                        assert _bits(row[name]) == _bits(want), name
                    for name in _REPORT_FIELDS:
                        assert _bits(getattr(rep, name)) == _bits(row[name]), name
                    if rep.gamma > 0.0:
                        assert _bits(rainbow_split(rep)[0]) == _bits(
                            row["forward_fraction"])
                if want_shifts is not None:
                    row = _element(shifts, k, i)
                    for name in _SHIFT_FIELDS:
                        assert _bits(row[name]) == _bits(want_shifts[name]), name
                        assert _bits(getattr(eps, name)) == _bits(row[name]), name
                    assert EpsilonRoots(kind=kind, **row) == eps


def test_tables_square_one_plus_r10_with_pow():
    # report_table squares 1 + r10 with Python's pow, as the scalar code
    # did: numpy's multiply rounds differently on about 1e-3 of inputs, and
    # at gamma ~ 1 that last bit reaches r1 or t1.  Synthetic resonances
    # on which the two squares differ pin it.
    rng = np.random.default_rng(7)
    shape = (2, 20000)
    omega = rng.uniform(0.2, 0.8, shape[1])
    partner = np.array([1.0 - omega, 1.0 + omega])
    columns = {
        "p": rng.uniform(0.0, 0.19, shape),
        "Omega1": rng.uniform(0.8, 1.5, shape) * omega,
        "Omega2": rng.uniform(0.8, 1.5, shape) * partner,
        "Omega10": rng.uniform(0.6, 0.99, shape) * omega,
        "Omega20": rng.uniform(0.6, 0.99, shape) * partner,
    }
    step = (columns["Omega10"] - columns["Omega1"]) / (columns["Omega10"] + columns["Omega1"])
    passes = (1.0 + step * step).tolist()
    keep = [i for i in range(shape[1])
            if any(row[i] ** 2 != row[i] * row[i] for row in passes)]
    assert len(keep) >= 10
    s = scenario_for(g=5e-3, l=300.0)
    kept = (2, len(keep))
    grid = ResonanceGrid(
        scenario=s, omega=omega[keep], kinds=("pdc", "puc"), partner=partner[:, keep],
        status=np.full(kept, OK), residual=np.zeros(kept),
        iterations=np.zeros(kept, dtype=int), p_max=np.ones(kept),
        f0=np.zeros(kept), f1=np.zeros(kept),
        **{name: col[:, keep] for name, col in columns.items()},
    )
    table = report_table(s, grid)
    for k in range(2):
        for i in range(len(keep)):
            res = grid.point(k, i)
            status, want = _scalar_reference(s, res, res.p)[2:]
            assert table.status[k, i] == OK and status == "ok"
            row = _element(table, k, i)
            rep = resonance_report(s, res, None)
            for name, value in want.items():
                assert _bits(row[name]) == _bits(value), (k, i, name)
                if name != "forward_fraction":
                    assert _bits(getattr(rep, name)) == _bits(value), (k, i, name)


def _pair_inputs(n, seed):
    """Detuning sums and discriminants over 1e-300..1e3 in magnitude, with
    disc exactly 0 (and -0.0), of either sign, a detuning of 0 and -0.0,
    and discriminants below 8 DBL_MIN, where cmath.sqrt rescales."""
    rng = np.random.default_rng(seed)
    detuning = 10.0 ** rng.uniform(-300, 3, n) * rng.choice([-1.0, 1.0], n)
    detuning[rng.random(n) < 0.1] = 0.0
    detuning[rng.random(n) < 0.05] = -0.0
    product = 10.0 ** rng.uniform(-300, 3, n) * rng.choice([-1.0, 1.0], n)
    double = rng.random(n) < 0.2  # disc exactly 0 where detuning^2 is exact
    product[double] = detuning[double] ** 2 / 4.0
    with np.errstate(over="ignore", under="ignore"):
        disc = detuning * detuning - 4.0 * product
    disc[rng.random(n) < 0.03] = -0.0
    tiny = rng.random(n) < 0.05
    disc[tiny] = sys.float_info.min * rng.uniform(0.0, 8.0, tiny.sum()) * rng.choice(
        [-1.0, 1.0], tiny.sum())
    return detuning, disc


def _hex(z):
    return complex(z).real.hex(), complex(z).imag.hex()


class TestShiftPairBits:
    """_shift_pair against the scalar cmath arithmetic it replaced."""

    @pytest.mark.parametrize("l", [0.1, 100.0, 3e4])
    def test_array_pair_matches_cmath_bit_for_bit(self, l):
        detuning, disc = _pair_inputs(20000, seed=int(l * 10))
        # the draw covers every edge
        assert (disc == 0.0).sum() > 1000 and np.signbit(disc[disc == 0.0]).any()
        assert (disc < 0.0).sum() > 1000 and (disc > 0.0).sum() > 1000
        assert (detuning == 0.0).sum() > 1000 and np.signbit(detuning[detuning == 0.0]).any()
        assert (np.abs(disc) < 8.0 * sys.float_info.min).sum() > 100
        assert np.abs(detuning).max() > 1e2 and np.abs(disc).max() > 1e4
        columns = _shift_pair(detuning, disc, l)
        for i, (d, q) in enumerate(zip(detuning.tolist(), disc.tolist())):
            want = _scalar_pair(d, q, l)
            assert [_hex(col[i]) for col in columns] == [_hex(z) for z in want], (d, q)

    def test_one_element_pair_matches_cmath_bit_for_bit(self):
        detuning, disc = _pair_inputs(500, seed=11)
        for d, q in zip(detuning.tolist(), disc.tolist()):
            got = _shift_pair(d, q, 7.5)
            assert [_hex(z) for z in got] == [_hex(z) for z in _scalar_pair(d, q, 7.5)]

    def test_root_tie_break_matches_scalar(self):
        # pairs around Omega1 at random offsets, a third of them tied in
        # modulus (conjugate, negated or equal offsets), each sorted as
        # _scalar_leads orders its shifts from Omega1
        rng = np.random.default_rng(5)
        n = 3000
        w1 = rng.uniform(0.5, 2.0, n)
        offset = (rng.normal(size=n) + 1j * rng.normal(size=n)) * 10.0 ** rng.uniform(
            -12, -4, n)
        other = (rng.normal(size=n) + 1j * rng.normal(size=n)) * np.abs(offset)
        tie = rng.integers(0, 6, n)
        other = np.select([tie == 0, tie == 1, tie == 2], [offset.conj(), -offset, offset],
                          other)
        real = rng.random(n) < 0.2
        offset[real], other[real] = offset[real].real, other[real].real
        K0, w2 = 1.5, 1.0
        roots = np.column_stack((w1 + offset, -w1 + 0j, np.full(n, K0 + w2 + 0j), w1 + other))
        k = _sorted_wavenumbers(K0, w1, w2, 1.0, roots)
        for row, root_row, a in zip(k.tolist(), roots.tolist(), w1.tolist()):
            assert sorted(row[:2], key=_hex) == sorted([root_row[0], root_row[3]], key=_hex)
            assert _scalar_leads(row[0] - a, row[1] - a)
            assert row[2:] == root_row[1:3]
