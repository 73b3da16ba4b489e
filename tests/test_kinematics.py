"""Wavenumbers, resonance solving and closed-form rainbow angles."""
import math
import re
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from pumpslab import (
    CalibrationError,
    CrystalScenario,
    DispersionModel,
    EvanescentError,
    GeometryError,
    GuardBandError,
    NoResonanceError,
    PumpslabError,
    SweepError,
    SweepRequest,
    calibrate_degenerate_angle,
    degenerate_closed_forms,
    pdc_resonance,
    puc_resonance,
    run_sweep,
)
import pumpslab.kinematics as kinematics_mod
from pumpslab.kinematics import (
    ARRAY_MIN,
    FREEZE_TOL,
    OK,
    RESIDUAL_TOL,
    SKIP_REASONS,
    _newton_roots,
    _resonance_grid,
)

Q_D = math.sin(math.radians(10.0)) ** 2

# frozen outputs of the independent scan-plus-bisection oracle
P0_DEGENERATE = 0.0868240888334661
P0_04 = 0.0833456136204162
THETA_04_DEG = 12.026497670680131
THETA_06_DEG = 7.984740305200289
THETA_U_DEG = 24.986804020817154


class TestLongitudinal:
    """Longitudinal wavenumbers of the resonance records, the only mode
    pair records the library builds, and the regime errors in their place."""

    def test_vacuum_normal_incidence(self, vacuum):
        kin = pdc_resonance(vacuum, 1.0)
        assert kin.p == 0.0
        assert kin.Omega1 == kin.Omega10 == 1.0
        assert kin.Omega2 == kin.Omega20 == 1.0
        assert kin.partner == 1.0

    def test_constant_index(self, constant_index):
        kin = pdc_resonance(constant_index, 0.5)
        assert kin.p == 0.0
        assert kin.Omega1 == pytest.approx(0.75, abs=1e-15)
        assert kin.Omega10 == pytest.approx(0.5, abs=1e-15)

    def test_calibrated_resonant_internal_wavenumber(self, reference):
        # at the degenerate resonance the internal wavenumber collapses to
        # (omega0/2) * mu(omega0)
        kin = pdc_resonance(reference, 0.5)
        assert kin.Omega1 == pytest.approx(0.755, rel=1e-12)
        assert kin.Omega2 == pytest.approx(0.755, rel=1e-12)

    def test_internal_at_least_free_space(self, reference):
        rng = np.random.default_rng(7)
        for _ in range(50):
            omega = rng.uniform(0.3, 0.7)
            for solve in (pdc_resonance, puc_resonance):
                kin = solve(reference, omega)
                assert kin.Omega1 >= kin.Omega10 > 0.0
                assert kin.Omega2 >= kin.Omega20 > 0.0

    def test_guard_band_rejected(self, reference):
        with pytest.raises(GuardBandError) as excinfo:
            puc_resonance(reference, 0.985)
        assert str(excinfo.value) == "omega=0.985 is within 0.02*omega0 of 1*omega0"

    def test_pdc_requires_omega_below_pump(self, reference):
        with pytest.raises(GeometryError, match="^down-conversion requires 0 < omega < omega0$"):
            pdc_resonance(reference, 1.2)

    @pytest.mark.parametrize("omega", [-0.1, 0.0])
    def test_puc_requires_positive_omega(self, reference, omega):
        with pytest.raises(GeometryError, match="^mode frequency must be positive$"):
            puc_resonance(reference, omega)


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
        model = DispersionModel.tabulated([0.1, 1.0, 2.0], [2.2, 2.3, 2.45])
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
    # each Omega is sqrt(omega^2 mu^2 - p0^2), in the kernel's operation
    # order; mu**2 would differ in the last ulp at 0.39 and 0.55
    mu, w0 = reference.dispersion.mu, reference.omega0
    for omega in (0.31, 0.39, 0.5, 0.55, 0.62):
        res = solve(reference, omega)
        partner = w0 - omega if kind == "pdc" else w0 + omega
        mu1, mu2, p = mu(omega), mu(partner), res.p
        assert (res.omega, res.partner, res.kind) == (omega, partner, kind)
        assert res.Omega1 == math.sqrt(omega * omega * mu1 * mu1 - p * p)
        assert res.Omega10 == math.sqrt(omega * omega - p * p)
        assert res.Omega2 == math.sqrt(partner * partner * mu2 * mu2 - p * p)
        assert res.Omega20 == math.sqrt(partner * partner - p * p)
        assert res.theta == math.asin(p / omega)


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


# ---------------------------------------------------------------------------
# the array kernel behind pdc_resonance / puc_resonance
# ---------------------------------------------------------------------------
_GRID_ARRAYS = ("partner", "status", "p", "residual", "iterations", "Omega1",
                "Omega2", "Omega10", "Omega20", "p_max", "f0", "f1")

_calibrated_grids = st.tuples(
    st.floats(1.0, 16.0),  # degenerate emission angle, degrees
    st.floats(1.2, 1.8),  # mu(omega0)
    st.floats(0.0, 5e-3),  # g
    st.floats(10.0, 5000.0),  # l
    st.lists(st.floats(0.02, 2.4), min_size=1, max_size=24),
)


def _scenario(theta_deg, mu2, g, l):
    model = calibrate_degenerate_angle(math.radians(theta_deg), mu2)
    return CrystalScenario(omega0=1.0, g=g, l=l, dispersion=model)


def _points(grid):
    """Per omega, a tuple with one ResonancePoint or skip reason per kind."""
    return [
        tuple(grid.point(k, i) if code == OK else SKIP_REASONS[code]
              for k, code in enumerate(codes))
        for i, codes in enumerate(grid.status.T.tolist())
    ]


def _scalar(kind, scenario, omega):
    solve = pdc_resonance if kind == "pdc" else puc_resonance
    try:
        return solve(scenario, omega)
    except PumpslabError as exc:
        return exc


@given(_calibrated_grids)
@settings(max_examples=60)
def test_batched_kernel_matches_scalar_calls_bit_for_bit(case):
    *params, omegas = case
    scenario = _scenario(*params)
    grid = _resonance_grid(scenario, omegas, ("pdc", "puc"))
    for i, (omega, solved) in enumerate(zip(omegas, _points(grid))):
        for k, (kind, point) in enumerate(zip(grid.kinds, solved)):
            scalar = _scalar(kind, scenario, omega)
            if grid.status[k, i] == OK:
                assert point == scalar  # every field, exactly
            else:
                with pytest.raises(PumpslabError, match=re.escape(str(scalar))) as exc:
                    grid.raise_error(k, i)
                assert exc.type is type(scalar)
                assert point == SKIP_REASONS[grid.status[k, i]]
            one = _resonance_grid(scenario, [omega], (kind,))
            for name in _GRID_ARRAYS:
                assert getattr(one, name)[0, 0] == getattr(grid, name)[k, i], name


def _residual(scenario, kind, omega, p):
    mu = scenario.dispersion.mu
    partner = scenario.omega0 - omega if kind == "pdc" else scenario.omega0 + omega
    o1 = math.sqrt(omega * omega * mu(omega) ** 2 - p * p)
    o2 = math.sqrt(partner * partner * mu(partner) ** 2 - p * p)
    return (o2 + o1 if kind == "pdc" else o2 - o1) - scenario.pump_wavenumber()


@given(_calibrated_grids)
@settings(max_examples=40)
def test_solved_p0_brackets_the_root_within_rounding(case):
    *params, omegas = case
    scenario = _scenario(*params)
    noise = 16.0 * np.finfo(float).eps * scenario.pump_wavenumber()
    for solved in _points(_resonance_grid(scenario, omegas, ("pdc", "puc"))):
        for res in solved:
            if isinstance(res, str):
                continue
            if res.p == 0.0:
                assert abs(res.residual) <= RESIDUAL_TOL * scenario.omega0
                continue
            below, above = (_residual(scenario, res.kind, res.omega, res.p * f)
                            for f in (1.0 - 1e-13, 1.0 + 1e-13))
            # a sign change across p0 * (1 -+ 1e-13), unless the residual
            # there is already at rounding level
            assert (below < 0.0) != (above < 0.0) or max(
                abs(below), abs(above)) <= noise, (res, below, above)


class _SubluminalModel(DispersionModel):
    """A tabulated index that drops below 1 at low frequency.

    No validated DispersionModel allows that, but it is the only way to
    make a wave evanescent at the bracket end of a resonance search.
    """

    def _validate(self):
        pass


def test_mixed_grid_is_finite_and_evaluates_mu_once(monkeypatch):
    line = [1.51**2 + 2.0 * Q_D * (1.0 - w) for w in (0.5, 1.0, 1.5, 2.5)]
    samples = ([0.05, 0.2, 0.5, 1.0, 1.5, 2.5], [0.8, 0.8] + line)
    with pytest.raises(ValueError, match="must be real and >= 1"):
        DispersionModel.tabulated(*samples)
    model = _SubluminalModel.tabulated(*samples)
    scenario = CrystalScenario(omega0=1.0, g=1e-4, l=100.0, dispersion=model)
    calls = []
    mu = DispersionModel.mu

    def counted(self, omega):
        calls.append(np.size(omega))
        return mu(self, omega)

    monkeypatch.setattr(DispersionModel, "mu", counted)
    omegas = [0.1, 0.5, 0.99, 1.2, 1.7, -0.3, 0.03]
    grid = _resonance_grid(scenario, omegas, ("pdc", "puc"))
    assert len(calls) == 1
    assert [SKIP_REASONS[code] for code in grid.status[0]] == [
        "evanescent", "ok", "guard_band", "geometry", "geometry", "geometry",
        "out_of_band"]
    assert [SKIP_REASONS[code] for code in grid.status[1]] == [
        "evanescent", "ok", "guard_band", "ok", "out_of_band", "geometry",
        "out_of_band"]
    for name in _GRID_ARRAYS:
        assert np.all(np.isfinite(getattr(grid, name))), name
    with pytest.raises(EvanescentError):
        pdc_resonance(scenario, 0.1)


def test_kernel_rejects_unknown_kind(reference):
    with pytest.raises(ValueError, match="conjugate kind"):
        _resonance_grid(reference, [0.5], ("pdc", "sfg"))


def test_iteration_count_is_recorded(reference, constant_index):
    # the closed-form start is within FREEZE_TOL of the root: one polish step
    assert pdc_resonance(reference, 0.5).iterations == 1
    assert puc_resonance(reference, 0.5).iterations == 1
    # collinear phase matching is decided at p = 0, without a polish
    assert pdc_resonance(constant_index, 0.5).iterations == 0


@pytest.mark.parametrize("left_at", [0.5, 0.9, 1.0])
def test_stalled_solve_is_a_typed_no_resonance(reference, monkeypatch, left_at):
    # a polish that ends away from every root, here at a share of the
    # bracket end, is a stalled solve: the residual check reports it as
    # no_resonance with finite arrays and no NaN
    def stopped(a1, a2, s, p_max, *, K0):
        return left_at * p_max, kinematics_mod.MAX_ITERATIONS

    monkeypatch.setattr(kinematics_mod, "_newton_roots", stopped)
    request = SweepRequest(scenario=reference, band=(0.3, 0.7), samples=7,
                           kinds=("pdc", "puc"))
    with pytest.raises(SweepError) as excinfo:
        run_sweep(request)
    assert excinfo.value.skip_reasons == {"no_resonance": 14}
    for omegas in (request.grid(), np.linspace(0.3, 0.7, ARRAY_MIN)):  # floats, arrays
        grid = _resonance_grid(reference, omegas, ("pdc", "puc"))
        assert (grid.status == kinematics_mod.STALLED).all()
        for name in _GRID_ARRAYS:
            assert np.all(np.isfinite(getattr(grid, name))), name
    finite = r"-?\d\.\d{3}e[-+]\d+"  # how a finite residual prints, unlike nan
    with pytest.raises(NoResonanceError, match=f"^pdc root polish stalled at residual "
                       f"{finite} for omega=0.4$") as err:
        pdc_resonance(reference, 0.4)
    assert err.value.bracket == (0.0, kinematics_mod.BRACKET_SHRINK * 0.4)


def _rounded_root(a1, a2, s, K0, p):
    """The root of sqrt(a2 - x^2) + s * sqrt(a1 - x^2) - K0 nearest p,
    by Newton's method in 50-digit arithmetic, rounded to the nearest
    double."""
    with mpmath.workdps(50):
        a1, a2, K0, x = (mpmath.mpf(v) for v in (a1, a2, K0, p))
        for _ in range(50):
            o1, o2 = mpmath.sqrt(a1 - x * x), mpmath.sqrt(a2 - x * x)
            dx = (o2 + s * o1 - K0) / (x * (1 / o2 + s / o1))
            x += dx
            if abs(dx) <= mpmath.mpf(10) ** -30 * x:
                return float(x)
    raise AssertionError(f"no 50-digit root near p={p!r}")


@given(_calibrated_grids)
@settings(max_examples=30, deadline=None)
def test_p0_is_the_correctly_rounded_root(case):
    # on arrays and on floats alike, every solved p0 is the double
    # nearest the exact root of the residual at the kernel's coefficients
    *params, omegas = case
    scenario = _scenario(*params)
    mu, K0 = scenario.dispersion.mu, scenario.pump_wavenumber()
    grids = []
    for array_min in (1, 10**9):  # every root on arrays, then on floats
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(kinematics_mod, "ARRAY_MIN", array_min)
            grids.append(_resonance_grid(scenario, omegas, ("pdc", "puc")))
    on_arrays, on_floats = grids
    for name in _GRID_ARRAYS:
        assert np.array_equal(getattr(on_arrays, name), getattr(on_floats, name)), name
    for (k, i) in zip(*np.nonzero((on_arrays.status == OK) & (on_arrays.p > 0.0))):
        omega, partner = on_arrays.omega[i], on_arrays.partner[k, i]
        a1 = omega * omega * mu(omega) * mu(omega)
        a2 = partner * partner * mu(partner) * mu(partner)
        s = 1.0 if on_arrays.kinds[k] == "pdc" else -1.0
        p0 = on_arrays.p[k, i]
        assert p0 == _rounded_root(a1, a2, s, K0, p0), (omega, on_arrays.kinds[k])


_scaled_calibrations = st.tuples(
    st.floats(2.0, 35.0),  # degenerate emission angle, degrees
    st.floats(1.2, 3.0),  # mu(omega0)
    st.floats(-150.0, 150.0),  # log10(omega0)
    st.lists(st.floats(0.02, 2.4), min_size=1, max_size=24),  # omega / omega0
)


@given(_scaled_calibrations)
@settings(max_examples=40, deadline=None)
def test_one_polish_step_from_the_closed_form_start(case):
    # the closed-form start lies within about 2 eps Omega K0 / p0^2 of the
    # root (Omega the smaller internal wavenumber), so wherever that is
    # well under FREEZE_TOL the first polish step is the last; on every
    # scale each solved p0 is the double nearest the exact root
    theta_deg, mu2, log_scale, shares = case
    omega0 = 10.0 ** log_scale
    try:
        model = calibrate_degenerate_angle(math.radians(theta_deg), mu2, omega0=omega0)
    except CalibrationError:
        reject()  # no model with mu >= 1 across the band
    scenario = CrystalScenario(omega0=omega0, g=0.0, l=1.0, dispersion=model)
    mu, K0 = model.mu, scenario.pump_wavenumber()
    grid = _resonance_grid(scenario, [x * omega0 for x in shares], ("pdc", "puc"))
    for (k, i) in zip(*np.nonzero(grid.status == OK)):
        p0, steps = grid.p[k, i], grid.iterations[k, i]
        if p0 == 0.0:
            assert steps == 0
            continue
        omega, partner = grid.omega[i], grid.partner[k, i]
        a1 = omega * omega * mu(omega) * mu(omega)
        a2 = partner * partner * mu(partner) * mu(partner)
        s = 1.0 if grid.kinds[k] == "pdc" else -1.0
        assert p0 == _rounded_root(a1, a2, s, K0, p0), (omega, grid.kinds[k])
        start_error = 2.0**-52 * min(grid.Omega1[k, i], grid.Omega2[k, i]) * K0 / p0**2
        assert steps == 1 if start_error <= FREEZE_TOL / 4.0 else steps >= 1, start_error


def _synthetic_roots(rng, n, K0):
    """(a1, a2, s, p_max) of n roots of sqrt(a2 - p^2) + s * sqrt(a1 - p^2)
    - K0 in [0, p_max], both kinds; a fifth of them near zero, with p0
    between 1e-17 * K0 and 1e-6 * K0."""
    s = np.where(rng.random(n) < 0.5, 1.0, -1.0)
    t = rng.uniform(0.02, 0.98, n)
    o1 = np.where(s > 0.0, t, 2.0 * t) * K0  # Omega1 at the root
    o2 = K0 - s * o1  # Omega2 at the root
    near_zero = rng.random(n) < 0.2
    p0 = K0 * np.where(near_zero, 10.0 ** rng.uniform(-17.0, -6.0, n),
                       rng.uniform(1e-3, 1.0, n))
    a1, a2 = o1 * o1 + p0 * p0, o2 * o2 + p0 * p0
    p_max = np.minimum(p0 * (1.0 + rng.uniform(1e-3, 3.0, n)),
                       0.999 * np.sqrt(np.minimum(a1, a2)))
    return a1, a2, s, p_max


def test_p0_is_the_correctly_rounded_root_on_synthetic_roots():
    # every bracketed root that is not decided at p = 0, both kinds, the
    # near-zero family included: arrays and floats give the same p0 and
    # step count, and p0 is the correctly rounded root
    rng = np.random.default_rng(20261019)
    compared = {1.0: 0, -1.0: 0}
    near_zero = 0
    for _ in range(6):
        K0 = 10.0 ** rng.uniform(-1.0, 1.5)  # p_max on both sides of 1
        a1, a2, s, p_max = _synthetic_roots(rng, 600, K0)
        f0 = np.sqrt(a2) + s * np.sqrt(a1) - K0
        f1 = np.sqrt(a2 - p_max * p_max) + s * np.sqrt(a1 - p_max * p_max) - K0
        solved = ((f0 < 0.0) != (f1 < 0.0)) & (np.abs(f0) > RESIDUAL_TOL * K0)
        roots = [x[solved] for x in (a1, a2, s, p_max)]
        p0, steps = _newton_roots(*roots, K0=K0)
        for row, p, n in zip(zip(*(x.tolist() for x in roots)), p0.tolist(),
                             steps.tolist()):
            assert _newton_roots(*row, K0=K0) == (p, n), row
            assert p == _rounded_root(row[0], row[1], row[2], K0, p), row
            compared[row[2]] += 1
            near_zero += p < 1e-5 * K0
    assert min(compared.values()) > 1000 and near_zero >= 5, (compared, near_zero)


def test_roots_below_the_closed_forms_resolution_start_at_p_max():
    # K0 = fl(sqrt(a2) + s sqrt(a1)) leaves a root near 1e-9 where the exact
    # residual at p = 0 has the bracketing sign.  There the closed form's q
    # often rounds to <= 0, and those roots start at p_max.  Below about
    # sqrt(eps Omega K0) no double need bracket the root, but the polish
    # still ends within the double-double residual's resolution, eps^2
    # (Omega1 + Omega2), of it, on floats and arrays alike, for both kinds
    rng = np.random.default_rng(1997)
    from_p_max = {1.0: 0, -1.0: 0}
    for _ in range(300):
        s = float(rng.choice([1.0, -1.0]))
        o1, o2 = np.sort(rng.uniform(0.05, 1.0, 2)).tolist()  # puc needs o1 < o2
        a1, a2 = o1 * o1, o2 * o2
        K0 = math.sqrt(a2) + s * math.sqrt(a1)
        with mpmath.workdps(80):
            def residual(p):
                x = mpmath.mpf(p)
                return mpmath.sqrt(a2 - x * x) + s * mpmath.sqrt(a1 - x * x) - K0

            if (residual(0.0) > 0) != (s > 0):  # f falls in p for pdc, rises for puc
                continue
            d = (a2 - a1) / K0  # the kernel's start, written out
            w2, w1 = (K0 + d) / 2.0, s * ((K0 - d) / 2.0)
            from_p_max[s] += (a1 - w1 * w1 if w1 < w2 else a2 - w2 * w2) <= 0.0
            root = (a1, a2, s, 0.999 * min(o1, o2))
            p0 = _newton_roots(*root, K0=K0)[0]
            assert 0.0 < p0 < 1e-7 and abs(residual(p0)) <= 2.0**-104 * (o1 + o2), root
            assert _newton_roots(*(np.array([x]) for x in root), K0=K0)[0] == p0, root
    assert min(from_p_max.values()) >= 20, from_p_max


def test_pump_wavenumber_is_computed_once(reference, monkeypatch):
    k0 = reference.omega0 * reference.dispersion.mu(reference.omega0)
    monkeypatch.setattr(DispersionModel, "mu", None)
    assert reference.pump_wavenumber() == k0
    monkeypatch.undo()
    other = replace(reference, omega0=1.1)
    assert other.pump_wavenumber() == 1.1 * reference.dispersion.mu(1.1)
    assert other != reference and replace(other, omega0=1.0) == reference


@given(st.floats(2.0, 8.0), st.sampled_from([1e-6, 1e-3, 1.0, 1e3, 1e6]),
       st.lists(st.floats(0.02, 1.98), min_size=1, max_size=40))
@settings(max_examples=80, deadline=None)
def test_constant_index_resonates_collinear_wherever_classified(log_mu, omega0, fractions):
    # a constant index phase-matches every pair at p0 = 0 exactly, where the
    # residual at p = 0 rounds to about eps K0: past mu ~ 1,100 that exceeds
    # RESIDUAL_TOL * omega0, and the grid must still take p0 = 0 there, not
    # report a stalled solve or a missing bracket
    model = DispersionModel.constant(10.0**log_mu)
    scenario = CrystalScenario(omega0=omega0, g=1e-4, l=100.0, dispersion=model)
    grid = _resonance_grid(scenario, [f * omega0 for f in [0.5, *fractions]], ("pdc", "puc"))
    classified = ~np.isin(grid.status, [kinematics_mod.GUARD_BAND, kinematics_mod.GEOMETRY,
                                        kinematics_mod.OUT_OF_BAND])
    assert classified.any()
    assert (grid.status[classified] == OK).all()
    assert (grid.p[classified] == 0.0).all()
