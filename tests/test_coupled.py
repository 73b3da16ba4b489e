"""Coupled-pair shifts, quartic roots, fluxes and the rainbow split."""
import cmath
import math
import re
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from mpmath import mp

import pumpslab.sweep as sweep_mod
import reference_solve
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
    SweepRequest,
    UndefinedSplitError,
    ValidityWarning,
    calibrate_degenerate_angle,
    channel_report,
    epsilon_roots,
    pdc_resonance,
    puc_resonance,
    quartic_wavenumbers,
    rainbow_split,
    run_sweep,
    series_sum,
    thickness_averaged_intensities,
)
from pumpslab.coupled import (
    OK,
    STATUS_REASONS,
    ChannelReport,
    EpsilonRoots,
    _anchored_roots,
    _one_pair,
    _Pairs,
    _quartic,
    _quartic_roots,
    _reports,
    _shift_pair,
    _shifts,
    _sinc_sq,
    _tabulate,
    csinc,
)
from pumpslab.kinematics import (KINDS, SKIP_REASONS, ResonanceGrid, ResonancePoint,
                                 _resonance_grid, kind_sign)
from pumpslab.sweep import SweepRequest, _outcomes, run_sweep

GAMMA_UNIT_COUPLING = 1.0964431384588394e-05  # (g*l*omega0)^2/(4*mu2^2) at 0.01


def _points(grid):
    """Per omega, a tuple with one ResonancePoint or skip reason per kind."""
    return [
        tuple(grid.point(k, i) if code == OK else SKIP_REASONS[code]
              for k, code in enumerate(codes))
        for i, codes in enumerate(grid.status.T.tolist())
    ]


def scenario_for(theta_d_deg=10.0, mu2=1.51, g=1e-4, l=100.0):
    model = calibrate_degenerate_angle(math.radians(theta_d_deg), mu2)
    return CrystalScenario(omega0=1.0, g=g, l=l, dispersion=model)


def _sinc_reference(z):
    """sin(z)/z on Python complexes: the series below the cutoff, else
    cmath.sin(z) / z, the route csinc took before it ran on arrays."""
    z = complex(z)
    if abs(z) < 1e-4:
        z2 = z * z
        return 1.0 - z2 / 6.0 + z2 * z2 / 120.0
    return cmath.sin(z) / z


def _complex_bits(values):
    return np.array(values, dtype=complex).view(np.uint64)


@pytest.mark.parametrize("path", ["float", "one-element array", "many-element array"])
class TestCsinc:
    @staticmethod
    def csinc(path, z):
        """csinc(z) as a Python complex: on z itself, on z in a one-element
        array, or on z in the middle of a longer array."""
        if path == "float":
            return csinc(z)
        if path == "one-element array":
            return complex(csinc(np.array([z], dtype=complex))[0])
        return complex(csinc(np.array([0.5, 3j, 1e-5, z, -2.0, 40.0 - 1j], dtype=complex))[3])

    def test_removable_singularity(self, path):
        assert self.csinc(path, 0.0) == 1.0

    def test_matches_series_for_imaginary_argument(self, path):
        # sin(ix)/(ix) = sinh(x)/x = 1 + x^2/6 + x^4/120 + ...
        for x in (1e-6, 1e-5, 5e-5):
            series = 1.0 + x * x / 6.0 + x**4 / 120.0
            assert self.csinc(path, 1j * x).real == pytest.approx(series, rel=1e-14)
            assert self.csinc(path, 1j * x).imag == 0.0

    def test_series_branch_agrees_with_direct_evaluation(self, path):
        for x in (0.99e-4, 1.01e-4):  # straddle the series cutoff
            assert self.csinc(path, x).real == pytest.approx(math.sin(x) / x, rel=1e-15)

    def test_real_argument(self, path):
        assert self.csinc(path, 2.0).real == pytest.approx(math.sin(2.0) / 2.0, rel=1e-15)

    def test_overflowing_argument_is_a_typed_error(self, path):
        assert self.csinc(path, 700j).real == pytest.approx(math.sinh(700.0) / 700.0,
                                                            rel=1e-13)
        with pytest.raises(StrongGainError):
            self.csinc(path, 720j)  # cmath.sin would raise a bare OverflowError


def test_csinc_keeps_the_bits_of_python_complex_arithmetic():
    # csinc and _sinc_sq run one body on floats and on arrays; both must
    # give the bits of _sinc_reference and (s * s).real, signed zeros
    # included, over real, imaginary and general z on both sides of the
    # series cutoff and up to |Im z| = _SINC_MAX_IMAG
    rng = np.random.default_rng(20240611)
    n = 40000
    size = 10.0 ** rng.uniform(-8.0, math.log10(700.0), n)
    near = rng.random(n) < 0.2
    size[near] = 1e-4 * rng.uniform(0.9, 1.1, near.sum())
    angle = rng.uniform(0.0, 2.0 * math.pi, n)
    form = rng.integers(0, 3, n)  # general, real, imaginary
    signed_zero = np.where(rng.random(n) < 0.5, -0.0, 0.0)
    x = np.where(form == 2, signed_zero, size * np.cos(angle))
    y = np.clip(np.where(form == 1, signed_zero, size * np.sin(angle)), -700.0, 700.0)
    x[:6], y[:6] = [0.0, -0.0, 0.0, -0.0, 0.0, 2.0], [0.0, 0.0, -0.0, -0.0, 700.0, -0.0]
    z = np.empty(n, dtype=complex)
    z.real, z.imag = x, y
    points = z.tolist()
    # numpy's complex sine must be the C library's that cmath.sin uses
    sines = np.sin(z)
    mismatched = (sines.view(np.uint64) != _complex_bits([cmath.sin(v) for v in points]))
    assert not mismatched.any(), (
        f"np.sin differs from cmath.sin at {z[mismatched.any(axis=-1)][:3]}: this numpy "
        "has its own complex sine, and the array path of csinc no longer holds")
    want = [_sinc_reference(v) for v in points]
    assert (_complex_bits([csinc(v) for v in points]) == _complex_bits(want)).all()
    assert (csinc(z).view(np.uint64) == _complex_bits(want)).all()
    squares = [(s * s).real for s in want]
    finite = np.isfinite(squares)
    assert 0.2 * n < finite.sum() < n
    want_sq = np.array(squares)[finite].view(np.uint64)
    assert (np.array([_sinc_sq(v) for v in z[finite].tolist()]).view(np.uint64)
            == want_sq).all()
    assert (_sinc_sq(z[finite]).view(np.uint64) == want_sq).all()


def test_report_table_names_its_first_overflow_before_any_non_finite_element():
    # synthetic resonances with |Im xi| ~ 650 at pair 2, whose sinc is
    # finite but its square is not, and ~ 720 at pair 5, whose sin would
    # overflow.  Pair by pair (a table below ARRAY_MIN) the first of them
    # raises; on arrays csinc's overflow check of the whole xi column comes
    # before _sinc_sq's finiteness check
    s = scenario_for(g=1e-3, l=1e4)
    n = 20
    target = np.full(n, 0.3)
    target[2], target[5] = 650.0, 720.0
    omega, w2 = np.full(n, 0.5), np.full(n, 0.7)
    # on resonance |Im xi| = g l omega0 sqrt(omega partner / (Omega1 Omega2)) / 2
    w1 = omega * omega * (s.g * s.l * s.omega0 / (2.0 * target)) ** 2 / w2
    pairs = _Pairs(omega, omega, np.ones(n), np.full(n, 0.1), w1, w2, 0.9 * omega,
                   0.9 * omega)
    xi = _tabulate(_shifts, s, pairs, pairs.p0)[1]["xi"]
    assert 640.0 < xi[2].imag < 660.0 and 710.0 < xi[5].imag < 730.0
    at = [re.escape(f"xi={complex(xi[j]):g}") for j in (2, 5)]
    few = _Pairs(*(column[[1, 2, 5]] for column in pairs))
    with pytest.raises(StrongGainError, match=f"^sinc\\(xi\\)\\^2 is not finite at {at[0]}$"):
        _tabulate(_reports, s, few, few.p0)
    with pytest.raises(StrongGainError, match=f"^sinc of {at[1]} overflows"):
        _tabulate(_reports, s, pairs, pairs.p0)


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

    def test_shifts_of_an_overflowing_strength_are_refused(self):
        # g^2 omega0^2 omega partner overflows: the shifts were nan+nanj,
        # the product inf and eps3 -inf, with status OK
        omega0 = 2.17e85
        model = calibrate_degenerate_angle(math.radians(6.0), 5.5, omega0=omega0)
        s = CrystalScenario(omega0=omega0, g=3.2e-3, l=0.21, dispersion=model)
        omega = 0.45 * omega0
        message = re.escape(f"wavenumber shifts are not finite at omega={omega:g}: "
                            "product=inf")
        with pytest.raises(StrongGainError, match=f"^{message}$"):
            epsilon_roots(s, pdc_resonance(s, omega))
        with pytest.raises(StrongGainError):
            channel_report(s, omega)
        # and the report tables refuse them, on floats and on arrays
        for samples in (2, 20):
            with pytest.raises(StrongGainError):
                run_sweep(SweepRequest(s, (0.4 * omega0, 0.5 * omega0), samples))


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

    @pytest.mark.parametrize("entry", ["channel_report", "epsilon_roots", "run_sweep",
                                       "run_sweep arrays"])
    def test_detuning_warning_names_the_caller(self, entry):
        s = scenario_for()
        res = pdc_resonance(s, 0.5)
        p = res.p + 0.02 * res.omega
        sweep = SweepRequest(s, (0.4, 0.6), 3, ("pdc", "puc"), detuning=0.02)
        # each call sits on its own line, which the warning must name
        calls = {
            "channel_report": lambda: channel_report(s, 0.5, p=p),
            "epsilon_roots": lambda: epsilon_roots(s, res, p=p),
            "run_sweep": lambda: run_sweep(sweep),
            "run_sweep arrays": lambda: run_sweep(replace(sweep, samples=41)),
        }
        with pytest.warns(ValidityWarning) as record:
            calls[entry]()
        assert [(w.filename, w.lineno) for w in record] == [
            (__file__, calls[entry].__code__.co_firstlineno)]

    def test_strong_coupling_warning_at_construction(self):
        model = calibrate_degenerate_angle(math.radians(10.0), 1.51)
        with pytest.warns(ValidityWarning):
            CrystalScenario(omega0=1.0, g=0.05, l=100.0, dispersion=model)


class TestQuarticWavenumbers:
    def test_uncoupled_factorization_pdc(self):
        # at g = 0 every root is its anchor, the coincident pair included
        s = scenario_for(g=0.0)
        res = pdc_resonance(s, 0.4)
        k = quartic_wavenumbers(s, res)
        K0 = s.pump_wavenumber()
        assert k.tolist() == [res.Omega1, res.Omega1, -res.Omega1, K0 + res.Omega2]

    def test_uncoupled_factorization_puc(self):
        s = scenario_for(g=0.0)
        res = puc_resonance(s, 0.5)
        k = quartic_wavenumbers(s, res)
        K0 = s.pump_wavenumber()
        assert k.tolist() == [res.Omega1, res.Omega1, -res.Omega1, -(K0 + res.Omega2)]

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

    def test_meeting_roots_reported(self):
        # contrive a geometry whose far anchor K0 + Omega2 is the coupled
        # pair's Omega1: at g = 0 k4 meets both; the frequencies enter no
        # factor
        model = DispersionModel.constant(1.0)
        s = CrystalScenario(omega0=1.0, g=0.0, l=10.0, dispersion=model)
        kin = ResonancePoint(
            omega=0.5, partner=0.5, p=0.0, kind="pdc", Omega1=3.0, Omega2=2.0,
            Omega10=3.0, Omega20=2.0, residual=0.0, iterations=0,
        )
        with pytest.raises(DegenerateRootError, match="^two quartic roots meet at omega=0.5$"):
            quartic_wavenumbers(s, kin)

    @pytest.mark.parametrize("case", ["pair", "k4 on the pair", "k4 on k3"])
    def test_meeting_roots_refused(self, case):
        # the pair started from one shift at G > 0, where its roots are
        # distinct, or a far anchor sign (K0 + Omega2) on +Omega1 (pdc) or
        # -Omega1 (puc) at G = 0
        K0, w2 = 1.5, 1.2
        sign, w1, G, eps = {"pair": (1.0, K0 - w2, 1e-8, 1e-4j),
                            "k4 on the pair": (1.0, K0 + w2, 0.0, 0j),
                            "k4 on k3": (-1.0, K0 + w2, 0.0, 0j)}[case]
        pair = _Pairs(*np.array([[0.4, 0.6, sign, 0.1, w1, w2, w1, w2]]).T)
        start = {"eps1": np.array([eps]), "eps2": np.array([eps]), "eps3": np.zeros(1),
                 "eps4": np.zeros(1)}
        with pytest.raises(DegenerateRootError, match="^two quartic roots meet at omega=0.4$"):
            _anchored_roots(K0, pair, np.array([G]), start)

    @pytest.mark.parametrize("g", [1e-8, 1e-6, 1e-4, 1e-3])
    def test_each_root_keeps_its_start(self, g):
        # k1 is the root eps1 starts and k2 the one eps2 starts: each lies
        # nearer its own start, and the shifts' order (the smaller first; on
        # a tie the +imaginary, then +real, one) is the roots' order
        s = scenario_for(g=g)
        grid = _resonance_grid(s, np.linspace(0.05, 1.95, 39), KINDS)
        pairs = _Pairs.of_grid(grid, np.flatnonzero(grid.status == OK))
        eps = _tabulate(_shifts, s, pairs, pairs.p0)[1]
        _, K0, _, _, G, _ = _quartic(s, pairs)
        x = _anchored_roots(K0, pairs, G, eps)[1].T.tolist()
        assert len(x) > 40
        for (x1, x2, _, _), e1, e2 in zip(x, eps["eps1"].tolist(), eps["eps2"].tolist()):
            assert abs(x1 - e1) < abs(x1 - e2) and abs(x2 - e2) < abs(x2 - e1)
            assert _scalar_leads(e1, e2)

    def test_offsets_match_the_reference_roots(self):
        # 40 seeded pairs (omega 0.3-0.65, both kinds, g 1e-8 - 1e-3, mu2
        # 1.51 and 20) against the 40-digit roots of reference_solve, their
        # offsets taken from the anchors in mp.  Over 1,200 such pairs the
        # largest error was 4.4 eps relative, the pair's 1.5 eps (its residual
        # d comes from a two-sum, so it carries no eps K0 / |x| floor); the
        # bound 8 eps leaves that margin
        rng = np.random.default_rng(39)
        errors = []
        for mu2 in (1.51, 20.0):
            model = calibrate_degenerate_angle(math.radians(10.0), mu2)
            for _ in range(20):
                g, omega = 10.0 ** rng.uniform(-8.0, -3.0), rng.uniform(0.3, 0.65)
                solve = (pdc_resonance, puc_resonance)[rng.integers(2)]
                s = CrystalScenario(omega0=1.0, g=g, l=100.0, dispersion=model)
                res = solve(s, omega)
                pair = _Pairs(*np.array([_Pairs.of_record(res)]).T)
                _, K0, _, _, G, _ = _quartic(s, pair)
                x = _anchored_roots(K0, pair, G, _shifts(s, pair, pair.p0)[2])[1][:, 0]
                with mp.workdps(reference_solve.DIGITS):
                    roots = reference_solve._modes(s, _Pairs.of_record(res))[0]
                    w1, far = mp.mpf(res.Omega1), kind_sign(res.kind) * (
                        mp.mpf(s.pump_wavenumber()) + mp.mpf(res.Omega2))
                    for anchor, offset in zip((w1, w1, -w1, far), x.tolist()):
                        exact = min((root - anchor for root in roots),
                                    key=lambda z: abs(z - offset))
                        errors.append(float(abs(exact - offset) / abs(exact)))
        assert max(errors) <= 8.0 * np.finfo(float).eps

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
    records = [res for point in _points(grid) for res in point
               if not isinstance(res, str)]
    assume(records)
    coeffs = [_quartic(s, _Pairs.of_record(res))[0] for res in records]
    # the rows of one pair's floats are the rows of the pairs' columns
    columns = _Pairs(*np.array([_Pairs.of_record(res) for res in records]).T)
    assert _quartic(s, columns)[0].tobytes() == np.array(coeffs).tobytes()
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
    rows = [_quartic(s, _Pairs.of_record(solve(s, 0.5)))[0]
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
# the sweep's report table and compare_oracle's shift table against the
# scalar arithmetic they replaced and against their one-element calls
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
    sinc = _sinc_reference(xi)
    gamma = (g * g * l * l * w0 * w0 * omega * partner / (4.0 * w1 * w2)
             * (sinc * sinc).real)
    R10, R20 = (w10 - w1) / (w10 + w1), (w20 - w2) / (w20 + w2)
    r10, r20 = R10 * R10, R20 * R20  # fresnel_step's r0
    sign = 1.0 if res.kind == "pdc" else -1.0
    r1 = 2.0 * r10 / (1.0 + r10) + sign * gamma * r10 / ((1.0 + r10) * (1.0 + r10))
    t1 = (1.0 - r10) / (1.0 + r10) + sign * gamma / ((1.0 + r10) * (1.0 + r10))
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


def _element(columns, j):
    """The fields of column position j as Python scalars."""
    return {name: col.item(j) for name, col in columns.items()}


@given(_tables)
@settings(max_examples=80, deadline=None)
def test_tables_match_scalar_arithmetic_bit_for_bit(case):
    # every resonance of the sweep's report table (_outcomes) and of
    # compare_oracle's shift table (_tabulate of _shifts) carries the bits
    # of _scalar_reference and of the one-element channel_report and
    # epsilon_roots, and the same status
    theta_d, mu2, g, l, detuning, omegas = case
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ValidityWarning)
        s = scenario_for(theta_d, mu2, g, l)
        _, pairs, reports, order = _outcomes(s, omegas, KINDS, detuning)
        shift_codes, shifts = _tabulate(_shifts, s, pairs, pairs.p0 + detuning * pairs.omega)
        for omega, _, kind, j, reason in order:
            solve = pdc_resonance if kind == "pdc" else puc_resonance
            res = _one_element(lambda: solve(s, omega))
            if isinstance(res, str):
                assert reason == res
                continue
            p = res.p + detuning * omega
            shift_status, want_shifts, report_status, want_report = (
                _scalar_reference(s, res, p))
            rep = _one_element(lambda: channel_report(s, omega, kind, p=p))
            eps = _one_element(lambda: epsilon_roots(s, res, p=p))
            assert reason == report_status
            assert (rep if isinstance(rep, str) else "ok") == report_status
            assert STATUS_REASONS[shift_codes[j]] == shift_status
            assert (eps if isinstance(eps, str) else "ok") == shift_status
            if want_report is not None:
                row = _element(reports, j)
                for name, want in want_report.items():
                    assert _bits(row[name]) == _bits(want), name
                for name in _REPORT_FIELDS:
                    assert _bits(getattr(rep, name)) == _bits(row[name]), name
                if rep.gamma > 0.0:
                    assert _bits(rainbow_split(rep)[0]) == _bits(row["forward_fraction"])
            if want_shifts is not None:
                row = _element(shifts, j)
                for name in _SHIFT_FIELDS:
                    assert _bits(row[name]) == _bits(want_shifts[name]), name
                    assert _bits(getattr(eps, name)) == _bits(row[name]), name
                assert EpsilonRoots(kind=kind, **row) == eps


def test_tables_square_one_plus_r10_as_a_product(monkeypatch):
    # the report tables square 1 + r10 as (1 + r10) * (1 + r10), the
    # correctly rounded square, on arrays and on floats: Python's pow rounds
    # differently on about 1e-3 of inputs, and at gamma ~ 1 that last bit
    # reaches r1 or t1.  Synthetic resonances on which the two squares
    # differ pin it.
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
    monkeypatch.setattr(sweep_mod, "_resonance_grid", lambda *args: grid)
    _, _, columns, order = _outcomes(s, grid.omega, KINDS)
    for _, i, kind, j, reason in order:
        k = KINDS.index(kind)
        res = grid.point(k, i)
        status, want = _scalar_reference(s, res, res.p)[2:]
        assert reason == status == "ok"
        row = _element(columns, j)
        rep = _one_pair(ChannelReport, _reports, s, res, None)  # channel_report's path
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


class TestKindConvention:
    """kinematics.kind_sign is the one map from a kind to its sign: +1 for
    pdc, -1 for puc, and every module refuses any other kind with the same
    message instead of computing the other process."""

    def test_sign_and_partner(self):
        s = scenario_for()
        assert (kind_sign("pdc"), kind_sign("puc")) == (1.0, -1.0)
        for solve, kind in ((pdc_resonance, "pdc"), (puc_resonance, "puc")):
            res = solve(s, 0.4)
            assert res.partner == s.omega0 - kind_sign(kind) * 0.4

    @pytest.mark.parametrize("kind", ["PDC", "sfg", "", None])
    def test_unknown_kind_refused(self, kind):
        with pytest.raises(ValueError, match=r"^conjugate kind must be one of "
                                             r"\('pdc', 'puc'\), got "):
            kind_sign(kind)

    @pytest.mark.parametrize("solve", [pdc_resonance, puc_resonance])
    def test_quartic_sign_is_the_kind_sign(self, solve):
        s = scenario_for()
        res = solve(s, 0.4)
        coeffs, K0, A, B, G, sign = _quartic(s, _Pairs.of_record(res))
        assert sign == {"pdc": 1.0, "puc": -1.0}[res.kind]
        # (k^2 - A)((k - sign K0)^2 - B) - G, expanded
        assert coeffs[1] == -2.0 * sign * K0
        assert coeffs[3] == 2.0 * A * sign * K0

    @pytest.mark.parametrize("call", [
        "series_sum", "epsilon_roots", "_quartic",
        "quartic_wavenumbers", "thickness_averaged_intensities", "flux_identity_terms"])
    def test_hand_built_record_with_unknown_kind_refused(self, call):
        # an unknown kind must not compute either process
        s = scenario_for(g=1e-5, l=2800.0)
        res = replace(pdc_resonance(s, 0.4), kind="PDC")
        report = replace(channel_report(s, 0.4), kind="PDC")
        calls = {
            "series_sum": lambda: series_sum(0.04, 0.04, 1e-3, 0.5, 1.0, kind="PDC"),
            "epsilon_roots": lambda: epsilon_roots(s, res),
            "_quartic": lambda: _quartic(s, _Pairs.of_record(res)),
            "quartic_wavenumbers": lambda: quartic_wavenumbers(s, res),
            "thickness_averaged_intensities": lambda: thickness_averaged_intensities(s, res),
            "flux_identity_terms": report.flux_identity_terms,
        }
        with pytest.raises(ValueError, match=r"conjugate kind .* got 'PDC'"):
            calls[call]()

    @pytest.mark.parametrize("value", [math.nan, 0.0, -1.0])
    @pytest.mark.parametrize("field", ["omega", "partner", "Omega1", "Omega2", "Omega10",
                                       "Omega20"])
    @pytest.mark.parametrize("call", [
        "epsilon_roots", "_quartic", "quartic_wavenumbers",
        "thickness_averaged_intensities g=0", "thickness_averaged_intensities"])
    def test_hand_built_record_with_bad_wavenumber_refused(self, call, field, value):
        # a record the resonance solver never returns fails typed, naming
        # its frequencies and wavenumbers, on every entry that takes a record
        s = scenario_for(g=1e-5, l=2800.0)
        res = replace(pdc_resonance(s, 0.45), **{field: value})
        calls = {
            "epsilon_roots": lambda: epsilon_roots(s, res),
            "_quartic": lambda: _quartic(s, _Pairs.of_record(res)),
            "quartic_wavenumbers": lambda: quartic_wavenumbers(s, res),
            "thickness_averaged_intensities g=0": lambda: thickness_averaged_intensities(
                replace(s, g=0.0), res),
            "thickness_averaged_intensities": lambda: thickness_averaged_intensities(s, res),
        }
        with pytest.raises(GeometryError, match=f"must be positive, got .*{field}={value!r}"):
            calls[call]()

    def test_non_positive_resonant_wavenumber_refused(self):
        # a hand-built record the resonance solver never returns
        s = scenario_for()
        res = replace(pdc_resonance(s, 0.4), Omega1=0.0)
        with pytest.raises(GeometryError, match="resonant internal wavenumbers"):
            epsilon_roots(s, res)
