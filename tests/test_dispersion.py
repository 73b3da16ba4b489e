"""Dispersion model construction, calibration and serialization."""
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from pumpslab import (
    CalibrationError,
    CrystalScenario,
    DispersionModel,
    OutOfBandError,
    calibrate_degenerate_angle,
    channel_report,
)
from pumpslab.dispersion import _Pchip

Q_D_10DEG = math.sin(math.radians(10.0)) ** 2  # 0.030153689607...


def bisect_sqrt(target, lo=1.0, hi=3.0):
    """Independent square root via bisection on x^2 - target."""
    for _ in range(120):
        mid = 0.5 * (lo + hi)
        if mid * mid < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestConstantModel:
    def test_vacuum_identity(self):
        model = DispersionModel.constant(1.0)
        assert model.mu(0.7) == 1.0
        assert model.mu(123.0) == 1.0

    def test_constant_value(self):
        model = DispersionModel.constant(1.5)
        assert model.mu(0.3) == 1.5
        np.testing.assert_allclose(model.mu(np.array([0.1, 2.0])), 1.5)

    def test_below_unity_rejected(self):
        with pytest.raises(ValueError):
            DispersionModel.constant(0.8)


class TestCalibratedModel:
    def test_anchor_difference_matches_target(self):
        model = calibrate_degenerate_angle(math.radians(10.0), 1.51)
        gap = model.mu(0.5) ** 2 - model.mu(1.0) ** 2
        assert abs(gap - Q_D_10DEG) / Q_D_10DEG < 1e-10

    def test_mu1_against_bisection_oracle(self):
        model = calibrate_degenerate_angle(math.radians(10.0), 1.51)
        oracle = bisect_sqrt(1.51**2 + Q_D_10DEG)
        assert abs(model.mu(0.5) - oracle) < 1e-12
        # frozen oracle output, coarse check against the rounded quote
        assert abs(model.mu(0.5) - 1.5199518708192854) < 1e-12
        assert abs(model.mu(0.5) - 1.519945) < 1e-4

    def test_mu3_linearized_upper_anchor(self):
        model = calibrate_degenerate_angle(math.radians(10.0), 1.51)
        oracle = bisect_sqrt(1.51**2 - Q_D_10DEG)
        assert abs(model.mu(1.5) - oracle) < 1e-12
        assert abs(model.mu(1.5) - 1.4999821033575542) < 1e-12
        assert abs(model.mu(1.5) - 1.499965) < 1e-4

    def test_zero_angle_is_dispersionless(self):
        model = calibrate_degenerate_angle(0.0, 1.51)
        assert model.mu(0.5) == pytest.approx(1.51, abs=1e-15)
        assert model.mu(1.5) == pytest.approx(1.51, abs=1e-15)

    def test_interior_is_smooth_and_monotone(self):
        model = calibrate_degenerate_angle(math.radians(10.0), 1.51)
        w = np.linspace(*model.band, 800)
        mu = model.mu(w)
        assert np.all(np.diff(mu) < 0.0)  # anomalous ordering by construction
        assert np.all(mu >= 1.0)
        assert np.max(np.abs(np.diff(mu))) < 1e-3  # no jumps

    def test_anchor_difference_across_random_targets(self):
        rng = np.random.default_rng(17)
        for _ in range(30):
            theta = math.radians(rng.uniform(0.5, 20.0))
            mu2 = rng.uniform(1.2, 1.9)
            model = calibrate_degenerate_angle(theta, mu2)
            q_d = math.sin(theta) ** 2
            assert model.mu(0.5) ** 2 - model.mu(1.0) ** 2 == pytest.approx(
                q_d, rel=1e-12
            )
            assert model.mu(1.5) ** 2 == pytest.approx(
                mu2 * mu2 - q_d, rel=1e-12
            )

    def test_infeasible_target(self):
        with pytest.raises(CalibrationError):
            calibrate_degenerate_angle(math.radians(30.0), 1.05)

    def test_bad_inputs(self):
        with pytest.raises(CalibrationError):
            calibrate_degenerate_angle(math.radians(95.0), 1.5)
        with pytest.raises(CalibrationError):
            calibrate_degenerate_angle(math.radians(10.0), 0.99)


class TestBandGuard:
    def test_out_of_band_is_error_not_extrapolation(self):
        model = calibrate_degenerate_angle(math.radians(10.0), 1.51)
        lo, hi = model.band
        with pytest.raises(OutOfBandError):
            model.mu(hi * 1.01)
        with pytest.raises(OutOfBandError):
            model.mu(lo * 0.99)
        # endpoints are inclusive
        model.mu(lo)
        model.mu(hi)

    def test_array_band_check(self):
        model = DispersionModel.constant(1.2, band=(0.1, 2.0))
        with pytest.raises(OutOfBandError):
            model.mu(np.array([0.5, 3.0]))

    def test_out_of_band_message_names_first_and_count(self):
        # a sweep-sized array is summarized, not printed
        model = DispersionModel.constant(1.2, band=(0.1, 2.0))
        omega = np.linspace(0.05, 3.0, 402)
        with pytest.raises(OutOfBandError) as excinfo:
            model.mu(omega)
        outside = int(np.count_nonzero((omega < 0.1) | (omega > 2.0)))
        assert str(excinfo.value) == (
            f"frequency 0.05 outside dispersion band [0.1, 2] ({outside} of 402 outside)")
        with pytest.raises(OutOfBandError) as excinfo:
            model.mu([[1.0, 2.5], [0.01, 1.0]])
        assert str(excinfo.value) == (
            "frequency 2.5 outside dispersion band [0.1, 2] (2 of 4 outside)")
        with pytest.raises(OutOfBandError) as excinfo:
            model.mu(3.0)
        assert str(excinfo.value) == "frequency 3.0 outside dispersion band [0.1, 2]"

    def test_nan_frequency_is_out_of_band(self):
        # NaN compares false with both band edges; it is out of band, not an
        # index of nan that a resonance solve would stall on
        model = calibrate_degenerate_angle(math.radians(10.0), 1.51)
        message = r"^frequency nan outside dispersion band \[0.05, 2.5\]"
        with pytest.raises(OutOfBandError, match=message + "$"):
            model.mu(float("nan"))
        with pytest.raises(OutOfBandError, match=message + r" \(1 of 2 outside\)$"):
            model.mu([1.0, float("nan")])
        scenario = CrystalScenario(omega0=1.0, g=1e-4, l=100.0, dispersion=model)
        with pytest.raises(OutOfBandError, match=message + "$"):
            channel_report(scenario, float("nan"))


class TestRationalModel:
    def test_monotone_within_band(self):
        model = DispersionModel.rational(2.2, -0.5, 9.0, band=(0.1, 2.0))
        w = np.linspace(0.1, 2.0, 500)
        mu = model.mu(w)
        assert np.all(np.diff(mu) < 0.0)
        assert np.all(mu >= 1.0)

    def test_pole_inside_band_rejected(self):
        with pytest.raises(ValueError):
            DispersionModel.rational(2.2, -0.5, 1.0, band=(0.1, 2.0))

    def test_deterministic(self):
        model = DispersionModel.rational(2.2, 0.3, 9.0, band=(0.1, 2.0))
        assert model.mu(0.77) == model.mu(0.77)


class TestSerialization:
    @pytest.mark.parametrize(
        "model",
        [
            DispersionModel.constant(1.5, band=(0.2, 3.0)),
            DispersionModel.rational(2.2, -0.5, 9.0, band=(0.1, 2.0)),
            calibrate_degenerate_angle(math.radians(10.0), 1.51),
        ],
        ids=["constant", "rational", "tabulated"],
    )
    def test_round_trip_full_precision(self, model):
        clone = DispersionModel.from_record(model.to_record())
        assert clone.kind == model.kind
        assert clone.band == model.band
        w = np.linspace(*model.band, 257)
        np.testing.assert_array_equal(clone.mu(w), model.mu(w))

    def test_missing_field(self):
        with pytest.raises(ValueError):
            DispersionModel.from_record("kind=constant\nvalue=1.5\n")


class TestTabulatedBand:
    SAMPLES = {"omegas": [0.1, 1.0, 2.0], "mu_squared": [2.0, 2.1, 2.3]}

    @pytest.mark.parametrize("band", [(0.1 * (1.0 - 1e-12), 2.0),
                                      (0.1, 2.0 * (1.0 + 1e-12))])
    def test_band_beyond_the_samples_rejected(self, band):
        # math.isclose accepts these ends; the interpolant is NaN past them
        with pytest.raises(ValueError, match="band must lie within the sample points"):
            DispersionModel("tabulated", self.SAMPLES, band)

    def test_band_just_inside_the_samples_accepted(self):
        band = (0.1 * (1.0 + 1e-12), 2.0 * (1.0 - 1e-12))
        model = DispersionModel("tabulated", self.SAMPLES, band)
        assert model.band == band
        clone = DispersionModel.from_record(model.to_record())
        assert clone.band == model.band
        assert clone.parameters == model.parameters
        w = np.linspace(*model.band, 65)
        np.testing.assert_array_equal(clone.mu(w), model.mu(w))


def assert_same_bits(got, want):
    """Equal NaN positions and, elsewhere, equal IEEE bit patterns."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    nan = np.isnan(want)
    np.testing.assert_array_equal(np.isnan(got), nan)
    np.testing.assert_array_equal(got[~nan].view(np.int64), want[~nan].view(np.int64))


@st.composite
def pchip_tables(draw):
    """2-12 strictly increasing abscissae with monotone, non-monotone,
    repeated-value (zero-slope) or collinear ordinates."""
    n = draw(st.integers(2, 12))
    steps = draw(st.lists(st.floats(1e-3, 10.0), min_size=n - 1, max_size=n - 1))
    x = draw(st.floats(-10.0, 10.0)) + np.concatenate(([0.0], np.cumsum(steps)))
    shape = draw(st.sampled_from(("monotone", "free", "repeated", "collinear")))
    if shape == "monotone":
        rises = draw(st.lists(st.floats(0.0, 5.0), min_size=n - 1, max_size=n - 1))
        y = draw(st.floats(-5.0, 5.0)) + np.concatenate(([0.0], np.cumsum(rises)))
    elif shape == "free":
        y = np.array(draw(st.lists(st.floats(-100.0, 100.0), min_size=n, max_size=n)))
    elif shape == "repeated":
        levels = st.sampled_from((-1.0, -0.0, 0.0, 2.5))
        y = np.array(draw(st.lists(levels, min_size=n, max_size=n)))
    else:
        y = draw(st.floats(-5.0, 5.0)) + draw(st.floats(-3.0, 3.0)) * x
    return x, y


def probe_points(x, fractions):
    """Every breakpoint, its neighbours one ulp either side, both ends and
    interior points at the given fractions of the span."""
    inner = x[0] + np.asarray(fractions) * (x[-1] - x[0])
    return np.concatenate(
        (x, np.nextafter(x, -np.inf), np.nextafter(x, np.inf), inner)
    )


class TestPchipMatchesScipy:
    """The tabulated model's interpolant does scipy's PCHIP arithmetic, so
    it reproduces ``PchipInterpolator(..., extrapolate=False)`` bit for bit,
    NaN outside the sampled interval included."""

    @given(pchip_tables(), st.lists(st.floats(0.0, 1.0), min_size=1, max_size=20))
    # y = -0.0 where all three slope terms are negative: scipy's sum starts
    # from +0.0, so the value there is +0.0, not -0.0
    @example((np.arange(4.0), np.array([0.25, -0.0, -1.0, -6.0])), [0.5])
    def test_array_and_scalar_evaluation(self, table, fractions):
        interpolate = pytest.importorskip("scipy.interpolate")
        x, y = table
        want = interpolate.PchipInterpolator(x, y, extrapolate=False)
        got = _Pchip(x, y)
        points = probe_points(x, fractions)
        assert_same_bits(got(points), want(points))
        for w in points:
            assert_same_bits(got(np.asarray(w)), want(w))
            assert_same_bits(got(float(w)), want(w))

    @given(st.floats(0.0, 30.0), st.floats(1.4, 2.0), st.floats(0.0, 1.0))
    def test_calibrated_model_mu(self, theta_deg, mu2, fraction):
        interpolate = pytest.importorskip("scipy.interpolate")
        model = calibrate_degenerate_angle(math.radians(theta_deg), mu2)
        x = np.array(model.parameters["omegas"])
        want = interpolate.PchipInterpolator(
            x, model.parameters["mu_squared"], extrapolate=False
        )
        points = probe_points(x, [fraction])
        points = points[(points >= x[0]) & (points <= x[-1])]
        assert_same_bits(model.mu(points), np.sqrt(want(points)))
        for w in points:
            assert_same_bits(model.mu(w), np.sqrt(want(w)))

    def test_outside_band_still_raises(self):
        model = calibrate_degenerate_angle(math.radians(10.0), 1.51)
        lo, hi = model.band
        for w in (np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf)):
            with pytest.raises(OutOfBandError):
                model.mu(w)
            with pytest.raises(OutOfBandError):
                model.mu(np.array([0.5, w]))


def test_import_leaves_scipy_unloaded():
    """Importing the library and its CLI must not pull in scipy."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))
    ))
    code = (
        "import sys, pumpslab, pumpslab.cli; "
        "print(sorted(m for m in sys.modules "
        "if m == 'scipy' or m.startswith('scipy.')))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        check=True,
    ).stdout
    assert out.strip() == "[]"
