"""Dispersion model construction, calibration and serialization."""
import math
import os
import re
import subprocess
import sys
import warnings
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
from pumpslab.dispersion import _MU_FLOOR, _Pchip

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

    @pytest.mark.parametrize("inputs, message", [
        ({"mu2": math.nan}, "pump-frequency index mu2 must be finite, got nan"),
        ({"mu2": math.inf}, "pump-frequency index mu2 must be finite, got inf"),
        ({"omega0": math.inf}, "pump frequency omega0 must be finite, got inf"),
        ({"omega0": math.nan}, "pump frequency omega0 must be finite, got nan"),
        ({"band": (0.1, math.inf)}, "band ends must be finite, got (0.1, inf)"),
        ({"band": (math.nan, 2.0)}, "band ends must be finite, got (nan, 2.0)"),
        ({"omega0": 1e308},
         "default band (0.05, 2.5) * omega0 overflows at omega0=1e+308"),
    ])
    def test_non_finite_inputs_are_named_before_any_table(self, monkeypatch, inputs,
                                                          message):
        def no_table(*args):
            raise AssertionError("a table was built")

        monkeypatch.setattr(DispersionModel, "tabulated", no_table)
        with pytest.raises(CalibrationError, match=f"^{re.escape(message)}$"):
            calibrate_degenerate_angle(math.radians(10.0), **{"mu2": 1.51, **inputs})

    @pytest.mark.parametrize("inputs, cause", [
        ({"mu2": 1e200}, "tabulated samples must be finite"),
        ({"omega0": 1e-320}, "mu(omega) must be real and >= 1 across the band"),
        ({"omega0": 1e-150}, "mu(omega) must be real and >= 1 across the band"),
        ({"omega0": 1e-110}, "mu(omega) must be real and >= 1 across the band"),
        ({"omega0": 1e307}, "mu(omega) must be real and >= 1 across the band"),
    ])
    def test_finite_inputs_whose_table_leaves_the_float_range(self, inputs, cause):
        theta_d, named = math.radians(10.0), {"mu2": 1.51, "omega0": 1.0, **inputs}
        message = (f"no float model for theta_d={theta_d!r}, mu2={named['mu2']!r}, "
                   f"omega0={named['omega0']!r}: {cause}")
        with pytest.raises(CalibrationError, match=f"^{re.escape(message)}$"):
            calibrate_degenerate_angle(theta_d, **named)

    @pytest.mark.parametrize("band", [(0.6, 2.0), (0.1, 1.4), (0.0, 2.0)])
    def test_band_must_cover_the_anchors(self, band):
        with pytest.raises(CalibrationError, match=r"band must cover \[omega0/2, 3\*omega0/2\]"):
            calibrate_degenerate_angle(math.radians(10.0), 1.51, band=band)


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


class TestSerialization:
    @pytest.mark.parametrize(
        "model",
        [
            DispersionModel.constant(1.5, band=(0.2, 3.0)),
            calibrate_degenerate_angle(math.radians(10.0), 1.51),
            # numpy samples are stored as float lists, which to_record formats
            DispersionModel("tabulated", {"omegas": np.array([0.1, 1.0, 2.0]),
                                          "mu_squared": np.array([2.0, 2.1, 2.3])},
                            (0.1, 2.0)),
        ],
        ids=["constant", "tabulated", "tabulated-from-arrays"],
    )
    def test_round_trip_full_precision(self, model):
        clone = DispersionModel.from_record(model.to_record())
        assert clone.kind == model.kind
        assert clone.band == model.band
        assert clone.parameters == model.parameters
        w = np.linspace(*model.band, 257)
        np.testing.assert_array_equal(clone.mu(w), model.mu(w))

    def test_missing_field(self):
        with pytest.raises(ValueError):
            DispersionModel.from_record("kind=constant\nvalue=1.5\n")

    def test_missing_kind(self):
        with pytest.raises(ValueError, match="^model record missing field: 'kind'$"):
            DispersionModel.from_record("band_lo=0.1\nband_hi=2\nvalue=1.5\n")

    def test_blank_and_comment_lines_skipped(self):
        model = calibrate_degenerate_angle(math.radians(10.0), 1.51)
        lines = model.to_record().splitlines()
        text = "# a comment\n\n" + "\n   \n".join(lines) + "\n  # another=1\n"
        clone = DispersionModel.from_record(text)
        assert (clone.kind, clone.band, clone.parameters) == (
            model.kind, model.band, model.parameters)


class TestParameterSets:
    """A model takes exactly its kind's parameters, as numbers."""

    @pytest.mark.parametrize("kind, parameters", [
        ("constant", {}),
        ("constant", {"value": 1.5, "extra": 1.0}),
        ("tabulated", {"omegas": [0.1, 2.0]}),
        ("tabulated", {"omegas": [0.1, 2.0], "mu_squared": [2.0, 2.1], "extra": 1.0}),
    ], ids=["constant-missing", "constant-extra", "tabulated-missing", "tabulated-extra"])
    def test_not_exactly_the_kind_fields(self, kind, parameters):
        with pytest.raises(ValueError, match=f"^{kind} model needs exactly the parameters"):
            DispersionModel(kind, parameters, (0.1, 2.0))

    @pytest.mark.parametrize("record", [
        "kind=constant\nband_lo=0.1\nband_hi=2\n",
        "kind=tabulated\nband_lo=0.1\nband_hi=2\nomegas=0.1,2\nmu_squared=2,2.1\nextra=1\n",
    ], ids=["constant-without-value", "unknown-key"])
    def test_record_fields_refused(self, record):
        # a missing field must not escape as a KeyError, nor an unknown key
        # be kept and written back by to_record
        with pytest.raises(ValueError, match="model needs exactly the parameters"):
            DispersionModel.from_record(record)

    def test_list_for_a_number_refused(self):
        with pytest.raises(ValueError, match="^constant model parameters must be numbers$"):
            DispersionModel("constant", {"value": [1.5, 1.6]}, (0.1, 2.0))

    @pytest.mark.parametrize("record, line, key", [
        ("kind=constant\nband_lo=0.1\nband_hi=2\nvalue=1.5\nvalue=2.5\n", 5, "value"),
        ("kind=constant\nband_lo=0.1\nband_hi=2\n\n# moved\nband_lo=0.5\nvalue=1.5\n",
         6, "band_lo"),
        ("kind=constant\n kind = tabulated\nband_lo=0.1\nband_hi=2\nvalue=1.5\n", 2, "kind"),
    ], ids=["value", "band", "kind"])
    def test_repeated_record_field_refused(self, record, line, key):
        # the last of two values must not silently win
        with pytest.raises(ValueError, match=f"^model record line {line} repeats "
                                             f"field '{key}'$"):
            DispersionModel.from_record(record)

    @pytest.mark.parametrize("value", [1e200, -1e155, 1.7e308])
    def test_constant_whose_square_overflows_refused(self, value):
        with pytest.raises(ValueError, match="overflows mu\\^2"):
            DispersionModel.constant(value)

    @pytest.mark.parametrize("value", [-1.5, -1.0, -3.0, -1e154, -math.inf])
    def test_negative_constant_refused(self, value):
        # its square passes the floor, but mu(omega) = value is below 1
        message = f"^{re.escape(f'constant mu={value:g} is negative')}$"
        with pytest.raises(ValueError, match=message):
            DispersionModel.constant(value)
        record = f"kind=constant\nband_lo=0.1\nband_hi=2\nvalue={value!r}\n"
        with pytest.raises(ValueError, match=message):
            DispersionModel.from_record(record)

    @pytest.mark.parametrize("value", [1.0, 1.1, 1.5, 3.0, 1.2345678901234567, 1e154])
    def test_constant_keeps_the_bits_of_its_square(self, value):
        assert DispersionModel.constant(value).mu(0.5) == math.sqrt(value**2)

    @pytest.mark.parametrize("kind", ["sellmeier", "rational"])
    def test_unknown_kind(self, kind):
        with pytest.raises(ValueError, match=f"^unknown dispersion kind '{kind}'$"):
            DispersionModel(kind, {}, (0.1, 2.0))
        record = f"kind={kind}\nband_lo=0.1\nband_hi=2\na=2.2\nb=-0.5\nc=9\n"
        with pytest.raises(ValueError, match=f"^unknown dispersion kind '{kind}'$"):
            DispersionModel.from_record(record)

    @pytest.mark.parametrize("band", [(0.0, 1.0), (-1.0, 1.0), (1.0, 1.0), (2.0, 1.0),
                                      (math.nan, 1.0)])
    def test_band_must_satisfy_zero_below_lo_below_hi(self, band):
        with pytest.raises(ValueError, match="^band must satisfy 0 < lo < hi"):
            DispersionModel.constant(1.5, band=band)


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


class TestConstructionErrors:
    """Each malformed tabulated input fails with its own ValueError, the
    checks running in a fixed order: shape, increase, band, finiteness,
    then the index floor."""

    NOT_SAMPLES = "tabulated model needs matching 1-d samples"
    NOT_INCREASING = "tabulated sample frequencies must increase"
    NOT_FINITE = "tabulated samples must be finite"
    NOT_SPANNED = "tabulated band must span the sample points"
    BELOW_ONE = "mu(omega) must be real and >= 1 across the band"

    @pytest.mark.parametrize("omegas, mu_squared, band, message", [
        ([0.1], [2.0], (0.1, 2.0), NOT_SAMPLES),
        ([0.1, 1.0, 2.0], [2.0, 2.1], (0.1, 2.0), NOT_SAMPLES),
        ([0.1, 1.0, 1.0, 2.0], [2.0, 2.1, 2.2, 2.3], (0.1, 2.0), NOT_INCREASING),
        ([0.1, 1.0, 0.5, 2.0], [2.0, 2.1, 2.2, 2.3], (0.1, 2.0), NOT_INCREASING),
        # NaN compares false with its neighbours, so it passes the increase
        # check and is caught as non-finite
        ([0.1, math.nan, 2.0], [2.0, 2.1, 2.3], (0.1, 2.0), NOT_FINITE),
        ([0.1, 1.0, 2.0], [2.0, math.inf, 2.3], (0.1, 2.0), NOT_FINITE),
        ([0.1, 1.0, 2.0], [2.0, 2.1, 2.3], (0.1, 3.0), NOT_SPANNED),
        ([0.1, 1.0, 2.0], [2.0, 2.1, 2.3], (0.05, 2.0), NOT_SPANNED),
        ([0.1, 1.0, 2.0], [2.0, 0.9, 2.3], (0.1, 2.0), BELOW_ONE),
    ], ids=["one-sample", "mismatched-lengths", "repeated-frequency",
            "decreasing-frequency", "nan-frequency", "inf-mu-squared",
            "band-past-samples", "band-before-samples", "sample-below-one"])
    def test_bad_samples(self, omegas, mu_squared, band, message):
        params = {"omegas": omegas, "mu_squared": mu_squared}
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            DispersionModel("tabulated", params, band)

    def test_scalar_record_value(self):
        # a one-value field reads back as a float, not a list
        record = "kind=tabulated\nband_lo=1\nband_hi=2\nomegas=1.0\nmu_squared=2.0\n"
        with pytest.raises(ValueError, match=f"^{re.escape(self.NOT_SAMPLES)}$"):
            DispersionModel.from_record(record)


def scan_verdict(value):
    """Whether the 1,024-point scan that the per-kind check replaced accepts
    a constant model: mu^2 finite and at least _MU_FLOOR^2 at every node."""
    m2 = np.full(1024, value**2)
    return bool(np.all(np.isfinite(m2)) and not np.any(m2 < _MU_FLOOR**2))


@st.composite
def floor_tables(draw):
    """2-12 samples, every mu^2 >= 1: exactly 1, within 1e-9 of 1, or up to
    1e6, at increasing frequencies from 0.01 up."""
    n = draw(st.integers(2, 12))
    steps = draw(st.lists(st.floats(1e-3, 2.0), min_size=n - 1, max_size=n - 1))
    x = draw(st.floats(0.01, 2.0)) + np.concatenate(([0.0], np.cumsum(steps)))
    level = st.one_of(st.just(1.0), st.floats(1.0, 1.0 + 1e-9),
                      st.floats(1.0, 10.0), st.floats(1.0, 1e6))
    return x.tolist(), draw(st.lists(level, min_size=n, max_size=n))


class TestValidationRule:
    """Each kind is checked where its minimum lies: a constant's value, a
    tabulated model's samples less a rounding allowance (minus infinity
    where an evaluation could overflow)."""

    def test_sample_below_floor_between_scan_nodes_refused(self):
        # a narrow dip between two nodes of the old 1,024-point scan, which
        # evaluated 1.5 or more everywhere it looked and accepted the model
        nodes = np.linspace(0.1, 2.0, 1024)
        dip = 0.5 * (nodes[511] + nodes[512])
        omegas = [0.1, dip - 1e-6, dip, dip + 1e-6, 2.0]
        below = math.nextafter(_MU_FLOOR**2, 0.0)
        with pytest.raises(ValueError, match=r"^mu\(omega\) must be real and >= 1"):
            DispersionModel.tabulated(omegas, [1.5, 1.5, below, 1.5, 1.5])
        DispersionModel.tabulated(omegas, [1.5, 1.5, 1.0, 1.5, 1.5])

    @pytest.mark.parametrize("value", [1.0, _MU_FLOOR, math.nextafter(_MU_FLOOR, 0.0),
                                       0.8, 1.5, math.inf, math.nan])
    def test_constant_verdict_matches_scan(self, value):
        try:
            DispersionModel.constant(value, band=(0.1, 2.0))
        except ValueError:
            assert not scan_verdict(value)
        else:
            assert scan_verdict(value)

    @pytest.mark.parametrize("omegas, mu_squared", [
        # the secants overflow, so the coefficients are inf or NaN
        ([1.0, 1.0 + 2**-52, 2.0], [2.0, 1e300, 2.0]),
        ([1.0, 2.0, 3.0], [1.5, 1.7e308, 1.5]),
        # finite coefficients, but s * s overflows inside the interval,
        # where __call__ would evaluate 0 * inf
        ([1.0, 1e200], [2.0, 3.0]),
        ([1.0, 2.0, 1e200], [2.0, 2.5, 3.0]),
    ], ids=["steep-secant", "huge-sample", "wide-interval", "wide-last-interval"])
    def test_overflowing_table_refused_without_warning(self, omegas, mu_squared):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"^mu\(omega\) must be real and >= 1"):
                DispersionModel.tabulated(omegas, mu_squared)

    @given(floor_tables(), st.lists(st.floats(0.0, 1.0), max_size=20))
    def test_interpolant_never_below_floor(self, table, fractions):
        omegas, mu_squared = table
        try:
            model = DispersionModel.tabulated(omegas, mu_squared)
        except ValueError:
            # only the rounding allowance refuses samples >= 1, and it stays
            # under the floor's margin while mu^2 <= 4
            assert max(mu_squared) > 4.0
            return
        x = np.array(omegas)
        w = np.concatenate((np.linspace(x[0], x[-1], 4097), probe_points(x, fractions)))
        w = w[(w >= x[0]) & (w <= x[-1])]
        m2 = model._interp(w)
        assert np.all(np.isfinite(m2))
        assert m2.min() >= _MU_FLOOR**2
        assert model.mu(w).min() >= _MU_FLOOR

    def test_wide_range_table_whose_rounding_crosses_the_floor_refused(self):
        # 78392.5 down to 1.0 over one interval: summing c3 = 78392.5 with
        # terms near -78391.5 evaluates 0.999999999996362 at the band end,
        # below _MU_FLOOR**2, although every sample is >= 1
        omegas = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 7.5, 7.9375]
        mu_squared = [1.0] * 7 + [78392.5, 1.0]
        assert _Pchip(omegas, mu_squared)(np.array([7.9375]))[0] < _MU_FLOOR**2
        with pytest.raises(ValueError, match=r"^mu\(omega\) must be real and >= 1"):
            DispersionModel.tabulated(omegas, mu_squared)


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
        got = _Pchip(x.tolist(), y.tolist())
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


def numpy_pchip(x, y):
    """_Pchip's table and edges as its numpy build computed them, kept as
    the reference for the float build (x, y: float64 arrays)."""
    with np.errstate(all="ignore"):
        h = np.diff(x)
        m = np.diff(y) / h
        if m.size == 1:
            d = np.array([m[0], m[0]])
        else:
            sign = np.sign(m)
            flat = (sign[1:] != sign[:-1]) | (m[1:] == 0) | (m[:-1] == 0)
            w1 = 2 * h[1:] + h[:-1]
            w2 = h[1:] + 2 * h[:-1]
            h0, h1, m0, m1 = h[[0, -1]], h[[1, -2]], m[[0, -1]], m[[1, -2]]
            inner = 1.0 / ((w1 / m[:-1] + w2 / m[1:]) / (w1 + w2))
            end = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
            d = np.empty(m.size + 1)
            d[1:-1] = np.where(flat, 0.0, inner)
            overshoot = (np.sign(m0) != np.sign(m1)) & (np.abs(end) > 3.0 * np.abs(m0))
            d[[0, -1]] = np.where(
                np.sign(end) != np.sign(m0), 0.0, np.where(overshoot, 3.0 * m0, end)
            )
        t = (d[:-1] + d[1:] - 2 * m) / h
        columns = np.stack((t / h, (m - d[:-1]) / h - t, d[:-1], 0.0 + y[:-1], x[:-1]))
    nan = np.full((5, 1), np.nan)
    return np.hstack((nan, columns, nan)), np.append(x[:-1], np.nextafter(x[-1], np.inf))


def fuzz_table(rng):
    """2-17 strictly increasing abscissae and ordinates that are free,
    monotone, in flat runs (signed zeros included), alternating in sign, or
    of mixed magnitudes, at scales from 1e-300 to 1e300."""
    n = int(rng.integers(2, 18))
    x_scale, y_scale = 10.0 ** rng.choice([-300, -5, 0, 5, 300], size=2)
    steps = x_scale * rng.uniform(0.01, 1.0, n - 1)
    x = x_scale * rng.uniform(-1.0, 1.0) + np.concatenate(([0.0], np.cumsum(steps)))
    shape = rng.integers(5)
    if shape == 0:
        y = y_scale * rng.uniform(-1.0, 1.0, n)
    elif shape == 1:
        y = y_scale * np.cumsum(rng.uniform(0.0, 1.0, n)) * rng.choice([-1.0, 1.0])
    elif shape == 2:
        y = y_scale * rng.choice([-1.0, -0.0, 0.0, 2.5], size=n)
    elif shape == 3:
        y = y_scale * rng.uniform(0.1, 1.0, n) * (-1.0) ** np.arange(n)
    else:
        y = rng.choice([-1.0, 0.0, 1.0], size=n) * 10.0 ** rng.uniform(-300, 300, n)
    return x, y


class TestPchipMatchesNumpyBuild:
    """The float build of _Pchip gives the numpy build's arrays bit for bit,
    signed zeros, infinities and NaN positions included."""

    # both slope quotients underflow to +-0, where 1/0 gives +-inf
    UNDERFLOW = [([0.0, 1e-300, 2e-300], [0.0, 1.0, 2.0]),
                 ([0.0, 1e-300, 2e-300], [0.0, -1.0, -2.0])]

    def assert_same_build(self, x, y):
        got = _Pchip(x.tolist(), y.tolist())
        table, edges = numpy_pchip(x, y)
        assert got._table.dtype == got._edges.dtype == np.float64
        assert_same_bits(got._table, table)
        assert_same_bits(got._edges, edges)

    @pytest.mark.parametrize("x, y", UNDERFLOW)
    def test_underflowing_harmonic_mean(self, x, y):
        self.assert_same_build(np.array(x), np.array(y))
        assert np.isinf(_Pchip(x, y)._table[2, 2])

    def test_seeded_fuzz(self):
        rng = np.random.default_rng(16)
        built = 0
        while built < 4000:
            x, y = fuzz_table(rng)
            if not np.all(np.diff(x) > 0):
                continue
            self.assert_same_build(x, y)
            built += 1


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
