"""Single-interface reflectance and incoherent slab closed forms."""
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pumpslab import GeometryError, SeriesDomainError, fresnel_step, slab_coefficients


def series_reflection(r0, terms=60):
    """Brute-force intensity series r0 + r0 t0^2 + r0^3 t0^2 + ..."""
    t0 = 1.0 - r0
    total = r0
    for n in range(1, terms):
        total += r0 ** (2 * n - 1) * t0 * t0
    return total


def series_transmission(r0, terms=60):
    t0 = 1.0 - r0
    return sum(t0 * t0 * r0 ** (2 * n) for n in range(terms))


class TestFresnelStep:
    def test_index_matched(self):
        assert fresnel_step(1.0, 1.0) == 0.0

    def test_hand_values_one_and_one_half(self):
        assert fresnel_step(1.0, 1.5) == pytest.approx(0.04, abs=1e-15)

    def test_hand_values_one_and_three(self):
        assert fresnel_step(1.0, 3.0) == pytest.approx(0.25, abs=1e-15)

    def test_reflectance_in_unit_interval_over_sweep(self):
        ratios = np.linspace(0.05, 20.0, 199)
        r0 = fresnel_step(1.0, ratios)  # elementwise, with each float call's bits
        assert r0.tolist() == [fresnel_step(1.0, ratio) for ratio in ratios]
        assert ((0.0 <= r0) & (r0 < 1.0)).all()

    def test_nonpositive_wavenumber(self):
        nan = float("nan")
        for outside, inside in ((0.0, 1.0), (1.0, -2.0), (nan, 1.0), (1.0, nan)):
            refused = re.escape(f"must be positive, got ({outside}, {inside})")
            with pytest.raises(GeometryError, match=refused):
                fresnel_step(outside, inside)
            # an array is refused where any one element is, naming the first
            with pytest.raises(GeometryError, match=refused + "$"):
                fresnel_step(np.array([1.0, outside, 2.0]), np.array([1.5, inside, -1.0]))


class TestSlabCoefficients:
    def test_transparent(self):
        r, t = slab_coefficients(fresnel_step(1.0, 1.0))
        assert (r, t) == (0.0, 1.0)

    def test_closed_form_vs_series_small(self):
        r, t = slab_coefficients(fresnel_step(1.0, 1.5))  # r0 = 0.04
        assert r == pytest.approx(2 * 0.04 / 1.04, abs=1e-15)
        assert r == pytest.approx(series_reflection(0.04), abs=1e-12)
        assert t == pytest.approx(series_transmission(0.04), abs=1e-12)

    def test_closed_form_vs_series_quarter(self):
        r, t = slab_coefficients(fresnel_step(1.0, 3.0))  # r0 = 0.25
        assert r == pytest.approx(0.4, abs=1e-14)
        assert t == pytest.approx(0.6, abs=1e-14)
        assert r == pytest.approx(series_reflection(0.25), abs=1e-12)

    def test_unitarity_grid(self):
        for r0 in np.arange(0.0, 0.5 + 1e-12, 1e-3):
            ratio = (1.0 + np.sqrt(r0)) / (1.0 - np.sqrt(r0))
            r, t = slab_coefficients(fresnel_step(1.0, ratio))
            assert abs(r + t - 1.0) < 1e-14

    @given(st.floats(min_value=1e-6, max_value=0.97))
    def test_series_matches_closed_form(self, r0):
        ratio = (1.0 + np.sqrt(r0)) / (1.0 - np.sqrt(r0))
        step_r0 = fresnel_step(1.0, ratio)
        r, t = slab_coefficients(step_r0)
        terms = 600  # r0^(2*terms) below double precision for r0 <= 0.97
        assert r == pytest.approx(series_reflection(step_r0, terms), rel=1e-10)
        assert t == pytest.approx(series_transmission(step_r0, terms), rel=1e-10)
        assert r + t == pytest.approx(1.0, abs=1e-13)

    @pytest.mark.parametrize("r0", [-1.0, -1e-300, 1.0 + 2.0**-52, 1.5, np.inf, np.nan])
    def test_r0_outside_unit_interval_refused(self, r0):
        assert slab_coefficients(1.0) == (1.0, 0.0)  # the interval is closed
        with pytest.raises(SeriesDomainError, match=f"^r0={r0:g} outside"):
            slab_coefficients(r0)
        # an array is refused where any one element is, naming the first
        with pytest.raises(SeriesDomainError, match=f"^r0={r0:g} outside"):
            slab_coefficients(np.array([0.04, r0, -2.0]))
