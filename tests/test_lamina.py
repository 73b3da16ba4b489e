"""Single-interface coefficients and incoherent slab closed forms."""
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pumpslab import PumpslabError, SeriesDomainError, fresnel_step, slab_coefficients


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
        step = fresnel_step(1.0, 1.0)
        assert step.R0 == 0.0
        assert step.A0 == 1.0
        assert step.t0 == 1.0
        assert step.r0 == 0.0

    def test_hand_values_one_and_one_half(self):
        step = fresnel_step(1.0, 1.5)
        assert step.R0 == pytest.approx(-0.2, abs=1e-15)
        assert step.A0 == pytest.approx(0.8, abs=1e-15)
        assert step.r0 == pytest.approx(0.04, abs=1e-15)
        assert step.t0 == pytest.approx(0.96, abs=1e-15)

    def test_hand_values_one_and_three(self):
        step = fresnel_step(1.0, 3.0)
        assert step.R0 == pytest.approx(-0.5, abs=1e-15)
        assert step.r0 == pytest.approx(0.25, abs=1e-15)
        assert step.t0 == pytest.approx(0.75, abs=1e-15)

    def test_energy_identity_over_sweep(self):
        for ratio in np.linspace(0.05, 20.0, 199):
            step = fresnel_step(1.0, ratio)
            assert abs(step.r0 + step.t0 - 1.0) < 1e-14
            assert 0.0 <= step.r0 < 1.0

    def test_nonpositive_wavenumber(self):
        nan = float("nan")
        for outside, inside in ((0.0, 1.0), (1.0, -2.0), (nan, 1.0), (1.0, nan)):
            with pytest.raises(PumpslabError, match="must be positive"):
                fresnel_step(outside, inside)
            # an array is refused where any one element is
            with pytest.raises(PumpslabError, match="must be positive"):
                fresnel_step(np.array([1.0, outside]), np.array([1.5, inside]))


class TestSlabCoefficients:
    def test_transparent(self):
        r, t = slab_coefficients(fresnel_step(1.0, 1.0).r0)
        assert (r, t) == (0.0, 1.0)

    def test_closed_form_vs_series_small(self):
        r, t = slab_coefficients(fresnel_step(1.0, 1.5).r0)  # r0 = 0.04
        assert r == pytest.approx(2 * 0.04 / 1.04, abs=1e-15)
        assert r == pytest.approx(series_reflection(0.04), abs=1e-12)
        assert t == pytest.approx(series_transmission(0.04), abs=1e-12)

    def test_closed_form_vs_series_quarter(self):
        r, t = slab_coefficients(fresnel_step(1.0, 3.0).r0)  # r0 = 0.25
        assert r == pytest.approx(0.4, abs=1e-14)
        assert t == pytest.approx(0.6, abs=1e-14)
        assert r == pytest.approx(series_reflection(0.25), abs=1e-12)

    def test_unitarity_grid(self):
        for r0 in np.arange(0.0, 0.5 + 1e-12, 1e-3):
            ratio = (1.0 + np.sqrt(r0)) / (1.0 - np.sqrt(r0))
            step = fresnel_step(1.0, ratio)
            r, t = slab_coefficients(step.r0)
            assert abs(r + t - 1.0) < 1e-14

    @given(st.floats(min_value=1e-6, max_value=0.97))
    def test_series_matches_closed_form(self, r0):
        ratio = (1.0 + np.sqrt(r0)) / (1.0 - np.sqrt(r0))
        step = fresnel_step(1.0, ratio)
        r, t = slab_coefficients(step.r0)
        terms = 600  # r0^(2*terms) below double precision for r0 <= 0.97
        assert r == pytest.approx(series_reflection(step.r0, terms), rel=1e-10)
        assert t == pytest.approx(series_transmission(step.r0, terms), rel=1e-10)
        assert r + t == pytest.approx(1.0, abs=1e-13)

    @pytest.mark.parametrize("r0", [-1.0, -1e-300, 1.0 + 2.0**-52, 1.5, np.inf, np.nan])
    def test_r0_outside_unit_interval_refused(self, r0):
        assert slab_coefficients(1.0) == (1.0, 0.0)  # the interval is closed
        with pytest.raises(SeriesDomainError, match=f"^r0={r0:g} outside"):
            slab_coefficients(r0)
        # an array is refused where any one element is, naming the first
        with pytest.raises(SeriesDomainError, match=f"^r0={r0:g} outside"):
            slab_coefficients(np.array([0.04, r0, -2.0]))
