"""One function body on numpy arrays and on Python floats.

Below kinematics.ARRAY_MIN elements, mu, the resonance grid and the report
and shift tables run element by element on Python floats; from ARRAY_MIN
up they run on arrays.  Every element must carry the same bits either way,
skipped elements included, and neither path may let a non-finite or
overflowing input reach its arithmetic.
"""
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pumpslab.kinematics as kinematics_mod
import pumpslab.sweep as sweep_mod
from pumpslab import (
    CrystalScenario,
    DispersionModel,
    EvanescentError,
    GeometryError,
    GuardBandError,
    OutOfBandError,
    calibrate_degenerate_angle,
    channel_report,
    epsilon_roots,
    pdc_resonance,
    puc_resonance,
    thickness_averaged_intensities,
)
from pumpslab.cli import EMPTY_EXIT, main
from pumpslab.coupled import _shifts, _tabulate
from pumpslab.kinematics import KINDS, SKIP_REASONS, _resonance_grid
from pumpslab.sweep import SweepRequest, _outcomes, compare_oracle

_GRID_FIELDS = ("partner", "status", "p", "residual", "iterations", "Omega1",
                "Omega2", "Omega10", "Omega20", "p_max", "f0", "f1")

_calibrated_grids = st.tuples(
    st.floats(1.0, 16.0),  # degenerate emission angle, degrees
    st.floats(1.2, 1.8),  # mu(omega0)
    st.floats(0.0, 5e-3),  # g
    st.floats(10.0, 5000.0),  # l
    st.lists(st.floats(0.02, 2.4), min_size=1, max_size=24),
)
_detunings = st.one_of(
    st.just(0.0),
    st.floats(-0.0099, 0.0099),
    st.floats(-1.0, 1.0),
    st.floats(1.0, 2.0),  # p >= omega: evanescent
    st.floats(-2.0, -1.0),  # p < 0: geometry
)


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _on_both_paths(compute):
    """compute() with every size on arrays (ARRAY_MIN = 1), then on floats."""
    out = []
    for array_min in (1, 10**9):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(kinematics_mod, "ARRAY_MIN", array_min)
            out.append(compute())
    return out


@given(_calibrated_grids, _detunings)
@settings(max_examples=60, deadline=None)
def test_grid_and_tables_carry_the_same_bits_on_both_paths(case, detuning):
    theta_deg, mu2, g, l, omegas = case
    model = calibrate_degenerate_angle(math.radians(theta_deg), mu2)
    scenario = CrystalScenario(omega0=1.0, g=g, l=l, dispersion=model)

    def compute():
        # the reports of every resonance as the sweep tabulates them, and
        # their shifts as compare_oracle does
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            grid, pairs, reports, order = _outcomes(scenario, omegas, KINDS, detuning)
            status, shifts = _tabulate(_shifts, scenario, pairs,
                                       pairs.p0 + detuning * pairs.omega)
        return grid, order, status, (reports, shifts), [str(w.message)
                                                                 for w in caught]

    arrays, floats = _on_both_paths(compute)
    for name in _GRID_FIELDS:
        assert _same_bits(getattr(arrays[0], name), getattr(floats[0], name)), name
    assert arrays[1] == floats[1]  # each row's report status and column position
    assert _same_bits(arrays[2], floats[2])  # each resonance's shift status
    for a, f in zip(arrays[3], floats[3]):
        assert list(a) == list(f)
        for name in a:
            assert _same_bits(a[name], f[name]), name
    # one ValidityWarning per table on either path
    assert arrays[4] == floats[4] and len(arrays[4]) in (0, 2)


@pytest.mark.parametrize("body", ["_reports", "_shifts"])
def test_one_patch_of_array_min_moves_every_table_to_arrays(monkeypatch, body):
    # kinematics owns the path choice: patching its ARRAY_MIN alone runs a
    # 3-omega, two-kind oracle table's report and shift bodies once each,
    # on arrays, where the default runs them once per resonance on floats
    model = calibrate_degenerate_angle(math.radians(10.0), 1.51)
    scenario = CrystalScenario(omega0=1.0, g=1e-4, l=100.0, dispersion=model)
    request = SweepRequest(scenario, (0.4, 0.6), 3, KINDS)
    calls = []
    original = getattr(sweep_mod, body)

    def spy(scenario, pairs, p):
        calls.append(type(p))
        return original(scenario, pairs, p)

    monkeypatch.setattr(sweep_mod, body, spy)
    compare_oracle(request, include_exact=False)
    assert calls == [float] * 6
    calls.clear()
    monkeypatch.setattr(kinematics_mod, "ARRAY_MIN", 1)
    compare_oracle(request, include_exact=False)
    assert calls == [np.ndarray]


def _models():
    table = calibrate_degenerate_angle(math.radians(10.0), 1.51)
    return {
        "tabulated": table,
        "tabulated-curved": DispersionModel.tabulated(
            [0.1, 0.4, 0.9, 1.3, 2.0], [2.9, 2.5, 2.45, 2.2, 2.21]),
        "constant": DispersionModel.constant(1.5, band=(0.2, 3.0)),
    }


@pytest.mark.parametrize("name", sorted(_models()))
@given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=30))
@settings(max_examples=40, deadline=None)
def test_mu_on_floats_and_lists_matches_the_array_bits(name, fractions):
    model = _models()[name]
    lo, hi = model.band
    knots = model.parameters.get("omegas", [])
    points = [lo, hi, *knots, *(math.nextafter(k, math.inf) for k in knots[:-1]),
              *(math.nextafter(k, -math.inf) for k in knots[1:]),
              *(lo + f * (hi - lo) for f in fractions)]
    points = [min(max(w, lo), hi) for w in points]
    on_array = model.mu(np.array(points))
    on_list = model.mu(points)
    assert isinstance(on_list, list) and all(type(v) is float for v in on_list)
    assert _same_bits(on_array, np.array(on_list))
    for w, want in zip(points, on_array.tolist()):
        got = model.mu(w)
        assert type(got) is float and got.hex() == want.hex(), w


def test_mu_refuses_out_of_band_lists_like_arrays():
    model = DispersionModel.constant(1.2, band=(0.1, 2.0))
    for omega in ([0.5, 3.0, 0.05], np.array([0.5, 3.0, 0.05])):
        with pytest.raises(OutOfBandError, match=r"^frequency 3\.0 outside dispersion "
                                                 r"band \[0\.1, 2\] \(2 of 3 outside\)$"):
            model.mu(omega)


# ---------------------------------------------------------------------------
# non-finite and overflowing inputs reach no arithmetic
# ---------------------------------------------------------------------------
@pytest.fixture
def reference():
    model = calibrate_degenerate_angle(math.radians(10.0), 1.51)
    return CrystalScenario(omega0=1.0, g=1e-4, l=100.0, dispersion=model)


@pytest.mark.parametrize("omega,pdc_error,puc_error", [
    (math.inf, GeometryError, OutOfBandError),
    (-math.inf, GeometryError, GeometryError),
    (math.nan, OutOfBandError, OutOfBandError),
    (1e308, GuardBandError, GuardBandError),  # an integer multiple of omega0
])
def test_non_finite_omega_is_a_typed_error_without_warnings(reference, omega, pdc_error,
                                                            puc_error):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(pdc_error):
            pdc_resonance(reference, omega)
        with pytest.raises(puc_error):
            puc_resonance(reference, omega)


@pytest.mark.parametrize("array_min", [1, 10**9])  # on arrays, then on floats
def test_grid_with_non_finite_omegas_is_finite_without_warnings(reference, monkeypatch,
                                                                array_min):
    monkeypatch.setattr(kinematics_mod, "ARRAY_MIN", array_min)
    omegas = [0.4, math.inf, -math.inf, math.nan, 1e308, -1e308, 1e154, 3e307]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        grid = _resonance_grid(reference, omegas, KINDS)
    # the partner omega0 -+ omega of a non-finite omega is not finite either
    sign = np.array([[1.0], [-1.0]])
    assert np.array_equal(grid.partner, 1.0 - sign * grid.omega, equal_nan=True)
    for name in _GRID_FIELDS[1:]:
        assert np.all(np.isfinite(getattr(grid, name))), name
    reasons = [[SKIP_REASONS[code] for code in row] for row in grid.status.tolist()]
    assert reasons == [
        ["ok", "geometry", "geometry", "out_of_band", "guard_band", "geometry",
         "guard_band", "guard_band"],
        ["ok", "out_of_band", "geometry", "out_of_band", "guard_band", "geometry",
         "guard_band", "guard_band"],
    ]


def test_sweep_over_a_band_reaching_1e308_warns_nothing(capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["sweep", "--theta-d-deg", "10", "--mu2", "1.51", "--samples", "3",
                     "--band", "0.3", "1e308", "--kind", "both"])
    assert code == 0
    out, err = capsys.readouterr()
    assert err == "" and out.count("\n") == 7


# ---------------------------------------------------------------------------
# a skipped element's arithmetic neither refuses the table nor leaks NaN
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("samples", ["5", "21"])  # tables below and above ARRAY_MIN
def test_far_detuned_sweep_is_all_evanescent(capsys, samples):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["sweep", "--theta-d-deg", "10", "--mu2", "1.51", "--samples", samples,
                     "--kind", "both", "--detuning", "1e300"])
    assert code == EMPTY_EXIT
    assert capsys.readouterr().err.startswith("pumpslab: no valid samples in sweep: "
                                              "{'evanescent': ")


@pytest.mark.parametrize("call", [
    lambda s, res, p: epsilon_roots(s, res, p=p),
    lambda s, res, p: channel_report(s, res.omega, res.kind, p=p),
], ids=["epsilon_roots", "channel_report"])
def test_nan_working_p_is_a_geometry_error(reference, call):
    res = pdc_resonance(reference, 0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(GeometryError, match=r"^working p=nan is not a number$"):
            call(reference, res, math.nan)
        with pytest.raises(GeometryError, match=r"^working p=-0\.01 is negative$"):
            call(reference, res, -0.01)


@pytest.mark.parametrize("call", [
    lambda s, res, p: epsilon_roots(s, res, p=p),
    lambda s, res, p: channel_report(s, res.omega, res.kind, p=p),
], ids=["epsilon_roots", "channel_report"])
@pytest.mark.parametrize("p", [math.inf, 1e300])
def test_infinite_working_p_is_evanescent(reference, call, p):
    res = pdc_resonance(reference, 0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(EvanescentError, match=re.escape(f"working p={p:g} is evan")):
            call(reference, res, p)


@pytest.mark.parametrize("phases", [0, -3, 2.0, True])
def test_thickness_average_needs_a_positive_integer_phase_count(phases):
    model = calibrate_degenerate_angle(math.radians(10.0), 1.51)
    scenario = CrystalScenario(omega0=1.0, g=1e-5, l=2800.0, dispersion=model)
    res = pdc_resonance(scenario, 0.45)
    with pytest.raises(ValueError, match=f"^phases must be a positive integer, "
                                         f"got {phases!r}$"):
        thickness_averaged_intensities(scenario, res, phases=phases)
    assert thickness_averaged_intensities(scenario, res, phases=1)["cond"] > 0.0
