"""CrystalScenario construction: every refusal of its inputs."""
import math
import warnings

import pytest

from pumpslab import CrystalScenario, DispersionModel

MODEL = DispersionModel.constant(1.5)


@pytest.mark.parametrize("changes, message", [
    ({"omega0": 0.0}, "pump frequency omega0 must be finite and positive"),
    ({"omega0": -1.0}, "pump frequency omega0 must be finite and positive"),
    ({"omega0": math.nan}, "pump frequency omega0 must be finite and positive"),
    ({"omega0": math.inf}, "pump frequency omega0 must be finite and positive"),
    ({"g": -1e-4}, "coupling g must be finite and non-negative"),
    ({"g": math.nan}, "coupling g must be finite and non-negative"),
    ({"g": math.inf}, "coupling g must be finite and non-negative"),
    ({"l": 0.0}, "thickness l must be finite and positive"),
    ({"l": -100.0}, "thickness l must be finite and positive"),
    ({"l": math.nan}, "thickness l must be finite and positive"),
    ({"l": math.inf}, "thickness l must be finite and positive"),
    ({"guard_width": -0.01}, "guard_width must lie in"),
    ({"guard_width": 0.5}, "guard_width must lie in"),
    ({"guard_width": math.nan}, "guard_width must lie in"),
])
def test_invalid_inputs_refused(changes, message):
    inputs = dict(omega0=1.0, g=1e-4, l=100.0, dispersion=MODEL) | changes
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # refused before any numpy warning
        with pytest.raises(ValueError, match=f"^{message}"):
            CrystalScenario(**inputs)


def test_range_edges_accepted():
    s = CrystalScenario(omega0=1.0, g=0.0, l=1e-300, dispersion=MODEL, guard_width=0.0)
    assert s.pump_wavenumber() == 1.5
