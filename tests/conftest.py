import math

import pytest
from hypothesis import settings

from pumpslab import CrystalScenario, DispersionModel, calibrate_degenerate_angle

# property tests must not flake on a loaded machine: no per-example
# deadline, and the same examples on every run
settings.register_profile("pumpslab", deadline=None, derandomize=True)
settings.load_profile("pumpslab")


@pytest.fixture
def reference():
    """Degenerate emission at 10 degrees, mu(omega0) = 1.51, weak coupling."""
    model = calibrate_degenerate_angle(math.radians(10.0), 1.51)
    return CrystalScenario(omega0=1.0, g=1e-4, l=100.0, dispersion=model)


@pytest.fixture
def vacuum():
    return CrystalScenario(
        omega0=2.0, g=0.0, l=100.0, dispersion=DispersionModel.constant(1.0)
    )


@pytest.fixture
def constant_index():
    return CrystalScenario(
        omega0=1.0, g=0.0, l=100.0, dispersion=DispersionModel.constant(1.5)
    )
