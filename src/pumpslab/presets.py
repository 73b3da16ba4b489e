"""Ready-made calibrated scenarios used by the demos and tests."""
import math

from .dispersion import calibrate_degenerate_angle
from .scenario import CrystalScenario


def reference_scenario(g=1e-4, l=100.0, theta_d_deg=10.0, mu2=1.51, omega0=1.0):
    """Degenerate emission calibrated to theta_d (10 degrees by default)."""
    dispersion = calibrate_degenerate_angle(
        math.radians(theta_d_deg), mu2, omega0=omega0
    )
    return CrystalScenario(omega0=omega0, g=g, l=l, dispersion=dispersion)


def blue_red_scenario(g=1e-4, l=100.0, omega0=1.0):
    """Stronger dispersion so the red/blue pair at 0.4/0.6 omega0 shows a
    photon-flux imbalance near 1.03."""
    return reference_scenario(g=g, l=l, theta_d_deg=15.0, mu2=1.51, omega0=omega0)
