"""Pumped-crystal scenario: pump frequency, coupling, thickness, dispersion."""
import math
import warnings
from dataclasses import dataclass, field

from .dispersion import DispersionModel
from .errors import ValidityWarning

DEFAULT_GUARD_WIDTH = 0.02
G_WARN_THRESHOLD = 1e-2  # couplings from here up warn


@dataclass(frozen=True)
class CrystalScenario:
    """Immutable description of one pumped slab.

    omega0: pump frequency (c = 1 units).
    g: effective dimensionless pump-nonlinearity coupling; the linearized
       model is only trustworthy for g << 1 and warns from G_WARN_THRESHOLD.
    l: slab thickness.
    dispersion: refractive-index model; omega0 must lie in its band.
    guard_width: frequencies within guard_width * omega0 of any multiple
       of omega0 are rejected by the kinematics layer.
    """

    omega0: float
    g: float
    l: float
    dispersion: DispersionModel
    guard_width: float = DEFAULT_GUARD_WIDTH
    _pump_wavenumber: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not 0.0 < self.omega0 < math.inf:
            raise ValueError(f"pump frequency omega0 must be finite and positive, "
                             f"got {self.omega0!r}")
        if not 0.0 <= self.g < math.inf:
            raise ValueError(f"coupling g must be finite and non-negative, got {self.g!r}")
        if not 0.0 < self.l < math.inf:
            raise ValueError(f"thickness l must be finite and positive, got {self.l!r}")
        if not 0.0 <= self.guard_width < 0.5:
            raise ValueError("guard_width must lie in [0, 0.5)")
        # raises OutOfBandError if omega0 lies outside the dispersion band
        k0 = self.omega0 * self.dispersion.mu(self.omega0)
        object.__setattr__(self, "_pump_wavenumber", k0)
        if self.g >= G_WARN_THRESHOLD:
            warnings.warn(
                f"coupling g={self.g:g} is at or above the validity "
                f"threshold {G_WARN_THRESHOLD:g}; linearized results "
                "may be unreliable",
                ValidityWarning,
                stacklevel=2,
            )

    def pump_wavenumber(self):
        """omega0 * mu(omega0), the pump's longitudinal wavenumber."""
        return self._pump_wavenumber
