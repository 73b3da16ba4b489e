"""Exception hierarchy and warnings for pumpslab."""


class PumpslabError(Exception):
    """Base class for all pumpslab errors."""


class OutOfBandError(PumpslabError):
    """Frequency outside a dispersion model's validity band."""


class CalibrationError(PumpslabError):
    """Requested calibration target cannot be met by a physical index."""


class GuardBandError(PumpslabError):
    """Frequency too close to a multiple of the pump frequency."""


class EvanescentError(PumpslabError):
    """Transverse wavenumber too large; a longitudinal wavenumber is not real."""


class NoResonanceError(PumpslabError):
    """No phase-matching root in the scanned transverse-wavenumber bracket."""

    def __init__(self, message, bracket=None):
        super().__init__(message)
        self.bracket = bracket


class GeometryError(PumpslabError):
    """Angle or wavenumber request with no propagating-geometry solution."""


class DegenerateRootError(PumpslabError):
    """Two quartic roots, solved from their anchors, meet; the pair may at g = 0."""


class ConditioningError(PumpslabError):
    """Boundary-matching system too ill-conditioned to solve reliably.

    cond is the worst 1-norm condition number of the refused pair's
    systems, inf where one is singular or not finite.
    """

    def __init__(self, message, cond=None):
        super().__init__(message)
        self.cond = cond


class StrongGainError(PumpslabError):
    """Gain too strong for a float: sinc(xi)^2 of the coupled pair overflows."""


class UndefinedSplitError(PumpslabError):
    """A ratio of vanishing pump-induced quantities: the rainbow split
    without pump-induced excess, or a flux ratio with no partner flux."""


class SeriesDomainError(PumpslabError):
    """Multiple-reflection series does not converge for these coefficients."""


class SweepError(PumpslabError):
    """A frequency sweep produced no usable samples."""

    def __init__(self, message, skip_reasons=None):
        super().__init__(message)
        self.skip_reasons = skip_reasons or {}


class ValidityWarning(UserWarning):
    """Inputs outside the regime where the linearized model is trustworthy."""
