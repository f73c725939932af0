"""Exception hierarchy.

Two families matter for the CLI exit-code contract: validation problems
(bad configuration or arguments, exit code 2) and numerical guards that
fire at run time (exit code 3).
"""


class WignerWallError(Exception):
    """Base class for all package errors."""


class ValidationError(WignerWallError):
    """Bad input: configuration, arguments, or incompatible objects."""


class GridMismatch(ValidationError):
    """Fields or axes on incompatible grids were combined."""


class LengthMismatch(ValidationError):
    """Row operands of different lengths."""


class BadInterval(ValidationError):
    """Interval endpoints out of order or outside the grid."""


class EmptyInterior(ValidationError):
    """A billiard level set with no interior sample points."""


class AsymmetricIndicator(ValidationError):
    """An indicator slice that is not even in the separation variable."""


class BadSampling(ValidationError):
    """A y step not finite, positive and uniform, or a non-finite sample."""


class ConfigError(ValidationError):
    """Scenario configuration could not be parsed or validated."""


class NumericalGuardError(WignerWallError):
    """A runtime numerical guard fired."""


class SupportEscaped(NumericalGuardError):
    """State support reached the grid edge (mass would wrap or be lost)."""


class NyquistViolation(NumericalGuardError):
    """Requested momentum window exceeds the band representable by the axis."""


class DomainTooSmall(NumericalGuardError):
    """Wavefunction axis does not cover what the transform needs."""


class RealnessViolation(NumericalGuardError):
    """Imaginary residue of a nominally real transform exceeded tolerance."""


class TruncationTooSevere(NumericalGuardError):
    """Basis truncation cannot represent the requested state."""
