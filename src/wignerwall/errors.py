"""Exception hierarchy and the run-time guard table.

Two families matter for the CLI exit-code contract: validation problems
(bad configuration or arguments, exit code 2) and numerical guards that
fire at run time (exit code 3).

Every run-time threshold is one entry of ``GUARDS``, checked by one
``guard`` call at its site; each call appends its reading to the record
that ``RECORD`` holds, when one is open.
"""

from contextvars import ContextVar


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


# name: (threshold, whether a reading equal to it fires, the class raised
# (None: the message is returned), message template); a template's names
# are reading, threshold, scale and the keyword fields of the guard call
GUARDS = {
    "shear_edge_mass": (1e-4, False, SupportEscaped, "post-shear edge mass {reading:.3e} "
                        "exceeds {threshold:g} of the field mass; the state left the window"),
    "plan_symmetry": (1e-6, False, ValidationError, "initial field breaks W(-x,-p) = W(x,p) "
                      "by {reading:.2e}; half-line plans require the odd-extended state"),
    "realness": (1e-10, False, RealnessViolation, "imaginary residue {reading:g} of "
                 "{transform}'s transform exceeds {threshold:g} of its peak |Re|, {scale:g}"),
    "transform_wave_edge": (1e-9, False, DomainTooSmall, "wave support reaches the axis ends; "
        "enlarge the axis or pass y_halfwidth for intentionally extended states"),
    "oracle_wave_edge": (1e-9, False, SupportEscaped, "{state} reaches the axis ends"),
    "packet_region": (1e-8, False, SupportEscaped, "{reading:.2e} of the packet's mass lies "
                      "outside the region ({a:g}, {b:g}) at t = 0"),
    "packet_window": (1e-8, False, SupportEscaped, "{reading:.2e} of the packet's momentum "
                      "density lies outside the window [{p_min:g}, {p_max:g}]"),
    "naive_wall_mass": (1e-8, False, ValidationError,
                        "naive evolution expects an initial field vanishing for x <= 0"),
    "box_truncation": (1e-6, False, TruncationTooSevere,
                       "n_max = {n_max} reconstruction error {reading:g} exceeds 1e-6"),
    "box_norm": (1e-9, True, ValidationError, "coefficient norm^2 = {n2!r}, not 1 within 1e-9"),
    "l2_rel": (1e-2, True, None, "l2_rel = {reading:.3e} against the oracle is not below 1e-2"),
}

# the open record, a list of (name, reading, limit), or None; a caller opens
# one with token = RECORD.set([]) and closes it with RECORD.reset(token)
RECORD = ContextVar("wignerwall_guard_record", default=None)


def guard(name: str, reading: float, scale: float = 1.0, **fields) -> str | None:
    """Check ``reading`` against ``GUARDS[name]``'s threshold times
    ``scale``. It passes below that limit, or at it where equality does
    not fire; any other reading, a NaN included, fires. The reading is
    recorded first. A firing guard raises its class with its message, or
    returns the message when its class is None; a passing one returns
    None."""
    threshold, equal_fires, error, message = GUARDS[name]
    limit = threshold * scale
    if (record := RECORD.get()) is not None:
        record.append((name, reading, limit))
    if reading < limit or (reading == limit and not equal_fires):
        return None
    message = message.format(reading=reading, threshold=threshold, scale=scale, **fields)
    if error is None:
        return message
    raise error(message)
