"""Error taxonomy shared across the package.

Every deliberate failure raises a subclass of DcxError so the CLI can map
library errors to one exit code and callers can catch one base class.
"""


class DcxError(Exception):
    """Base class for every error this package raises on purpose."""


class DegenerateInput(DcxError, ValueError):
    """Input carries no usable signal (empty, all-zero, single point)."""


class InvalidValue(DcxError, ValueError):
    """A value violates the operation's domain (negative mass, zero factor)."""


class InvalidDistribution(DcxError, ValueError):
    """Probabilities outside [0, 1] or not summing to 1."""


class InvalidParameter(DcxError, ValueError):
    """A parameter is outside its documented range."""


class InvalidAction(DcxError, ValueError):
    """An action index outside the variant's action set."""


class FormatError(DcxError, ValueError):
    """Structurally malformed input: bad magic, bad schema, bad row."""


class TruncatedInput(DcxError, ValueError):
    """Input ends before its declared payload is complete."""


class ResourceLimit(DcxError, RuntimeError):
    """Refused work that would blow a guarded budget (enumeration cells,
    cart-pole array bytes)."""
