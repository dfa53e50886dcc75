"""Error taxonomy shared across the package, the one JSON decoder and the
one key-and-type check that every parser of JSON input (descriptors,
breakdowns, reports) runs before it builds anything, and the one array
budget that cart-pole measures and dataset loads check before they
allocate.

Every deliberate failure raises a subclass of DcxError so the CLI can map
library errors to one exit code and callers can catch one base class.
"""

import json
import math


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
    array bytes)."""


# Largest working set, in bytes, a cart-pole measure or a dataset load may
# ask for. Fixed so that no result depends on the host; paper-scale work (a
# million 3d trials, 200k rollout samples, all 70,000 MNIST or 60,000
# CIFAR-10 images) stays under a tenth of it.
MEMORY_BUDGET = 2 << 30


def check_budget(nbytes: int, work: str) -> None:
    """Raise ResourceLimit, naming work, when nbytes exceeds MEMORY_BUDGET."""
    if nbytes > MEMORY_BUDGET:
        raise ResourceLimit(
            f"{work} needs about {nbytes / 2**30:.3g} GiB of arrays, over the "
            f"{MEMORY_BUDGET >> 30} GiB budget"
        )


def _integer(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _finite(value) -> bool:
    if not (_integer(value) or isinstance(value, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an integer beyond the float range
        return False


# kind -> (what a field of that kind must be, test). bool never passes as a
# number although it subclasses int. "any" marks a field that a later parse
# or constructor checks.
_FIELD_KINDS = {
    "str": ("a string", lambda v: isinstance(v, str)),
    "str?": ("a string or null", lambda v: v is None or isinstance(v, str)),
    "strs": (
        "a list of strings",
        lambda v: isinstance(v, list) and all(isinstance(s, str) for s in v),
    ),
    "int": ("an integer", _integer),
    "int?": ("an integer or null", lambda v: v is None or _integer(v)),
    "num": ("a finite number", _finite),
    "bool": ("true or false", lambda v: isinstance(v, bool)),
    "list": ("a list", lambda v: isinstance(v, list)),
    "any": ("anything", lambda v: True),
}


def load_json(text: str, what: str):
    """The value text encodes, or FormatError naming what when text is not
    JSON that Python can decode."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        # JSONDecodeError, an integer past the digit limit, or nesting past
        # the recursion limit
        raise FormatError(f"{what} is not valid JSON: {exc}") from exc


def check_fields(obj, where: str, required: dict, optional: dict | None = None) -> None:
    """Raise FormatError, naming where, unless obj is a JSON object whose
    keys all appear in required or optional, with every required key
    present and every present value of the kind its key maps to.
    """
    optional = optional or {}
    if not isinstance(obj, dict):
        raise FormatError(f"{where}: expected an object")
    unknown = set(obj) - set(required) - set(optional)
    if unknown:
        raise FormatError(f"{where}: unknown keys {sorted(unknown)}")
    missing = set(required) - set(obj)
    if missing:
        raise FormatError(f"{where}: missing keys {sorted(missing)}")
    for key, kind in (required | optional).items():
        description, accepts = _FIELD_KINDS[kind]
        if key in obj and not accepts(obj[key]):
            raise FormatError(
                f"{where}: {key} must be {description}, got {type(obj[key]).__name__}"
            )
