"""Error taxonomy shared across the package, and what every module checks
alike: count arguments (check_count), real-number arguments (check_real),
sizes in refusals (count_text), the one array budget, the one JSON,
text-file and bundled-file readers, the frozen Record base of every value
type, and the one decoder that builds descriptors, breakdowns and reports
by their Record annotations.

Every deliberate failure raises a subclass of DcxError so the CLI can map
library errors to one exit code and callers can catch one base class.
"""

import functools
import json
import math
import os
import types
import typing


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


def count_text(n: int) -> str:
    """A positive count in full up to 15 digits, else as 10^<log10>."""
    return str(n) if n < 10**15 else f"10^{math.log10(n):.3f}"


def check_budget(nbytes: int, work: str) -> None:
    """Raise ResourceLimit, naming work, when nbytes exceeds MEMORY_BUDGET."""
    if nbytes > MEMORY_BUDGET:
        gib = f"{nbytes / 2**30:.3g}" if nbytes < 2**1024 else count_text(nbytes >> 30)
        raise ResourceLimit(
            f"{work} needs about {gib} GiB of arrays, over the {MEMORY_BUDGET >> 30} GiB budget"
        )


def is_integer(v) -> bool:
    # a Python or numpy integer; numpy's bool_, like float, has no __index__
    return hasattr(type(v), "__index__") and not isinstance(v, bool)


def check_count(value, name: str, minimum: int = 1) -> int:
    """value as a Python int, whose arithmetic cannot wrap; InvalidParameter
    unless it is an integer (not a bool) of at least minimum."""
    if not (is_integer(value) and value >= minimum):
        raise InvalidParameter(f"{name} must be an integer of at least {minimum}")
    return int(value)


def check_real(value, name: str, minimum: float = -math.inf, *, above: bool = False) -> float:
    """value as a Python float; InvalidParameter unless it is a real number
    (not a bool), finite as a float (an integer past the float range is
    not), and at least minimum, or above it when above is set."""
    real = isinstance(value, float) or is_integer(value)
    if not real:  # numbers is imported only here, for a numpy float32 or a Fraction, say
        import numbers

        real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    try:
        number = float(value) if real else math.nan
    except OverflowError:
        number = math.inf
    if not (math.isfinite(number) and (number > minimum if above else number >= minimum)):
        bound = (f" above {minimum!r}" if above
                 else f" of at least {minimum!r}" if minimum > -math.inf else "")
        raise InvalidParameter(f"{name} must be a finite number{bound}")
    return number


def is_finite_number(value) -> bool:
    """An integer (not a bool) or float, finite as a float: what JSON holds."""
    if not (is_integer(value) or isinstance(value, float)):
        return False
    try:
        check_real(value, "a JSON number")
    except InvalidParameter:
        return False
    return True


# annotation -> (what a JSON value for it must be, test). tuple stands for
# tuple[T, ...] and dict for a nested Record. bool never passes as a
# number although it subclasses int.
_KINDS = {
    str: ("a string", lambda v: isinstance(v, str)),
    int: ("an integer", is_integer),
    float: ("a finite number", is_finite_number),
    bool: ("true or false", lambda v: isinstance(v, bool)),
    type(None): ("null", lambda v: v is None),
    tuple: ("a list", lambda v: isinstance(v, list)),
    dict: ("an object", lambda v: isinstance(v, dict)),
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


def read_text(path) -> str:
    """The text of the UTF-8 file at path; FormatError naming it if not UTF-8."""
    try:
        with open(path, encoding="utf-8") as file:
            return file.read()
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path} is not UTF-8 text: {exc.reason} at byte {exc.start}") from exc


def bundled_text(name: str) -> str:
    """The text of the package's data/<name>, read by this module's loader, so
    a plain directory and a zipped install read alike."""
    path = os.path.join(os.path.dirname(__file__), "data", name)
    return __loader__.get_data(path).decode("utf-8")


class Factory:
    """A field default made afresh for each object: `stamp: str = Factory(now)`."""

    def __init__(self, make):
        self.make = make


class Record:
    """Base of the package's frozen value types, built without generated code.

    A subclass's fields are its annotated names, in order; a class
    attribute gives a field's default. The constructor takes fields by
    position or keyword, then runs __post_init__, which may normalize a
    field with object.__setattr__; nothing else can assign or delete one.
    == and hash go by the fields, unless the subclass is declared with
    eq=False, which keeps identity.
    """

    def __init_subclass__(cls, eq: bool = True) -> None:
        super().__init_subclass__()
        cls._fields = tuple(cls.__annotations__)
        cls._defaults = {name: vars(cls)[name] for name in cls._fields if name in vars(cls)}
        if not eq:
            cls.__eq__, cls.__hash__ = object.__eq__, object.__hash__

    def __init__(self, *args, **kwargs) -> None:
        cls = type(self)
        values = dict(zip(cls._fields, args))
        bad = (len(args) > len(cls._fields) or values.keys() & kwargs.keys()
               or kwargs.keys() - set(cls._fields))
        values.update(kwargs)
        if bad or any(name not in values for name in cls._fields if name not in cls._defaults):
            raise TypeError(f"{cls.__name__} takes each of {cls._fields} once, "
                            "and those without a default are required")
        for name, default in cls._defaults.items():
            if name not in values:
                values[name] = default.make() if isinstance(default, Factory) else default
        self.__dict__.update(values)
        self.__post_init__()

    def __post_init__(self) -> None:
        pass

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is frozen: {name!r} cannot change")

    __delattr__ = __setattr__

    def _values(self) -> tuple:
        return tuple(self.__dict__[name] for name in self._fields)

    def __eq__(self, other):
        return self._values() == other._values() if type(other) is type(self) else NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={self.__dict__[name]!r}" for name in self._fields)
        return f"{type(self).__qualname__}({body})"


def replace(record: Record, **changes) -> Record:
    """A new record with changes applied; its __post_init__ checks them."""
    return type(record)(**dict(zip(record._fields, record._values()), **changes))


def asdict(value):
    """value with every record in it, through tuples and lists, as a dict
    of its fields."""
    if isinstance(value, Record):
        return {name: asdict(value.__dict__[name]) for name in value._fields}
    if isinstance(value, (tuple, list)):
        return type(value)(asdict(v) for v in value)
    return value


def _is_record(tp) -> bool:
    # type(), not isinstance(): Python 3.10 counts tuple[int, ...] a type
    return type(tp) is type and issubclass(tp, Record)


@functools.cache
def _fields(cls) -> tuple[tuple[str, object, bool], ...]:
    """(name, resolved annotation, has a default) for each field of cls."""
    hints = typing.get_type_hints(cls)
    return tuple((name, hints[name], name in cls._defaults) for name in cls._fields)


def _kind(tp) -> tuple[str, object]:
    return _KINDS[dict if _is_record(tp) else typing.get_origin(tp) or tp]


def _decode(tp, value, where: str, all_required: bool):
    options = (
        typing.get_args(tp)
        if typing.get_origin(tp) in (typing.Union, types.UnionType)
        else (tp,)
    )
    for option in options:
        if _kind(option)[1](value):
            break
    else:
        kinds = " or ".join(_kind(option)[0] for option in options)
        raise FormatError(f"{where} must be {kinds}, got {type(value).__name__}")
    if _is_record(option):
        return from_mapping(option, value, where, all_required=all_required)
    if typing.get_origin(option) is tuple:
        item = typing.get_args(option)[0]
        return tuple(
            _decode(item, v, f"{where}[{i}]", all_required) for i, v in enumerate(value)
        )
    return value


def from_mapping(cls, raw, where: str, *, all_required: bool = False, extra=None):
    """Build Record cls from the parsed JSON object raw, decoding each key
    by its field's annotation: str, int, float (finite), bool, None,
    tuple[T, ...] from a list, a nested Record from an object, or a union
    of these.

    A key whose field has a default may be left out unless all_required
    is set. extra maps further keys raw may carry to their annotation;
    they are checked, then dropped. Any other key, a missing key or a
    wrong JSON type raises FormatError naming the full path from where;
    range checks are left to the constructors.
    """
    if not isinstance(raw, dict):
        raise FormatError(f"{where}: expected an object")
    fields = _fields(cls)
    extra = extra or {}
    unknown = set(raw) - {name for name, _, _ in fields} - set(extra)
    if unknown:
        raise FormatError(f"{where}: unknown keys {sorted(unknown)}")
    missing = {
        name for name, _, has_default in fields if all_required or not has_default
    } - set(raw)
    if missing:
        raise FormatError(f"{where}: missing keys {sorted(missing)}")
    for key, tp in extra.items():
        if key in raw:
            _decode(tp, raw[key], f"{where}.{key}", all_required)
    return cls(**{
        name: _decode(tp, raw[name], f"{where}.{name}", all_required)
        for name, tp, _ in fields
        if name in raw
    })
