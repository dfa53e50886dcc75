"""Declarative environment-space arithmetic over domain descriptors.

A descriptor lists countable components of a domain (board positions,
ownership states, physical parameter ranges) tagged by whether they define
a world state or a game instance. All products are taken in log10 space or
exact integers, so astronomically large counts never materialize as floats.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from importlib import resources
from pathlib import Path

from .errors import DegenerateInput, FormatError, InvalidParameter, check_fields
from .measures import (
    ANALYTIC,
    MeasureResult,
    Power,
    gtc_power,
    log10_int,
    normalized_entropy,
)

HIERARCHY_LEVELS = (
    "object",
    "agent",
    "action",
    "relation",
    "interaction",
    "rule",
    "goal",
    "event",
)

ROLES = ("state", "instance")

BUNDLED_DESCRIPTORS = ("cartpole2d", "cartpole2d-g", "cartpole3d", "monopoly", "pogo")


def _cardinality_log10(cardinality: int | Power) -> float:
    if isinstance(cardinality, Power):
        return cardinality.log10()
    return log10_int(cardinality)


@dataclass(frozen=True)
class Component:
    """One countable factor of a domain.

    role "state" components multiply into the state space; role "instance"
    components multiply into the space of game instances. Components marked
    estimate carry guessed cardinalities and stay out of computed sums.
    """

    name: str
    cardinality: int | Power
    role: str
    hierarchy_level: str | None = None
    estimate: bool = False
    note: str | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise InvalidParameter("component name must be non-empty")
        if self.role not in ROLES:
            raise InvalidParameter(f"component role must be one of {ROLES}")
        if self.hierarchy_level is not None and self.hierarchy_level not in HIERARCHY_LEVELS:
            raise InvalidParameter(
                f"hierarchy_level must be one of {HIERARCHY_LEVELS}"
            )
        if isinstance(self.cardinality, Power):
            return
        if isinstance(self.cardinality, bool) or not isinstance(self.cardinality, int):
            raise InvalidParameter("cardinality must be an integer or a Power")
        if self.cardinality < 1:
            raise InvalidParameter("cardinality must be at least 1")

    def log10(self) -> float:
        return _cardinality_log10(self.cardinality)


@dataclass(frozen=True)
class DomainDescriptor:
    """A named domain plus its countable components and tree parameters."""

    name: str
    branching_factor: int
    avg_game_length: int
    max_game_length: int
    components: tuple[Component, ...]
    initial_state_count: int | Power | None = None
    notes: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        for field_name in ("branching_factor", "avg_game_length", "max_game_length"):
            value = getattr(self, field_name)
            if isinstance(value, bool) or not isinstance(value, int) or value < 1:
                raise InvalidParameter(f"{field_name} must be a positive integer")
        if self.avg_game_length > self.max_game_length:
            raise InvalidParameter("avg_game_length cannot exceed max_game_length")

    def state_components(self) -> tuple[Component, ...]:
        return tuple(c for c in self.components if c.role == "state")

    def instance_components(self) -> tuple[Component, ...]:
        return tuple(c for c in self.components if c.role == "instance")


def _parse_cardinality(raw, where: str) -> int | Power:
    if isinstance(raw, dict):
        check_fields(raw, f"{where}: cardinality", {"base": "int", "exp": "int"})
        return Power(base=raw["base"], exp=raw["exp"])
    if isinstance(raw, bool) or not isinstance(raw, int):
        raise FormatError(f"{where}: cardinality must be an integer or base/exp pair")
    return raw


_COMPONENT_FIELDS = {"name": "str", "cardinality": "any", "role": "str"}
_COMPONENT_OPTIONAL = {"hierarchy_level": "str?", "estimate": "bool", "note": "str?"}
_DESCRIPTOR_FIELDS = {
    "name": "str",
    "branching_factor": "any",
    "avg_game_length": "any",
    "max_game_length": "any",
    "components": "list",
}
_DESCRIPTOR_OPTIONAL = {"initial_state_count": "any", "notes": "strs"}


def _parse_component(raw, index: int) -> Component:
    where = f"components[{index}]"
    check_fields(raw, where, _COMPONENT_FIELDS, _COMPONENT_OPTIONAL)
    return Component(**{**raw, "cardinality": _parse_cardinality(raw["cardinality"], where)})


def descriptor_from_mapping(obj: dict) -> DomainDescriptor:
    """Build a descriptor from parsed JSON, rejecting unknown keys."""
    check_fields(obj, "descriptor", _DESCRIPTOR_FIELDS, _DESCRIPTOR_OPTIONAL)
    components = tuple(
        _parse_component(raw, i) for i, raw in enumerate(obj["components"])
    )
    initial = obj.get("initial_state_count")
    if initial is not None:
        initial = _parse_cardinality(initial, "initial_state_count")
    return DomainDescriptor(
        name=obj["name"],
        branching_factor=obj["branching_factor"],
        avg_game_length=obj["avg_game_length"],
        max_game_length=obj["max_game_length"],
        components=components,
        initial_state_count=initial,
        notes=tuple(obj.get("notes", [])),
    )


def load_descriptor(path: str | Path) -> DomainDescriptor:
    """Parse a descriptor JSON file with strict schema checking."""
    text = Path(path).read_text(encoding="utf-8")
    try:
        obj = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an integer past the digit limit
        raise FormatError(f"descriptor is not valid JSON: {exc}") from exc
    return descriptor_from_mapping(obj)


def bundled_descriptor(name: str) -> DomainDescriptor:
    """Load one of the descriptors shipped with the package."""
    if name not in BUNDLED_DESCRIPTORS:
        raise InvalidParameter(
            f"unknown bundled descriptor {name!r}; choose from {BUNDLED_DESCRIPTORS}"
        )
    ref = resources.files("dcx").joinpath(f"data/{name}.json")
    with resources.as_file(ref) as path:
        return load_descriptor(path)


def state_space_complexity(descriptor: DomainDescriptor) -> float:
    """Sum of log10 cardinalities over firm state-role components."""
    firm = [c for c in descriptor.state_components() if not c.estimate]
    if not descriptor.state_components():
        raise DegenerateInput("descriptor has no state components")
    return sum(c.log10() for c in firm)


def estimated_slack_log10(descriptor: DomainDescriptor) -> float:
    """Extra log10 contributed by estimate-marked components, reported apart."""
    return sum(c.log10() for c in descriptor.components if c.estimate)


def environment_space_bound(descriptor: DomainDescriptor) -> float:
    """State-space arithmetic reported as a lower bound on environment states.

    Estimate-marked components are excluded here too; their contribution is
    available through estimated_slack_log10 so reports can label it.
    """
    return state_space_complexity(descriptor)


def game_space_complexity(
    descriptor: DomainDescriptor, include_initial_states: bool = True
) -> float:
    """Sum of log10 cardinalities over instance-role components.

    With include_initial_states the initial-state factor is added: the
    descriptor's explicit initial_state_count when present, otherwise the
    state-space complexity.
    """
    instance = [c for c in descriptor.instance_components() if not c.estimate]
    if not descriptor.instance_components():
        raise DegenerateInput("descriptor has no instance components")
    total = sum(c.log10() for c in instance)
    if include_initial_states:
        if descriptor.initial_state_count is not None:
            total += _cardinality_log10(descriptor.initial_state_count)
        else:
            total += state_space_complexity(descriptor)
    return total


def tree_complexity(descriptor: DomainDescriptor, mode: str = "uniform_sum") -> float:
    """Game-tree complexity, exact geometric sum or plain power form.

    uniform_sum: log10 of the exact integer sum of b^i for i = 1..max
    (games may end at any tick). power: avg_game_length * log10(b).
    """
    b = descriptor.branching_factor
    if b < 2:
        raise InvalidParameter("tree complexity needs branching_factor >= 2")
    if mode == "uniform_sum":
        total = (b ** (descriptor.max_game_length + 1) - b) // (b - 1)
        return log10_int(total)
    if mode == "power":
        return gtc_power(b, descriptor.avg_game_length)
    raise InvalidParameter(f"unknown tree complexity mode {mode!r}")


@dataclass(frozen=True)
class BreakdownElement:
    """One element of a world state: how many entities, and the units of
    information needed to pin each one down."""

    name: str
    count: int
    units: int

    def __post_init__(self) -> None:
        for field_name in ("count", "units"):
            value = getattr(self, field_name)
            if isinstance(value, bool) or not isinstance(value, int) or value < 1:
                raise InvalidParameter(f"{field_name} must be a positive integer")

    @property
    def weight(self) -> int:
        return self.count * self.units


@dataclass(frozen=True)
class InformationBreakdown:
    elements: tuple[BreakdownElement, ...]

    def weights(self) -> tuple[int, ...]:
        return tuple(e.weight for e in self.elements)


def breakdown_from_mapping(obj: dict) -> InformationBreakdown:
    check_fields(obj, "breakdown", {"elements": "list"})
    elements = []
    for i, raw in enumerate(obj["elements"]):
        check_fields(raw, f"elements[{i}]", {"name": "str", "count": "any", "units": "any"})
        elements.append(BreakdownElement(**raw))
    return InformationBreakdown(elements=tuple(elements))


def load_breakdown(path: str | Path) -> InformationBreakdown:
    text = Path(path).read_text(encoding="utf-8")
    try:
        obj = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an integer past the digit limit
        raise FormatError(f"breakdown is not valid JSON: {exc}") from exc
    return breakdown_from_mapping(obj)


def bundled_breakdown(name: str) -> InformationBreakdown:
    ref = resources.files("dcx").joinpath(f"data/{name}_breakdown.json")
    if not ref.is_file():
        raise InvalidParameter(f"no bundled breakdown named {name!r}")
    with resources.as_file(ref) as path:
        return load_breakdown(path)


def information_entropy(breakdown: InformationBreakdown) -> MeasureResult:
    """Normalized entropy of the per-element information weights.

    Weight of an element is entity_count * units_per_entity; events are the
    elements themselves.
    """
    n = len(breakdown.elements)
    if n < 2:
        raise DegenerateInput("information entropy needs at least two elements")
    weights = breakdown.weights()
    total = sum(weights)
    value = normalized_entropy([w / total for w in weights], event_count=n)
    return MeasureResult(
        measure_name="information_entropy",
        value=value,
        convention=(
            "weights = entity_count * units_per_entity, normalized; "
            f"event_count = {n} elements"
        ),
        provenance=ANALYTIC,
    )


def strategy_entropy(win_probabilities) -> MeasureResult:
    """Normalized entropy of a win-probability vector over the players."""
    probs = list(win_probabilities)
    value = normalized_entropy(probs, event_count=len(probs))
    return MeasureResult(
        measure_name="strategy_entropy",
        value=value,
        convention=f"win probabilities; event_count = {len(probs)} players",
        provenance=ANALYTIC,
    )


def descriptor_measures(
    d: DomainDescriptor, breakdown: InformationBreakdown | None = None
) -> tuple[list[MeasureResult], list[str]]:
    """The descriptor report's measures and notes; a breakdown adds the
    information entropy."""
    measures = [
        MeasureResult(
            "state_space_complexity_log10",
            state_space_complexity(d),
            "sum of log10 cardinalities over firm state components",
            ANALYTIC,
        ),
        MeasureResult(
            "environment_space_bound_log10",
            environment_space_bound(d),
            "state-space arithmetic read as a bound on raw environment states",
            ANALYTIC,
        ),
    ]
    notes = list(d.notes)
    slack = estimated_slack_log10(d)
    if slack:
        measures.append(
            MeasureResult(
                "estimated_slack_log10",
                slack,
                "log10 contributed by estimate-marked components, kept out of firm sums",
                ANALYTIC,
            )
        )
        notes.append(
            "estimate-marked components are reported separately as "
            "estimated_slack_log10 and excluded from the firm sums"
        )
    if d.instance_components():
        measures.append(
            MeasureResult(
                "game_space_complexity_log10",
                game_space_complexity(d, include_initial_states=True),
                "sum over instance components plus the initial-state factor",
                ANALYTIC,
            )
        )
    if d.branching_factor >= 2:
        measures += [
            MeasureResult(
                "tree_complexity_uniform_sum_log10",
                tree_complexity(d, "uniform_sum"),
                "log10 of the exact sum of b^i for i = 1..max_game_length",
                ANALYTIC,
            ),
            MeasureResult(
                "tree_complexity_power_log10",
                tree_complexity(d, "power"),
                "avg_game_length * log10(branching_factor)",
                ANALYTIC,
            ),
        ]
    for field_name in ("branching_factor", "avg_game_length"):
        measures.append(
            MeasureResult(field_name, float(getattr(d, field_name)), "descriptor field", ANALYTIC)
        )
    if breakdown is not None:
        measures.append(information_entropy(breakdown))
    if d.name == "monopoly":
        for strategy, probabilities in (
            ("railroads", [0.8, 0.2 / 3, 0.2 / 3, 0.2 / 3]),
            ("boardwalk", [0.5, 1 / 6, 1 / 6, 1 / 6]),
        ):
            result = strategy_entropy(probabilities)
            measures.append(replace(result, measure_name=f"strategy_entropy_{strategy}"))
        notes.append(
            "strategy entropies assume one advantaged player (80% or 50% win "
            "chance) with the rest split evenly"
        )
    return measures, notes


def path_sparsity_bound(
    required_moves: tuple[int, int], extra_actions: int, branching: int
) -> tuple[int, float, float]:
    """Closed-form sparsity of a task needing a fixed multiset of moves.

    With a moves of one kind and b of another, any interleaving works, so
    C(a+b, a) paths succeed. The path runs a + b + 1 + extra_actions steps
    (the final step completes the task) over branching choices each. Returns
    (successful_paths, total_paths_log10, sparsity_log10).
    """
    a, b = required_moves
    for label, value in (("required move counts", a), ("required move counts", b)):
        if isinstance(value, bool) or not isinstance(value, int) or value < 0:
            raise InvalidParameter(f"{label} must be non-negative integers")
    if a + b < 1:
        raise InvalidParameter("at least one required move is needed")
    if isinstance(extra_actions, bool) or not isinstance(extra_actions, int) or extra_actions < 0:
        raise InvalidParameter("extra_actions must be a non-negative integer")
    if not isinstance(branching, int) or branching < 2:
        raise InvalidParameter("branching must be an integer >= 2")
    successful = math.comb(a + b, a)
    length = a + b + 1 + extra_actions
    total_log10 = length * math.log10(branching)
    return successful, total_log10, log10_int(successful) - total_log10
