"""Declarative environment-space arithmetic over domain descriptors.

A descriptor lists countable components of a domain (board positions,
ownership states, physical parameter ranges) tagged by whether they define
a world state or a game instance. All products are taken in log10 space or
exact integers, so astronomically large counts never materialize as floats.
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

from .errors import (
    DegenerateInput,
    InvalidParameter,
    Record,
    bundled_text,
    check_count,
    from_mapping,
    load_json,
    read_text,
    replace,
)
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
BUNDLED_BREAKDOWNS = ("pogo",)


def _cardinality_log10(cardinality: int | Power) -> float:
    if isinstance(cardinality, Power):
        return cardinality.log10()
    return log10_int(cardinality)


class Component(Record):
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
        if not isinstance(self.cardinality, Power):  # stored as the Python int
            object.__setattr__(self, "cardinality", check_count(self.cardinality, "cardinality"))

    def log10(self) -> float:
        return _cardinality_log10(self.cardinality)


class DomainDescriptor(Record):
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
            value = check_count(getattr(self, field_name), field_name)
            object.__setattr__(self, field_name, value)
            if value > sys.float_info.max:
                raise InvalidParameter(f"{field_name} is past the float range")
        if self.avg_game_length > self.max_game_length:
            raise InvalidParameter("avg_game_length cannot exceed max_game_length")
        count = self.initial_state_count
        if count is not None and not isinstance(count, Power):
            object.__setattr__(self, "initial_state_count", check_count(count, "initial_state_count"))

    def state_components(self) -> tuple[Component, ...]:
        return tuple(c for c in self.components if c.role == "state")

    def instance_components(self) -> tuple[Component, ...]:
        return tuple(c for c in self.components if c.role == "instance")


def descriptor_from_mapping(obj: dict) -> DomainDescriptor:
    """Build a descriptor from parsed JSON, rejecting unknown keys."""
    return from_mapping(DomainDescriptor, obj, "descriptor")


def load_descriptor(path: str | Path) -> DomainDescriptor:
    """Parse a descriptor JSON file with strict schema checking."""
    return descriptor_from_mapping(load_json(read_text(path), "descriptor"))


def _bundled_json(name: str, names: tuple[str, ...], kind: str, filename: str):
    """Parsed data/<filename>; InvalidParameter unless name is one of names."""
    if name not in names:
        raise InvalidParameter(f"unknown bundled {kind} {name!r}; choose from {names}")
    return load_json(bundled_text(filename), kind)


def bundled_descriptor(name: str) -> DomainDescriptor:
    """Load one of the descriptors shipped with the package."""
    return descriptor_from_mapping(
        _bundled_json(name, BUNDLED_DESCRIPTORS, "descriptor", f"{name}.json"))


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


# Size, in bits, past which uniform_sum stops forming b^(max + 1): the cost
# grows faster than the digits (b = 43 with a million plies took 0.4 s on a
# 2-vCPU x86-64 machine), while every bundled descriptor stays exact (pogo's
# 43^2001 is under 11k bits).
_EXACT_SUM_BITS = 1 << 16


def tree_complexity(descriptor: DomainDescriptor, mode: str = "uniform_sum") -> float:
    """Game-tree complexity, exact geometric sum or plain power form.

    uniform_sum: log10 of the sum of b^i for i = 1..max (games may end at
    any tick), exact in integers up to _EXACT_SUM_BITS and in logarithms
    past it. power: avg_game_length * log10(b).
    """
    b = descriptor.branching_factor
    if b < 2:
        raise InvalidParameter("tree complexity needs branching_factor >= 2")
    if mode == "uniform_sum":
        m = descriptor.max_game_length
        if (m + 1) * b.bit_length() <= _EXACT_SUM_BITS:
            return log10_int((b ** (m + 1) - b) // (b - 1))
        # log10 of b * (b^m - 1) / (b - 1); b^m is past 2^32000 here (b is
        # below 2^1024), so log10(1 - b^-m) rounds to 0 and is left out
        return (m + 1) * math.log10(b) - math.log10(b - 1)
    if mode == "power":
        return gtc_power(b, descriptor.avg_game_length)
    raise InvalidParameter(f"unknown tree complexity mode {mode!r}")


class BreakdownElement(Record):
    """One element of a world state: how many entities, and the units of
    information needed to pin each one down."""

    name: str
    count: int
    units: int

    def __post_init__(self) -> None:
        for field_name in ("count", "units"):
            object.__setattr__(self, field_name, check_count(getattr(self, field_name), field_name))

    @property
    def weight(self) -> int:
        return self.count * self.units


class InformationBreakdown(Record):
    elements: tuple[BreakdownElement, ...]

    def weights(self) -> tuple[int, ...]:
        return tuple(e.weight for e in self.elements)


def breakdown_from_mapping(obj: dict) -> InformationBreakdown:
    return from_mapping(InformationBreakdown, obj, "breakdown")


def load_breakdown(path: str | Path) -> InformationBreakdown:
    return breakdown_from_mapping(load_json(read_text(path), "breakdown"))


def bundled_breakdown(name: str) -> InformationBreakdown:
    """Load one of the information breakdowns shipped with the package."""
    return breakdown_from_mapping(
        _bundled_json(name, BUNDLED_BREAKDOWNS, "breakdown", f"{name}_breakdown.json"))


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
            MeasureResult(field_name, getattr(d, field_name), "descriptor field", ANALYTIC)
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
    a, b = (check_count(moves, "each required move count", 0) for moves in required_moves)
    if a + b < 1:
        raise InvalidParameter("at least one required move is needed")
    extra_actions = check_count(extra_actions, "extra_actions", 0)
    branching = check_count(branching, "branching", 2)
    successful = math.comb(a + b, a)
    length = a + b + 1 + extra_actions
    total_log10 = length * math.log10(branching)
    return successful, total_log10, log10_int(successful) - total_log10
