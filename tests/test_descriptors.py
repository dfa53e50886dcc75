"""Descriptor arithmetic: bundled case-study values, schema strictness, and
structural properties of the complexity sums."""

import json
import math
import re
import time

import pytest

from dcx import descriptors
from dcx.descriptors import (
    Component,
    DomainDescriptor,
    InformationBreakdown,
    BreakdownElement,
    breakdown_from_mapping,
    bundled_breakdown,
    bundled_descriptor,
    descriptor_from_mapping,
    environment_space_bound,
    estimated_slack_log10,
    game_space_complexity,
    information_entropy,
    load_descriptor,
    path_sparsity_bound,
    state_space_complexity,
    strategy_entropy,
    tree_complexity,
)
from dcx.errors import DegenerateInput, FormatError, InvalidParameter, replace
from dcx.measures import Power, gtc_power, log10_int


def minimal_mapping(**overrides) -> dict:
    base = {
        "name": "toy",
        "branching_factor": 3,
        "avg_game_length": 4,
        "max_game_length": 8,
        "components": [
            {"name": "pieces", "cardinality": 100, "role": "state"},
            {"name": "board_size", "cardinality": 10, "role": "instance"},
        ],
    }
    base.update(overrides)
    return base


class TestBundledCartpole:
    def test_planar_state_space(self):
        for name in ("cartpole2d", "cartpole2d-g"):
            d = bundled_descriptor(name)
            assert state_space_complexity(d) == pytest.approx(6.0, abs=1e-9)
            assert game_space_complexity(d) == pytest.approx(14.0, abs=1e-9)
            assert tree_complexity(d, "uniform_sum") == pytest.approx(30.4040, abs=1e-4)

    def test_spatial_state_space(self):
        d = bundled_descriptor("cartpole3d")
        assert state_space_complexity(d) == pytest.approx(24.0, abs=1e-9)
        assert game_space_complexity(d) == pytest.approx(27.2041, abs=1e-3)
        assert tree_complexity(d, "uniform_sum") == pytest.approx(60.3309, abs=1e-4)

    def test_game_space_without_initial_states(self):
        d = bundled_descriptor("cartpole2d")
        assert game_space_complexity(d, include_initial_states=False) == pytest.approx(
            8.0, abs=1e-9
        )


class TestBundledMonopoly:
    def test_component_magnitudes(self):
        d = bundled_descriptor("monopoly")
        by_name = {c.name: c for c in d.components}
        assert by_name["player_positions"].log10() == pytest.approx(
            math.log10(40**4)
        )
        assert 40**4 == 2_560_000
        ownership = 5**28
        assert abs(ownership - 3.73e19) / 3.73e19 < 0.01
        assert by_name["property_ownership"].log10() == pytest.approx(
            math.log10(ownership)
        )

    def test_state_space_total(self):
        d = bundled_descriptor("monopoly")
        total = state_space_complexity(d)
        assert total == pytest.approx(73.0327, abs=1e-3)
        assert total > 72

    def test_estimate_components_stay_out_of_firm_sums(self):
        d = bundled_descriptor("monopoly")
        assert estimated_slack_log10(d) == pytest.approx(8.0)
        firm = sum(c.log10() for c in d.state_components() if not c.estimate)
        assert state_space_complexity(d) == pytest.approx(firm)


class TestBundledPogo:
    def test_state_space(self):
        d = bundled_descriptor("pogo")
        assert state_space_complexity(d) == pytest.approx(60.0792, abs=1e-4)
        assert environment_space_bound(d) == state_space_complexity(d)

    def test_game_space_is_states_times_length_times_actions(self):
        d = bundled_descriptor("pogo")
        assert game_space_complexity(d) == pytest.approx(65.0137, abs=1e-4)
        expected = state_space_complexity(d) + math.log10(2000) + math.log10(43)
        assert game_space_complexity(d) == pytest.approx(expected)

    def test_tree_power(self):
        d = bundled_descriptor("pogo")
        assert tree_complexity(d, "power") == pytest.approx(816.7342, abs=1e-4)
        assert tree_complexity(d, "power") == pytest.approx(gtc_power(43, 500))


class TestInformationEntropy:
    def test_bundled_world_breakdown(self):
        result = information_entropy(bundled_breakdown("pogo"))
        assert result.value == pytest.approx(0.8682, abs=1e-4)

    def test_bundled_weights(self):
        weights = bundled_breakdown("pogo").weights()
        assert sorted(weights) == sorted((12, 12, 86, 15, 81, 172, 86, 81, 81, 6, 43))
        assert sum(weights) == 675

    def test_two_element_skew(self):
        breakdown = InformationBreakdown(
            elements=(
                BreakdownElement("common", 99, 1),
                BreakdownElement("rare", 1, 1),
            )
        )
        assert information_entropy(breakdown).value == pytest.approx(0.0808, abs=1e-4)

    def test_uniform_weights_maximal(self):
        breakdown = InformationBreakdown(
            elements=tuple(BreakdownElement(f"e{i}", 2, 5) for i in range(4))
        )
        assert information_entropy(breakdown).value == pytest.approx(1.0)

    def test_invariant_under_global_unit_rescale(self):
        base = bundled_breakdown("pogo")
        scaled = InformationBreakdown(
            elements=tuple(
                BreakdownElement(e.name, e.count, e.units * 10) for e in base.elements
            )
        )
        assert information_entropy(scaled).value == pytest.approx(
            information_entropy(base).value
        )

    def test_needs_two_elements(self):
        with pytest.raises(DegenerateInput):
            information_entropy(
                InformationBreakdown(elements=(BreakdownElement("only", 1, 1),))
            )


class TestStrategyEntropy:
    def test_dominant_player(self):
        result = strategy_entropy([0.8, 0.2 / 3, 0.2 / 3, 0.2 / 3])
        assert result.value == pytest.approx(0.5195, abs=1e-4)

    def test_even_leader(self):
        result = strategy_entropy([0.5, 1 / 6, 1 / 6, 1 / 6])
        assert result.value == pytest.approx(0.8962, abs=1e-4)

    def test_uniform_is_one(self):
        assert strategy_entropy([0.25] * 4).value == pytest.approx(1.0)


class TestPathSparsityBound:
    def test_two_move_kinds_over_large_action_set(self):
        successful, total_log10, bound_log10 = path_sparsity_bound((5, 7), 0, 43)
        assert successful == 792
        assert total_log10 == pytest.approx(13 * math.log10(43))
        assert total_log10 == pytest.approx(21.2351, abs=1e-4)
        assert bound_log10 == pytest.approx(-18.3364, abs=1e-4)
        assert 10**bound_log10 == pytest.approx(4.609e-19, rel=1e-3)

    def test_single_required_move(self):
        successful, total_log10, bound_log10 = path_sparsity_bound((1, 0), 0, 2)
        assert successful == 1
        assert 10**bound_log10 == pytest.approx(0.25)
        assert total_log10 == pytest.approx(math.log10(4))

    def test_extra_actions_shrink_bound_geometrically(self):
        base = path_sparsity_bound((3, 2), 0, 7)[2]
        for extra in (1, 2, 5):
            bound = path_sparsity_bound((3, 2), extra, 7)[2]
            assert bound == pytest.approx(base - extra * math.log10(7))

    def test_rejects_bad_inputs(self):
        with pytest.raises(InvalidParameter):
            path_sparsity_bound((0, 0), 0, 2)
        with pytest.raises(InvalidParameter):
            path_sparsity_bound((1, -1), 0, 2)
        with pytest.raises(InvalidParameter):
            path_sparsity_bound((1, 1), 0, 1)


class TestStructuralProperties:
    def test_state_space_permutation_invariant(self):
        d = bundled_descriptor("monopoly")
        reordered = DomainDescriptor(
            name=d.name,
            branching_factor=d.branching_factor,
            avg_game_length=d.avg_game_length,
            max_game_length=d.max_game_length,
            components=tuple(reversed(d.components)),
        )
        assert state_space_complexity(reordered) == pytest.approx(
            state_space_complexity(d)
        )

    def test_state_space_additive_under_factor_split(self):
        joined = descriptor_from_mapping(
            minimal_mapping(
                components=[{"name": "grid", "cardinality": 100, "role": "state"}]
            )
        )
        split = descriptor_from_mapping(
            minimal_mapping(
                components=[
                    {"name": "rows", "cardinality": 10, "role": "state"},
                    {"name": "cols", "cardinality": 10, "role": "state"},
                ]
            )
        )
        assert state_space_complexity(split) == pytest.approx(
            state_space_complexity(joined)
        )

    def test_uniform_sum_close_above_deepest_level(self):
        # sum of b^i for i <= max is between b^max and 2 * b^max
        for name in ("cartpole2d", "cartpole3d", "pogo", "monopoly"):
            d = bundled_descriptor(name)
            deepest = gtc_power(d.branching_factor, d.max_game_length)
            total = tree_complexity(d, "uniform_sum")
            assert deepest < total <= deepest + math.log10(2)

    @pytest.mark.parametrize("b", [2, 3, 43, 2**1000 + 7])
    def test_uniform_sum_forms_agree_across_the_exact_threshold(self, b):
        # the largest max_game_length summed exactly, and the next two
        last_exact = descriptors._EXACT_SUM_BITS // b.bit_length() - 1
        for m in (last_exact - 1, last_exact, last_exact + 1, last_exact + 2):
            d = bundled_descriptor("pogo")
            d = replace(d, branching_factor=b, avg_game_length=1, max_game_length=m)
            exact = log10_int((b ** (m + 1) - b) // (b - 1))
            closed = (m + 1) * math.log10(b) - math.log10(b - 1) + math.log10(1 - b**-m)
            got = tree_complexity(d, "uniform_sum")
            assert got == pytest.approx(exact, rel=1e-12), m
            assert got == pytest.approx(closed, rel=1e-12), m

    @pytest.mark.parametrize("m", [10**8, 10**15])
    def test_uniform_sum_of_a_long_game_is_prompt(self, m):
        # forming 43**(10**8 + 1) exactly did not finish in 15 s
        d = replace(bundled_descriptor("pogo"), avg_game_length=1, max_game_length=m)
        start = time.perf_counter()
        got = tree_complexity(d, "uniform_sum")
        assert time.perf_counter() - start < 1.0
        # between the deepest level's 43^m and twice it, to a double's resolution
        assert gtc_power(43, m) <= got <= gtc_power(43, m) + math.log10(2)

    def test_no_state_components_is_degenerate(self):
        d = descriptor_from_mapping(
            minimal_mapping(
                components=[{"name": "size", "cardinality": 10, "role": "instance"}]
            )
        )
        with pytest.raises(DegenerateInput):
            state_space_complexity(d)


class TestSchemaStrictness:
    def test_unknown_descriptor_key_rejected(self):
        with pytest.raises(FormatError):
            descriptor_from_mapping(minimal_mapping(state_count=5))

    def test_unknown_component_key_rejected(self):
        mapping = minimal_mapping()
        mapping["components"][0]["color"] = "red"
        with pytest.raises(FormatError):
            descriptor_from_mapping(mapping)

    def test_power_cardinality_requires_exact_keys(self):
        mapping = minimal_mapping()
        mapping["components"][0]["cardinality"] = {"base": 5}
        with pytest.raises(FormatError):
            descriptor_from_mapping(mapping)
        mapping["components"][0]["cardinality"] = {"base": 5, "exp": 28, "unit": "m"}
        with pytest.raises(FormatError):
            descriptor_from_mapping(mapping)

    @pytest.mark.parametrize(
        ("edit"),
        [
            lambda m: m.update(name=3),
            lambda m: m["components"][0].update(name=["a"]),
            lambda m: m["components"][0].update(note=7),
            lambda m: m["components"][0].update(role=None),
            lambda m: m["components"][0].update(hierarchy_level=1),
            lambda m: m["components"][0].update(cardinality={"base": True, "exp": 2}),
            lambda m: m.update(components={"pieces": 100}),
        ],
        ids=["descriptor-name", "component-name", "note", "role", "hierarchy-level",
             "power-base", "components"],
    )
    def test_field_types_checked(self, edit):
        mapping = minimal_mapping()
        edit(mapping)
        with pytest.raises(FormatError):
            descriptor_from_mapping(mapping)

    def test_power_cardinality_parses(self):
        mapping = minimal_mapping()
        mapping["components"][0]["cardinality"] = {"base": 5, "exp": 28}
        d = descriptor_from_mapping(mapping)
        assert d.components[0].cardinality == Power(5, 28)

    def test_notes_must_be_strings(self):
        with pytest.raises(FormatError):
            descriptor_from_mapping(minimal_mapping(notes=[1, 2]))

    def test_avg_cannot_exceed_max(self):
        with pytest.raises(InvalidParameter):
            descriptor_from_mapping(
                minimal_mapping(avg_game_length=9, max_game_length=8)
            )

    def test_breakdown_requires_exact_element_keys(self):
        with pytest.raises(FormatError):
            breakdown_from_mapping(
                {"elements": [{"name": "x", "count": 1, "units": 1, "why": "no"}]}
            )
        with pytest.raises(FormatError):
            breakdown_from_mapping({"elements": [], "extra": True})

    @pytest.mark.parametrize(
        "obj",
        [
            {"elements": [{"name": 1, "count": 1, "units": 1}]},
            {"elements": [{"name": "x", "count": 1}]},
            {"elements": "ab"},
            [],
        ],
        ids=["numeric-name", "missing-units", "string-elements", "list-root"],
    )
    def test_breakdown_field_types_checked(self, obj):
        with pytest.raises(FormatError):
            breakdown_from_mapping(obj)

    def test_component_validation(self):
        with pytest.raises(InvalidParameter):
            Component(name="x", cardinality=0, role="state")
        with pytest.raises(InvalidParameter):
            Component(name="x", cardinality=10, role="banana")
        with pytest.raises(InvalidParameter):
            Component(name="x", cardinality=10, role="state", hierarchy_level="nope")

    def test_bundled_unknown_name(self):
        with pytest.raises(InvalidParameter):
            bundled_descriptor("chess")

    @pytest.mark.parametrize(
        ("load", "name"),
        [(bundled_breakdown, "../data/pogo"), (bundled_descriptor, "../pogo"),
         (bundled_descriptor, "data/../pogo"), (bundled_breakdown, "monopoly"),
         (bundled_descriptor, "pogo_breakdown")],
    )
    def test_bundled_loaders_read_only_their_own_names(self, load, name):
        # a name outside the tuple is refused before any file is opened, so
        # none can walk out of the package's data directory
        with pytest.raises(InvalidParameter, match=f"^unknown bundled .*{re.escape(repr(name))}"):
            load(name)

    def test_load_descriptor_from_file(self, tmp_path):
        path = tmp_path / "toy.json"
        path.write_text(json.dumps(minimal_mapping()), encoding="utf-8")
        d = load_descriptor(path)
        assert d.name == "toy"
        assert state_space_complexity(d) == pytest.approx(2.0)

    def test_load_descriptor_rejects_integer_past_digit_limit(self, tmp_path):
        path = tmp_path / "huge.json"
        text = json.dumps(minimal_mapping(branching_factor="HUGE"))
        path.write_text(text.replace('"HUGE"', "9" * 5000), encoding="utf-8")
        with pytest.raises(FormatError):
            load_descriptor(path)

    def test_load_descriptor_rejects_bad_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(FormatError):
            load_descriptor(path)
