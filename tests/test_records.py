"""The frozen Record base of the value types: construction, immutability,
equality, repr, replace and asdict."""

import json

import numpy as np
import pytest

from dcx.datasets import ImageStream, LabeledImageDataset, TabularDataset, load_iris
from dcx.descriptors import bundled_descriptor
from dcx.errors import Factory, FormatError, InvalidParameter, Record, asdict, replace
from dcx.games import GridGameSpec
from dcx.measures import ANALYTIC, MeasureResult, Power, Provenance, quadrature
from dcx.report import ComplexityReport, ReferenceTarget, from_json, to_json


def test_fields_are_the_annotations_in_order():
    assert ReferenceTarget._fields == ("measure_name", "value", "tolerance", "source")
    assert Provenance._defaults == {"seed": None, "samples": None}


def test_fields_bind_by_position_or_keyword_with_defaults():
    assert Provenance("monte_carlo", 1, samples=10) == Provenance("monte_carlo", seed=1, samples=10)
    assert Provenance("analytic").seed is None


def test_quadrature_provenance_records_its_points_and_no_seed():
    # a quadrature draws nothing, so a seed would claim a dependence that
    # is not there; its samples are the points it evaluated
    assert quadrature(np.int64(5376)) == Provenance("quadrature", samples=5376)
    assert type(quadrature(np.int64(5376)).samples) is int
    for kwargs in ({}, {"seed": 0, "samples": 10}, {"samples": 0}):
        with pytest.raises(InvalidParameter):
            Provenance("quadrature", **kwargs)


@pytest.mark.parametrize(
    ("args", "kwargs"),
    [((2,), {}), ((), {"exp": 3}), ((2, 3), {"bits": 1}), ((2, 3, 4), {}), ((2,), {"base": 2})],
    ids=["missing", "missing-first", "unknown", "too-many", "twice"],
)
def test_constructor_refuses_a_missing_unknown_or_repeated_field(args, kwargs):
    with pytest.raises(TypeError, match="Power"):
        Power(*args, **kwargs)


def test_fields_cannot_be_assigned_or_deleted():
    power = Power(2, 3)
    with pytest.raises(AttributeError, match="frozen"):
        power.exp = 4
    with pytest.raises(AttributeError, match="frozen"):
        del power.base
    with pytest.raises(AttributeError, match="frozen"):
        power.extra = 1
    assert power == Power(2, 3)


def test_equality_and_hash_go_by_the_fields():
    a, b = GridGameSpec(3, 2, 9, 3), GridGameSpec(3, 2, 9, 3)
    assert a == b and a is not b and hash(a) == hash(b)
    assert a != GridGameSpec(3, 2, 8, 3)
    assert Power(2, 3) != (2, 3)
    assert len({Power(2, 3), Power(2, 3), Power(3, 2)}) == 2


def test_dataset_types_keep_identity():
    np = pytest.importorskip("numpy")
    images, labels = np.zeros((1, 2, 2, 1), np.uint8), np.zeros(1, np.int64)
    pairs = [
        (load_iris(), load_iris()),
        (LabeledImageDataset(images, labels, ("a",)), LabeledImageDataset(images, labels, ("a",))),
        (ImageStream((1, 2, 2, 1), ("a",), iter(())), ImageStream((1, 2, 2, 1), ("a",), iter(()))),
    ]
    for a, b in pairs:
        assert a == a and a != b
        assert type(a).__hash__ is object.__hash__
    assert isinstance(load_iris(), TabularDataset)


def test_repr_names_each_field():
    assert repr(Power(2, 3)) == "Power(base=2, exp=3)"


def test_replace_builds_a_new_checked_record():
    pogo = bundled_descriptor("pogo")
    longer = replace(pogo, max_game_length=pogo.max_game_length + 1)
    assert longer.max_game_length == pogo.max_game_length + 1
    assert longer.components == pogo.components and longer is not pogo
    with pytest.raises(InvalidParameter):
        replace(pogo, max_game_length=0)
    with pytest.raises(TypeError):
        replace(pogo, no_such_field=1)


def test_asdict_recurses_through_tuples():
    result = MeasureResult("m", 1.0, "c", ANALYTIC)
    report = ComplexityReport("toy", (result,), timestamp="t")
    payload = asdict(report)
    assert payload["measures"] == ({"measure_name": "m", "value": 1.0, "convention": "c",
                                    "provenance": {"kind": "analytic", "seed": None,
                                                   "samples": None}},)
    assert list(payload) == list(ComplexityReport._fields)


def test_default_factory_runs_per_object():
    calls = []

    class Stamped(Record):
        name: str
        stamp: int = Factory(lambda: calls.append(1) or len(calls))

    assert Stamped("a").stamp == 1 and Stamped("b").stamp == 2
    assert Stamped("c", stamp=0).stamp == 0 and len(calls) == 2


def test_from_json_still_requires_the_timestamp():
    payload = json.loads(to_json(ComplexityReport("toy", (MeasureResult("m", 1.0, "c", ANALYTIC),))))
    del payload["timestamp"]
    with pytest.raises(FormatError, match="missing keys \\['timestamp'\\]"):
        from_json(json.dumps(payload))
