"""Differential test of the JSON decoder against JSON Schemas.

tests/schemas/ states the descriptor, breakdown and report formats as
JSON Schemas, written apart from the dataclasses they decode into: field
types, the constructors' enums and minimums, and the float-range bounds
on game lengths, power exponents and measure values. Over a corpus of
valid documents and every single edit of them (drop a key, add a key,
replace a value with each JSON type; in lists, the first two entries),
the decoder must accept exactly what the schema accepts.

Left out, because a schema cannot state them: NaN and infinity (JSON has
no literal for them), avg_game_length <= max_game_length, a power whose
log10 passes the float range through its base rather than its exponent,
and integral floats such as 1.0, which JSON Schema counts as integers and
the decoder refuses where a count goes. The corpus holds none of these.
"""

import copy
import json
from importlib import resources
from pathlib import Path

import pytest

jsonschema = pytest.importorskip("jsonschema")

from dcx.cli import main  # noqa: E402
from dcx.descriptors import (  # noqa: E402
    BUNDLED_DESCRIPTORS,
    breakdown_from_mapping,
    descriptor_from_mapping,
)
from dcx.errors import DcxError  # noqa: E402
from dcx.measures import MeasureResult, monte_carlo  # noqa: E402
from dcx.report import ComplexityReport, from_json, to_json  # noqa: E402

SCHEMAS = Path(__file__).resolve().parent / "schemas"

# closed-form report commands from the golden corpus (2d and 2dg cart-pole
# tables repeat their descriptor reports), and a small constant-action limit
REPORT_COMMANDS = (
    "game ttt",
    "game ttt --no-enumerate",
    "game qubic",
    "game custom --side 2 --dims 2 --plies 4 --win 2",
    *(f"descriptor {name}" for name in BUNDLED_DESCRIPTORS),
    "descriptor pogo --breakdown pogo",
    "cartpole --variant 3d --measure table",
    # a quadrature's provenance, and reference targets with a tolerance
    "cartpole --variant 2d --measure limit --trials 300",
)

# one value of each JSON type, with an empty string, a zero and an integer
# past the float range; True is the bool put where an int goes
REPLACEMENTS = ("x", "", 0, 1.5, 10**400, True, None, [], {})

DECODERS = {
    "descriptor": descriptor_from_mapping,
    "breakdown": breakdown_from_mapping,
    "report": lambda doc: from_json(json.dumps(doc)),
}


def validator(kind: str):
    schema = json.loads((SCHEMAS / f"{kind}.schema.json").read_text(encoding="utf-8"))
    jsonschema.Draft202012Validator.check_schema(schema)
    return jsonschema.Draft202012Validator(schema)


def decoder_accepts(kind: str, doc) -> bool:
    try:
        DECODERS[kind](doc)
    except DcxError:
        return False
    return True


def single_edits(doc):
    """(description, edited copy) for every single edit of doc."""

    def positions(node, path):
        if isinstance(node, dict):
            yield path, "add surplus", lambda owner: owner.__setitem__("surplus", 1)
            children = list(node.items())
            for key, _ in children:
                yield path, f"drop {key}", lambda owner, key=key: owner.__delitem__(key)
        elif isinstance(node, list):
            # entries of one list share their schema: two of them show
            # that a rule does not depend on the position
            children = list(enumerate(node))[:2]
        else:
            return
        for key, child in children:
            for value in REPLACEMENTS:
                yield path, f"set {key} to {value!r:.12}", (
                    lambda owner, key=key, value=value: owner.__setitem__(key, copy.copy(value))
                )
            yield from positions(child, path + (key,))

    for value in REPLACEMENTS:
        yield f"root {value!r:.12}", copy.copy(value)
    for path, what, apply in positions(doc, ()):
        edited = copy.deepcopy(doc)
        owner = edited
        for step in path:
            owner = owner[step]
        apply(owner)
        yield "/".join(map(str, path)) + f": {what}", edited


def bundled(filename: str):
    return json.loads(resources.files("dcx").joinpath(f"data/{filename}").read_text("utf-8"))


@pytest.fixture(scope="module")
def reports(tmp_path_factory):
    directory = tmp_path_factory.mktemp("reports")
    out = {}
    for command in REPORT_COMMANDS:
        path = directory / f"{len(out)}.json"
        assert main(["--format", "json", "--out", str(path), *command.split()]) == 0
        out[command] = json.loads(path.read_text(encoding="utf-8"))
    sampled = ComplexityReport(
        domain_name="sampled",
        measures=(MeasureResult("m", 0.5, "stated", monte_carlo(seed=3, samples=100)),),
        seed=3,
    )
    out["monte carlo"] = json.loads(to_json(sampled))
    return out


def assert_schema_and_decoder_agree(kind: str, doc) -> None:
    check = validator(kind)
    assert check.is_valid(doc) and decoder_accepts(kind, doc)
    disagreements, refused = [], 0
    for what, edited in single_edits(doc):
        schema_says = check.is_valid(edited)
        refused += not schema_says
        if decoder_accepts(kind, edited) != schema_says:
            disagreements.append(f"{what} (schema {'accepts' if schema_says else 'refuses'})")
    assert disagreements == []
    assert refused > 0


@pytest.mark.parametrize("name", BUNDLED_DESCRIPTORS)
def test_descriptor_decoder_matches_schema(name):
    assert_schema_and_decoder_agree("descriptor", bundled(f"{name}.json"))


def test_breakdown_decoder_matches_schema():
    assert_schema_and_decoder_agree("breakdown", bundled("pogo_breakdown.json"))


@pytest.mark.parametrize("command", [*REPORT_COMMANDS, "monte carlo"])
def test_report_decoder_matches_schema(command, reports):
    assert_schema_and_decoder_agree("report", reports[command])
