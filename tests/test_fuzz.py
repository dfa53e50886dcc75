"""Damaged dataset inputs and odd flag values end in a result or a
DcxError, within a time bound.

Hypothesis cuts, pads and overwrites bytes of valid IDX tensors and CIFAR-10
batches, and feeds them to the in-memory parsers and, through files, to the
streamed readers. It also overwrites fields of valid iris rows and measures
what parses, runs the command line with integer, float and text flags at
their edges, builds and runs every kind of case with its fields at those
edges, and feeds the real-number check every kind of value. The profile is
derandomized, so every run tries the same inputs. A few refusals that no
other test reaches are named one by one.
"""

import gzip
import io
import math
import os
import tempfile
import time
import warnings
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from importlib import resources
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dcx.cases import CartPoleCase, DatasetCase, DescriptorCase, GameCase, run
from dcx.cli import main
from dcx.dataset_metrics import image_measures, iris_measures, tabular_gini
from dcx.datasets import (
    BLOCK_IMAGES,
    TabularDataset,
    parse_cifar10,
    parse_idx,
    parse_iris_csv,
    stream_cifar10,
    stream_mnist,
)
from dcx.descriptors import Component, DomainDescriptor, game_space_complexity, tree_complexity
from dcx.errors import (
    DcxError,
    DegenerateInput,
    InvalidDistribution,
    InvalidParameter,
    check_real,
)
from dcx.measures import shannon_entropy
from dcx.report import ComplexityReport
from idx_writer import write_idx

settings.register_profile(
    "dcx-fuzz", derandomize=True, deadline=None, max_examples=60, database=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
FUZZ = settings.get_profile("dcx-fuzz")

# seconds one call may take; every valid input here decodes in milliseconds
TIME_BOUND = 5.0

# past the first block, so faults land in later blocks too
COUNT = BLOCK_IMAGES + 3
_RNG = np.random.default_rng(0)
IDX = write_idx(_RNG.integers(0, 256, size=(COUNT, 3, 3), dtype=np.uint8))
LABELS = write_idx(np.arange(COUNT, dtype=np.uint8) % 10)
_RECORDS = _RNG.integers(0, 256, size=(COUNT, 3073), dtype=np.uint8)
_RECORDS[:, 0] %= 10
CIFAR = _RECORDS.tobytes()


@st.composite
def damaged(draw, valid: bytes) -> bytes:
    """valid, maybe cut short, with a few bytes overwritten (the header's
    as often as any other) and maybe some appended; or bytes with no
    structure at all."""
    if draw(st.integers(0, 9)) == 0:
        return draw(st.binary(max_size=64))
    data = bytearray(valid[: draw(st.one_of(st.just(len(valid)), st.integers(0, len(valid))))])
    for _ in range(draw(st.integers(0, 4)) if data else 0):
        where = draw(st.one_of(st.integers(0, min(15, len(data) - 1)), st.integers(0, len(data) - 1)))
        data[where] = draw(st.integers(0, 255))
    return bytes(data) + draw(st.one_of(st.just(b""), st.binary(min_size=1, max_size=8)))


@st.composite
def stored(draw, valid: bytes) -> bytes:
    """A file's bytes: damaged plain, gzip of damaged, or damaged gzip."""
    form = draw(st.sampled_from(["plain", "gzip_of_damaged", "damaged_gzip"]))
    if form == "plain":
        return draw(damaged(valid))
    if form == "gzip_of_damaged":
        return gzip.compress(draw(damaged(valid)), mtime=0)
    return draw(damaged(gzip.compress(valid, mtime=0)))


def returns_or_refuses(call) -> None:
    start = time.perf_counter()
    try:
        call()
    except DcxError:
        pass
    assert time.perf_counter() - start < TIME_BOUND


@FUZZ
@given(damaged(IDX))
def test_parse_idx(data):
    returns_or_refuses(lambda: parse_idx(data))


@FUZZ
@given(damaged(CIFAR))
def test_parse_cifar10(data):
    returns_or_refuses(lambda: parse_cifar10(data))


MNIST_TEST_FILES = {"t10k-images-idx3-ubyte": IDX, "t10k-labels-idx1-ubyte": LABELS}


@FUZZ
@given(st.sampled_from(sorted(MNIST_TEST_FILES)).flatmap(
           lambda name: st.tuples(st.just(name), stored(MNIST_TEST_FILES[name]))),
       st.sampled_from(["dimensionality", "sparsity", "entropy"]))
def test_streamed_mnist(damage, measure):
    # one file damaged, the other intact
    name, data = damage
    with tempfile.TemporaryDirectory() as directory:
        for file_name, file_data in {**MNIST_TEST_FILES, name: data}.items():
            Path(directory, file_name).write_bytes(file_data)
        returns_or_refuses(
            lambda: image_measures("mnist", stream_mnist(directory, "test"), measure, split="test"))


@FUZZ
@given(stored(CIFAR), st.sampled_from(["dimensionality", "gini", "entropy"]))
def test_streamed_cifar10(batch, measure):
    with tempfile.TemporaryDirectory() as directory:
        Path(directory, "test_batch.bin").write_bytes(batch)
        returns_or_refuses(
            lambda: image_measures("cifar10", stream_cifar10(directory, "test"), measure, split="test"))


# two rows of each class from the bundled table
IRIS_ROWS = resources.files("dcx").joinpath("data/iris.csv").read_text().splitlines()[::25]
IRIS_FIELDS = ["0", "-1", "1e308", "1e400", "nan", "inf", "-inf", "", "tall",
               "Iris-setosa", "versicolor", "Iris-virginica"]


@st.composite
def iris_text(draw) -> str:
    """IRIS_ROWS with one to four fields overwritten with IRIS_FIELDS or any
    text, maybe cut short; or text with no structure at all."""
    if draw(st.integers(0, 9)) == 0:
        return draw(st.text(max_size=64))
    rows = [row.split(",") for row in IRIS_ROWS]
    for _ in range(draw(st.integers(1, 4))):
        row = draw(st.sampled_from(rows))
        row[draw(st.integers(0, len(row) - 1))] = draw(
            st.one_of(st.sampled_from(IRIS_FIELDS), st.text(max_size=8)))
    text = "\n".join(",".join(row) for row in rows)
    return text[: draw(st.one_of(st.just(len(text)), st.integers(0, len(text))))]


@FUZZ
@given(iris_text())
def test_parse_iris_csv(text):
    def measured():
        dataset = parse_iris_csv(text)
        for measure in ("dimensionality", "gini", "entropy"):
            values = [m.value for m in iris_measures(dataset, measure)[0]]
            assert all(map(math.isfinite, values)), values

    returns_or_refuses(measured)


# Each integer flag is tried at these: zero, +/-1, just past the 32- and
# 64-bit integers, and a value past the float range.
FLAG_INTS = ["0", "1", "-1", str(2**31), str(2**63), str(10**400)]
# Per command, each integer flag with a value that finishes fast. No board
# here reaches the 4x4 enumeration, and no count passes the default trials.
FLAG_COMMANDS = [
    (["game", "custom"],
     {"--side": "3", "--dims": "2", "--plies": "9", "--win": "3", "--avg-length": "5"}),
    (["cartpole", "--measure", "limit"], {"--trials": "100"}),
    (["cartpole", "--measure", "entropy"], {"--samples": "1000", "--bins": "16"}),
    (["cartpole", "--measure", "sparsity"], {"--trials": "100", "--episode-length": "50"}),
    (["cartpole", "--measure", "sparsity", "--variant", "3d"],
     {"--limit": "5", "--episode-length": "50"}),
]
FLAG_TEXTS = ["", "données", "ポゴ", "\udcff"]  # the last as argv holds an undecodable byte
TEXT_COMMANDS = [
    ["descriptor", "{}"], ["descriptor", "pogo", "--breakdown", "{}"],
    ["dataset", "mnist", "--data-dir", "{}"], ["dataset", "cifar10", "--data-dir", "{}"],
]


@st.composite
def cli_argv(draw) -> list[str]:
    """A command with each integer flag and --seed at its fast value or at
    one of FLAG_INTS, --limit also at nan or an infinity; or a command
    that reads a path or a name given as FLAG_TEXTS."""
    if draw(st.integers(0, 4)) == 0:
        text = draw(st.sampled_from(FLAG_TEXTS))
        return [arg.format(text) for arg in draw(st.sampled_from(TEXT_COMMANDS))]
    command, flags = draw(st.sampled_from(FLAG_COMMANDS))
    argv = ["--seed", draw(st.sampled_from(["0", *FLAG_INTS])), *command]
    for flag, fast in flags.items():
        odd = ["nan", "inf", "-inf"] if flag == "--limit" else FLAG_INTS
        argv += [flag, draw(st.sampled_from([fast, *odd]))]
    return argv


@settings(FUZZ, max_examples=300)
@given(cli_argv())
def test_cli_flags(argv):
    # exit 0, or exit 1 with one "dcx: " line, or argparse's usage error
    # (exit 2), within the time bound and with no warning printed
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as directory, \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        cwd = os.getcwd()
        os.chdir(directory)  # an empty --data-dir reads the working directory
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = main(argv)
        except SystemExit as exc:
            code = exc.code
        finally:
            os.chdir(cwd)
    assert time.perf_counter() - start < TIME_BOUND, argv
    assert not caught, [str(w.message) for w in caught]
    lines = err.getvalue().splitlines()
    if code == 0:
        assert lines == []
    elif code == 1:
        assert len(lines) == 1 and lines[0].startswith("dcx: "), lines
        assert out.getvalue() == ""
    else:
        assert code == 2 and lines[-1].startswith("dcx") and ": error: " in lines[-1], lines


NOT_PATHS = [5, 1.5, b"pogo", ["pogo"]]  # neither a str nor an os.PathLike
# Each case field but those that choose the case, at a value that finishes
# fast and at its odd values: FLAG_INTS for the integers, also nan and the
# infinities for limit, a value outside the CLI's choices for mode and
# split, and NOT_PATHS for data_dir. "." is the test's empty working
# directory.
CASE_VALUES = {
    **{name: (fast, [int(v) for v in FLAG_INTS]) for name, fast in (
        ("side", 3), ("dims", 2), ("plies", 9), ("win", 3), ("avg_length", 5), ("trials", 100),
        ("samples", 1000), ("bins", 16), ("episode_length", 50), ("seed", 0))},
    "limit": (5.0, [math.nan, math.inf, -math.inf, *(int(v) for v in FLAG_INTS)]),
    "enumerate": (True, [False]),
    "mode": ("raw", ["binarized", "other"]),
    "split": ("test", ["train", "all", "other"]),
    "data_dir": (".", [Path("."), *NOT_PATHS]),
}
# case type -> the values of the fields that choose the case
CASE_CHOICES = {
    GameCase: {"preset": ["ttt", "qubic", "custom"]},
    CartPoleCase: {"measure": ["table", "limit", "entropy", "sparsity"],
                   "variant": ["2d", "2dg", "3d"]},
    DatasetCase: {"name": ["iris", "mnist", "cifar10"],
                  "measure": ["dimensionality", "sparsity", "gini", "entropy"]},
    DescriptorCase: {"source": ["pogo", "monopoly", "cartpole3d", *NOT_PATHS],
                     "breakdown": [None, "pogo", *NOT_PATHS]},
}
# the fields that a case reads or refuses, by its preset, measure or dataset
OPTIONAL = {"side", "dims", "plies", "win", "trials", "samples", "bins", "limit",
            "episode_length", "mode", "split", "data_dir"}


def read_fields(cls, fields: dict) -> set[str]:
    """The optional fields the case of fields reads."""
    if cls is GameCase:
        return {"side", "dims", "plies", "win"} if fields["preset"] == "custom" else set()
    if cls is CartPoleCase:
        return {"limit": {"trials"}, "entropy": {"samples", "bins"},
                "sparsity": {"trials", "limit", "episode_length"}}.get(fields["measure"], set())
    if cls is DatasetCase and fields["name"] in ("mnist", "cifar10"):
        binarizes = fields["name"] == "mnist" and fields["measure"] in ("dimensionality", "entropy")
        return {"split", "data_dir"} | ({"mode"} if binarizes else set())
    return set()


@st.composite
def case_fields(draw) -> tuple[type, dict]:
    """A case type and its fields: each choosing field at one of its
    choices, or one time in eight at "other", which names no case (and no
    bundled descriptor); each other field at its fast value half the time,
    else None or an odd value. An optional field the case does not read is
    set one time in eight."""
    cls = draw(st.sampled_from(list(CASE_CHOICES)))
    fields = {name: "other" if draw(st.integers(0, 7)) == 0 else draw(st.sampled_from(values))
              for name, values in CASE_CHOICES[cls].items()}
    read = read_fields(cls, fields)
    for name in cls._fields:
        if name not in fields:
            fast, odd = CASE_VALUES[name]
            unread = name in OPTIONAL and name not in read
            fields[name] = None if unread and draw(st.integers(0, 7)) else draw(
                st.one_of(st.just(fast), st.sampled_from([None, *odd])))
    return cls, fields


@settings(FUZZ, max_examples=300)
@given(case_fields())
def test_case_fields(drawn):
    # a case refuses the fields its preset, measure or dataset does not
    # read, naming each by its flag in field order; any field set it
    # accepts runs to a report or a DcxError within the time bound
    cls, fields = drawn
    unread = [name for name in cls._fields if name in OPTIONAL - read_fields(cls, fields)
              and fields[name] is not None]
    refused = unread and "other" not in [fields[name] for name in CASE_CHOICES[cls]]
    flags = " ".join("--" + name.replace("_", "-") for name in unread)
    # a path field that is no str or os.PathLike ended in a bare TypeError
    not_paths = [name for name in ("source", "breakdown", "data_dir")
                 if not isinstance(fields.get(name), (str, os.PathLike, type(None)))]
    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as directory, mock.patch.dict(os.environ):
        os.environ.pop("DCX_DATA_DIR", None)  # unset, a dataset case reads ./data
        cwd = os.getcwd()
        os.chdir(directory)
        try:
            case = cls(**fields)
            assert not refused, f"{case} was made, though it does not read {flags}"
            assert not not_paths, f"{case} was made, though {not_paths} are not paths"
            assert isinstance(run(case), ComplexityReport)
        except DcxError as exc:
            assert not refused or str(exc).endswith(f" does not read {flags}"), exc
        finally:
            os.chdir(cwd)
    assert time.perf_counter() - start < TIME_BOUND, fields


# anything an argument may hold: Python and numpy reals of every size and
# edge, fractions, bools and values that are no real number
ANY_VALUE = st.one_of(
    st.floats(), st.integers(), st.integers(-(10**400), 10**400), st.booleans(),
    st.fractions(), st.builds(Fraction, st.integers(-(10**400), 10**400), st.integers(1, 10**400)),
    st.floats(width=32).map(np.float32), st.floats().map(np.float64),
    st.integers(-(2**63), 2**63 - 1).map(np.int64), st.booleans().map(np.bool_),
    st.complex_numbers(), st.text(max_size=4), st.none(), st.just([0.5]),
)


@settings(FUZZ, max_examples=500)
@given(ANY_VALUE, st.one_of(st.just(-math.inf), st.floats(-1e3, 1e3), st.integers(-5, 5)),
       st.booleans())
def test_check_real_returns_the_float_or_refuses(value, minimum, above):
    try:
        got = check_real(value, "x", minimum, above=above)
    except InvalidParameter:
        return
    assert type(got) is float and got == float(value) and math.isfinite(got)
    assert got > minimum if above else got >= minimum


def descriptor(branching_factor: int = 2) -> DomainDescriptor:
    """A descriptor with one state component and no instance component."""
    return DomainDescriptor("d", branching_factor, 1, 1, (Component("c", 2, "state"),))


@pytest.mark.parametrize(("call", "error", "message"), [
    (lambda: shannon_entropy([]), InvalidDistribution, "empty probability vector"),
    (lambda: tabular_gini(TabularDataset([[1.0], [2.0], [3.0]], [0, 1, 1], ("f",), ("a", "b")),
                          "a", "f"), DegenerateInput, "class needs at least two rows"),
    (lambda: tree_complexity(descriptor(branching_factor=1)), InvalidParameter,
     "tree complexity needs branching_factor >= 2"),
    (lambda: tree_complexity(descriptor(), "nonsense"), InvalidParameter,
     "unknown tree complexity mode 'nonsense'"),
    (lambda: game_space_complexity(descriptor()), DegenerateInput,
     "descriptor has no instance components"),
    (lambda: DatasetCase("mnist", "entropy", mode="nonsense"), InvalidParameter,
     "mode must be raw or binarized, not 'nonsense'"),
], ids=["empty-entropy", "one-row-class", "branching-1", "tree-mode", "no-instance",
        "dataset-mode"])
def test_refusals_end_in_their_error(call, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        call()
