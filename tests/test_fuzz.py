"""Damaged binary inputs end in a result or a DcxError, within a time bound.

Hypothesis cuts, pads and overwrites bytes of valid IDX tensors and CIFAR-10
batches, and feeds them to the in-memory parsers and, through files, to the
streamed readers. The profile is derandomized, so every run tries the same
inputs.
"""

import gzip
import tempfile
import time
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dcx.dataset_metrics import image_measures
from dcx.datasets import BLOCK_IMAGES, parse_cifar10, parse_idx, stream_cifar10, stream_mnist, write_idx
from dcx.errors import DcxError

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
