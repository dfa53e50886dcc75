"""Shared fixtures: local-dataset discovery and small synthetic datasets."""

from __future__ import annotations

import gzip
import itertools
import os
import sys
from pathlib import Path

import numpy as np
import pytest

from dcx.datasets import load_cifar10, load_mnist
from idx_writer import write_idx


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Print one line per acceptance criterion after the run."""
    module = sys.modules.get("test_acceptance")
    results = getattr(module, "RESULTS", None) if module else None
    if not results:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for line in results:
        terminalreporter.write_line(line)


def local_data_dir() -> Path | None:
    """Directory holding MNIST/CIFAR files, if one is configured."""
    env = os.environ.get("DCX_DATA_DIR")
    candidates = []
    if env:
        candidates.append(Path(env))
    candidates.append(Path("data"))
    for candidate in candidates:
        if candidate.is_dir():
            return candidate
    return None


def require_mnist() -> Path:
    directory = local_data_dir()
    if directory is not None:
        try:
            load_mnist(directory, split="test")
            return directory
        except FileNotFoundError:
            pass
    pytest.skip(
        "MNIST IDX files not found locally; place them under ./data or set "
        "DCX_DATA_DIR to run this test"
    )


def require_cifar10() -> Path:
    directory = local_data_dir()
    if directory is not None:
        try:
            load_cifar10(directory, split="test")
            return directory
        except FileNotFoundError:
            pass
    pytest.skip(
        "CIFAR-10 binary batches not found locally; place them under ./data "
        "or set DCX_DATA_DIR to run this test"
    )


@pytest.fixture
def synthetic_mnist_dir(tmp_path: Path) -> Path:
    """A tiny IDX dataset shaped like MNIST: 24 train / 8 test images."""
    rng = np.random.default_rng(7)
    root = tmp_path / "mnist"
    root.mkdir()
    splits = {
        ("train-images-idx3-ubyte", "train-labels-idx1-ubyte"): 24,
        ("t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte"): 8,
    }
    for (image_name, label_name), count in splits.items():
        images = rng.integers(0, 256, size=(count, 28, 28), dtype=np.uint8)
        labels = rng.integers(0, 10, size=count, dtype=np.uint8)
        (root / image_name).write_bytes(write_idx(images))
        # one of the two label files gzipped, to cover transparent decompression
        if label_name.startswith("t10k"):
            (root / f"{label_name}.gz").write_bytes(gzip.compress(write_idx(labels)))
        else:
            (root / label_name).write_bytes(write_idx(labels))
    return tmp_path


@pytest.fixture
def synthetic_cifar_dir(tmp_path: Path) -> Path:
    """CIFAR-style binary batches: 5 train files of 6 images plus 4 test."""
    rng = np.random.default_rng(11)
    root = tmp_path / "cifar-10-batches-bin"
    root.mkdir()

    def batch(count: int) -> bytes:
        rows = []
        for _ in range(count):
            label = rng.integers(0, 10, dtype=np.uint8)
            planes = rng.integers(0, 256, size=3 * 1024, dtype=np.uint8)
            rows.append(bytes([label]) + planes.tobytes())
        return b"".join(rows)

    for i in range(1, 6):
        (root / f"data_batch_{i}.bin").write_bytes(batch(6))
    (root / "test_batch.bin").write_bytes(batch(4))
    return tmp_path


@pytest.fixture
def image_dir_factory(tmp_path: Path):
    """Writes seeded dataset files under a fresh directory and returns it:
    ("mnist", train_count, test_count) gives IDX files whose images are
    about 60% zero, the test labels gzipped; ("cifar10", per_batch) gives
    six batches where about one image in eight has an all-zero plane, the
    last record of each batch included."""
    made = itertools.count()

    def make(name: str, *counts: int) -> Path:
        index = next(made)
        rng = np.random.default_rng(index)
        directory = tmp_path / f"{name}-{index}"
        if name == "mnist":
            root = directory / "mnist"
            root.mkdir(parents=True)
            for prefix, count in zip(("train", "t10k"), counts):
                images = rng.integers(1, 256, size=(count, 28, 28), dtype=np.uint8)
                images[rng.random(images.shape) < 0.6] = 0
                labels = rng.integers(0, 10, size=count, dtype=np.uint8)
                (root / f"{prefix}-images-idx3-ubyte").write_bytes(write_idx(images))
                label_file = root / f"{prefix}-labels-idx1-ubyte"
                if prefix == "t10k":
                    label_file.with_name(label_file.name + ".gz").write_bytes(
                        gzip.compress(write_idx(labels)))
                else:
                    label_file.write_bytes(write_idx(labels))
            return directory
        root = directory / "cifar-10-batches-bin"
        root.mkdir(parents=True)
        (per_batch,) = counts
        for batch in [f"data_batch_{i}.bin" for i in range(1, 6)] + ["test_batch.bin"]:
            records = rng.integers(0, 256, size=(per_batch, 3073), dtype=np.uint8)
            records[:, 0] %= 10
            hit = [*np.flatnonzero(rng.random(per_batch) < 0.125), per_batch - 1]
            for row in hit if per_batch else []:
                plane = rng.integers(0, 3)
                records[row, 1 + plane * 1024 : 1 + (plane + 1) * 1024] = 0
            (root / batch).write_bytes(records.tobytes())
        return directory

    return make
