"""Seeded synthetic inputs for the ``images`` workload.

The arrays keep the paper's shapes (28x28 MNIST-shaped, 32x32x3
CIFAR-shaped) and the properties the dataset code depends on: MNIST images
are about 81% zero pixels and are stored as gzipped IDX files, CIFAR images
are stored as six plain binary batches, and about 1% of CIFAR images carry
one all-zero channel plane, which ``channel_gini`` must refuse.

The writer is self-contained so that the inputs never depend on the code
under test. The same seed and counts always give byte-identical files.
"""

from __future__ import annotations

import gzip
import json
import shutil
import struct
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

MNIST_ZERO_FRACTION = 0.81
CIFAR_DEGENERATE_FRACTION = 0.01
CIFAR_BATCHES = tuple(f"data_batch_{i}.bin" for i in range(1, 6)) + ("test_batch.bin",)
MNIST_FILES = {
    "train": ("train-images-idx3-ubyte.gz", "train-labels-idx1-ubyte.gz"),
    "test": ("t10k-images-idx3-ubyte.gz", "t10k-labels-idx1-ubyte.gz"),
}
MANIFEST = "manifest.json"


@dataclass(frozen=True)
class ImageCounts:
    """How many images of each kind to write; the shapes never change."""

    mnist_train: int
    mnist_test: int
    cifar_per_batch: int

    @property
    def cifar_total(self) -> int:
        return self.cifar_per_batch * len(CIFAR_BATCHES)


def _idx_bytes(array: np.ndarray) -> bytes:
    header = bytes([0, 0, 0x08, array.ndim]) + struct.pack(f">{array.ndim}I", *array.shape)
    return header + np.ascontiguousarray(array, dtype=np.uint8).tobytes()


def mnist_arrays(rng: np.random.Generator, count: int) -> tuple[np.ndarray, np.ndarray]:
    """count x 28 x 28 uint8 images with about 81% zero pixels, and labels."""
    images = rng.integers(1, 256, size=(count, 28, 28), dtype=np.uint8)
    images[rng.random((count, 28, 28)) < MNIST_ZERO_FRACTION] = 0
    labels = rng.integers(0, 10, size=count, dtype=np.uint8)
    return images, labels


def cifar_records(rng: np.random.Generator, count: int) -> tuple[np.ndarray, int]:
    """count CIFAR binary records (label byte, then R, G, B 32x32 planes).

    About 1% of the records get one channel plane of zeros. Returns the
    records and the number of zeroed planes.
    """
    records = np.empty((count, 1 + 3 * 1024), dtype=np.uint8)
    records[:, 0] = rng.integers(0, 10, size=count, dtype=np.uint8)
    records[:, 1:] = rng.integers(0, 256, size=(count, 3 * 1024), dtype=np.uint8)
    hit = np.flatnonzero(rng.random(count) < CIFAR_DEGENERATE_FRACTION)
    planes = rng.integers(0, 3, size=hit.size)
    for row, plane in zip(hit, planes):
        records[row, 1 + plane * 1024 : 1 + (plane + 1) * 1024] = 0
    return records, int(hit.size)


def write_images(directory: Path, seed: int, counts: ImageCounts) -> dict:
    """Write MNIST- and CIFAR-shaped files under directory; return the manifest.

    The manifest records every file's size, the image counts and the zero
    fractions that the ``sparsity`` invocations must reproduce.
    """
    rng = np.random.default_rng(seed)
    mnist_dir = directory / "mnist"
    cifar_dir = directory / "cifar-10-batches-bin"
    mnist_dir.mkdir(parents=True)
    cifar_dir.mkdir(parents=True)

    mnist_zeros = 0
    mnist_train_zeros = 0
    for split, count in (("train", counts.mnist_train), ("test", counts.mnist_test)):
        images, labels = mnist_arrays(rng, count)
        zeros = int(np.count_nonzero(images == 0))
        mnist_zeros += zeros
        if split == "train":
            mnist_train_zeros = zeros
        image_name, label_name = MNIST_FILES[split]
        for name, array in ((image_name, images), (label_name, labels)):
            (mnist_dir / name).write_bytes(gzip.compress(_idx_bytes(array), compresslevel=1, mtime=0))

    cifar_zeros = 0
    degenerate = 0
    for name in CIFAR_BATCHES:
        records, zeroed = cifar_records(rng, counts.cifar_per_batch)
        cifar_zeros += int(np.count_nonzero(records[:, 1:] == 0))
        degenerate += zeroed
        (cifar_dir / name).write_bytes(records.tobytes())

    mnist_pixels = (counts.mnist_train + counts.mnist_test) * 28 * 28
    manifest = {
        "seed": seed,
        "counts": asdict(counts),
        "files": {
            str(p.relative_to(directory)): p.stat().st_size
            for p in sorted(directory.rglob("*"))
            if p.is_file()
        },
        "mnist_zero_fraction": mnist_zeros / mnist_pixels,
        "mnist_train_zero_fraction": mnist_train_zeros / (counts.mnist_train * 28 * 28),
        "cifar_zero_fraction": cifar_zeros / (counts.cifar_total * 3 * 1024),
        "cifar_degenerate_planes": degenerate,
    }
    (directory / MANIFEST).write_text(json.dumps(manifest, indent=2, sort_keys=True))
    return manifest


def ensure_images(cache: Path, seed: int, counts: ImageCounts) -> tuple[Path, dict]:
    """Return the data directory and manifest for seed, writing them if absent.

    Only one seed's files are kept: writing a new seed removes the others,
    so repeated runs over many seeds do not fill the disk.
    """
    directory = cache / f"images-seed{seed}"
    manifest_path = directory / MANIFEST
    if manifest_path.is_file():
        manifest = json.loads(manifest_path.read_text())
        if manifest["counts"] == asdict(counts):
            return directory, manifest
    if cache.is_dir():
        for old in cache.glob("images-seed*"):
            shutil.rmtree(old)
    partial = cache / f"images-seed{seed}.partial"
    manifest = write_images(partial, seed, counts)
    partial.rename(directory)
    return directory, manifest
