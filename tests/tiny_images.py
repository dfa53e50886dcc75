"""Tiny MNIST- and CIFAR-shaped dataset files written with the standard
library only, so that the runs which must start without numpy can be given
data where numpy is not installed.

    python tests/tiny_images.py DIRECTORY

writes mnist/ (gzipped IDX files, 5 train and 3 test images, about 60%
zero pixels) and cifar-10-batches-bin/ (six batches of 2 records, the last
record of each with an all-zero red plane) under DIRECTORY.
"""

from __future__ import annotations

import gzip
import random
import struct
import sys
from pathlib import Path


def _pixels(rng: random.Random, count: int) -> bytes:
    return bytes(0 if rng.random() < 0.6 else rng.randrange(1, 256) for _ in range(count))


def _idx(sizes: tuple[int, ...], payload: bytes) -> bytes:
    return bytes([0, 0, 0x08, len(sizes)]) + struct.pack(f">{len(sizes)}I", *sizes) + payload


def write_tiny_images(directory: Path) -> Path:
    """Write both datasets under directory and return it."""
    rng = random.Random(5)
    mnist = directory / "mnist"
    mnist.mkdir(parents=True, exist_ok=True)
    for prefix, count in (("train", 5), ("t10k", 3)):
        images = _idx((count, 28, 28), _pixels(rng, count * 28 * 28))
        labels = _idx((count,), bytes(rng.randrange(10) for _ in range(count)))
        (mnist / f"{prefix}-images-idx3-ubyte.gz").write_bytes(gzip.compress(images))
        (mnist / f"{prefix}-labels-idx1-ubyte.gz").write_bytes(gzip.compress(labels))
    cifar = directory / "cifar-10-batches-bin"
    cifar.mkdir(parents=True, exist_ok=True)
    for batch in [f"data_batch_{i}.bin" for i in range(1, 6)] + ["test_batch.bin"]:
        records = [bytes([rng.randrange(10)]) + _pixels(rng, 3 * 1024) for _ in range(2)]
        records[-1] = records[-1][:1] + bytes(1024) + records[-1][1025:]
        (cifar / batch).write_bytes(b"".join(records))
    return directory


if __name__ == "__main__":
    write_tiny_images(Path(sys.argv[1]))
