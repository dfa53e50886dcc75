"""Bit-exact readers for the case-study datasets: IDX tensors (MNIST),
CIFAR-10 binary batches, and the Iris CSV. Parsers are pure over byte
buffers; loaders locate files in a local directory and never touch the
network.
"""

from __future__ import annotations

import gzip
import math
import os
import struct
import zlib
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .errors import (
    DegenerateInput,
    FormatError,
    InvalidParameter,
    TruncatedInput,
    check_budget,
)

MNIST_CLASS_NAMES = tuple(str(d) for d in range(10))
CIFAR10_CLASS_NAMES = (
    "airplane",
    "automobile",
    "bird",
    "cat",
    "deer",
    "dog",
    "frog",
    "horse",
    "ship",
    "truck",
)
IRIS_CLASS_NAMES = ("setosa", "versicolour", "virginica")
IRIS_FEATURE_NAMES = ("sepal_length", "sepal_width", "petal_length", "petal_width")

_IDX_UBYTE = 0x08
_CIFAR_RECORD = 3073


@dataclass(frozen=True, eq=False)
class LabeledImageDataset:
    """Images as an N x H x W x C uint8 array plus integer labels."""

    images: np.ndarray
    labels: np.ndarray
    class_names: tuple[str, ...]
    pixel_value_count: int = 256

    def __post_init__(self) -> None:
        if self.images.ndim != 4:
            raise InvalidParameter("images must be an N x H x W x C array")
        if len(self.labels) != len(self.images):
            raise InvalidParameter("one label per image required")
        if len(self.labels) and int(self.labels.max()) >= len(self.class_names):
            raise InvalidParameter("label index outside class_names")

    @property
    def image_count(self) -> int:
        return self.images.shape[0]

    @property
    def pixel_count(self) -> int:
        return self.images.shape[1] * self.images.shape[2]

    @property
    def channel_count(self) -> int:
        return self.images.shape[3]

    @property
    def class_count(self) -> int:
        return len(self.class_names)


@dataclass(frozen=True, eq=False)
class TabularDataset:
    """Numeric feature rows with one class label each."""

    features: np.ndarray
    labels: np.ndarray
    feature_names: tuple[str, ...]
    class_names: tuple[str, ...]

    def __post_init__(self) -> None:
        if self.features.ndim != 2:
            raise InvalidParameter("features must be an N x F array")
        if self.features.shape[1] != len(self.feature_names):
            raise InvalidParameter("one name per feature column required")
        if len(self.labels) != len(self.features):
            raise InvalidParameter("one label per row required")

    @property
    def row_count(self) -> int:
        return self.features.shape[0]


def parse_idx(data: bytes) -> np.ndarray:
    """Decode an IDX byte tensor.

    Header: two zero bytes, the unsigned-byte type code 0x08, a dimension
    count, then one big-endian uint32 size per dimension; the payload is
    row-major and must hold exactly the product of the sizes.
    """
    sizes = _idx_sizes(data)
    expected = math.prod(sizes)
    payload = data[4 + 4 * len(sizes) :]
    if len(payload) != expected:
        raise TruncatedInput(
            f"IDX payload holds {len(payload)} bytes, header promises {expected}"
        )
    return np.frombuffer(payload, dtype=np.uint8).reshape(sizes)


def _idx_sizes(data: bytes) -> tuple[int, ...]:
    """The dimension sizes from the IDX header at the start of data."""
    if len(data) < 4:
        raise TruncatedInput("IDX header needs at least 4 bytes")
    if data[0] != 0 or data[1] != 0:
        raise FormatError("bad IDX magic: first two bytes must be zero")
    if data[2] != _IDX_UBYTE:
        raise FormatError(f"unsupported IDX type code 0x{data[2]:02x}")
    ndim = data[3]
    header_end = 4 + 4 * ndim
    if len(data) < header_end:
        raise TruncatedInput("IDX header ends before all dimension sizes")
    return struct.unpack(f">{ndim}I", data[4:header_end])


def write_idx(tensor: np.ndarray) -> bytes:
    """Inverse of parse_idx; round-trips byte-identically."""
    arr = np.ascontiguousarray(tensor, dtype=np.uint8)
    header = bytes([0, 0, _IDX_UBYTE, arr.ndim])
    header += struct.pack(f">{arr.ndim}I", *arr.shape)
    return header + arr.tobytes()


def parse_cifar10(
    data: bytes, class_names: tuple[str, ...] = CIFAR10_CLASS_NAMES
) -> LabeledImageDataset:
    """Decode CIFAR-10 binary batch records.

    Each record is a label byte followed by three 1024-byte channel planes
    (red, green, blue), each a row-major 32 x 32 grid.
    """
    labels, planes = _cifar_records(data)
    images = planes.transpose(0, 2, 3, 1).copy()
    return LabeledImageDataset(images=images, labels=labels, class_names=class_names)


def _cifar_records(data: bytes) -> tuple[np.ndarray, np.ndarray]:
    """The int64 labels and a records x 3 x 32 x 32 view of the planes."""
    if len(data) % _CIFAR_RECORD != 0:
        raise TruncatedInput(
            f"batch length {len(data)} is not a multiple of {_CIFAR_RECORD}"
        )
    records = len(data) // _CIFAR_RECORD
    raw = np.frombuffer(data, dtype=np.uint8).reshape(records, _CIFAR_RECORD)
    labels = raw[:, 0].astype(np.int64)
    if len(labels) and labels.max() > 9:
        raise FormatError(f"label byte {labels.max()} outside 0..9")
    return labels, raw[:, 1:].reshape(records, 3, 32, 32)


def _iris_class_index(name: str) -> int:
    cleaned = name.strip().lower()
    if cleaned.startswith("iris-"):
        cleaned = cleaned[len("iris-") :]
    if cleaned == "versicolor":
        cleaned = "versicolour"
    try:
        return IRIS_CLASS_NAMES.index(cleaned)
    except ValueError:
        raise FormatError(f"unknown iris class {name!r}") from None


def parse_iris_csv(text: str) -> TabularDataset:
    """Parse comma-separated iris rows: four measurements then a class name."""
    features = []
    labels = []
    for line_no, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        fields = line.split(",")
        if len(fields) != 5:
            raise FormatError(f"line {line_no}: expected 5 fields, got {len(fields)}")
        try:
            row = [float(v) for v in fields[:4]]
        except ValueError:
            raise FormatError(f"line {line_no}: non-numeric measurement") from None
        features.append(row)
        labels.append(_iris_class_index(fields[4]))
    if not features:
        raise DegenerateInput("iris input holds no rows")
    return TabularDataset(
        features=np.asarray(features, dtype=float),
        labels=np.asarray(labels, dtype=np.int64),
        feature_names=IRIS_FEATURE_NAMES,
        class_names=IRIS_CLASS_NAMES,
    )


def binarize(dataset: LabeledImageDataset, threshold: int = 0) -> LabeledImageDataset:
    """Map each pixel to 1 when above threshold, else 0."""
    if dataset.channel_count != 1:
        raise InvalidParameter("binarize expects a single-channel dataset")
    images = (dataset.images > threshold).astype(np.uint8)
    return LabeledImageDataset(
        images=images,
        labels=dataset.labels,
        class_names=dataset.class_names,
        pixel_value_count=2,
    )


class _Stream:
    """An open payload whose reads fill numpy arrays. Damaged gzip data
    raises a DcxError naming the file."""

    def __init__(self, handle, name: str) -> None:
        self.handle, self.name = handle, name

    def _readinto(self, view) -> int:
        try:
            return self.handle.readinto(view)
        except EOFError:
            raise TruncatedInput(f"{self.name}: gzip stream ends early") from None
        except (zlib.error, gzip.BadGzipFile) as exc:
            raise FormatError(f"{self.name}: damaged gzip stream ({exc})") from None

    def fill(self, out: np.ndarray) -> np.ndarray:
        """Read exactly the bytes of the contiguous uint8 array out, 1 MiB per
        request: gzip decompresses a whole request into a temporary first."""
        view = memoryview(out.reshape(-1))
        for start in range(0, len(view), 1 << 20):
            chunk = view[start : start + (1 << 20)]
            if self._readinto(chunk) != len(chunk):
                raise TruncatedInput(f"{self.name}: payload ends early")
        return out

    def end(self) -> None:
        if self._readinto(bytearray(1)):
            raise TruncatedInput(f"{self.name}: bytes left over after the last whole image")


@contextmanager
def _payload(path: Path):
    """Open path once; yield its payload as a _Stream, gunzipped when the
    file starts with 1f 8b, and the payload's exact length, known before any
    of it is read: the file size, or a gzip trailer's ISIZE (RFC 1952). That
    is the last member's length mod 2**32, so callers check the real end."""
    with path.open("rb") as handle:
        length = size = os.fstat(handle.fileno()).st_size
        gzipped = handle.read(2) == b"\x1f\x8b"
        if gzipped:
            handle.seek(max(size - 4, 0))
            length = int.from_bytes(handle.read(4), "little")
            if length > 1032 * size:  # deflate expands at most 1032-fold
                raise TruncatedInput(f"{path.name}: gzip trailer states {length} bytes, "
                                     f"more than {size} compressed bytes can hold")
        handle.seek(0)
        yield _Stream(gzip.GzipFile(fileobj=handle) if gzipped else handle, path.name), length


def _find_file(directory: Path, name: str) -> Path:
    for candidate in (directory / name, directory / f"{name}.gz"):
        if candidate.is_file():
            return candidate
    raise FileNotFoundError(f"{name} not found under {directory} (plain or .gz)")


def _load(data_dir, split, subdirs, parts, class_names, shape_of, read) -> LabeledImageDataset:
    """Open each file of split once. parts maps train and test to groups of
    file names, one group per block of images; shape_of(group) sizes a block
    before any payload is read and read(group, images, labels) fills it."""
    if split not in ("train", "test", "all"):
        raise InvalidParameter("split must be train, test, or all")
    directory = Path(data_dir)
    if not directory.is_dir():
        raise FileNotFoundError(f"{directory} is not a directory")
    directory = next((directory / s for s in subdirs if (directory / s).is_dir()), directory)
    paths = [[_find_file(directory, name) for name in group]
             for part in (("train", "test") if split == "all" else (split,))
             for group in parts[part]]
    with ExitStack() as stack:
        groups = [[stack.enter_context(_payload(path)) for path in group] for group in paths]
        shapes = [shape_of(group) for group in groups]
        if len({shape[1:] for shape in shapes}) != 1:
            raise FormatError("train and test images differ in size")
        total = sum(shape[0] for shape in shapes)
        check_budget(total * (math.prod(shapes[0][1:]) + 8), f"loading {total} images")
        images = np.empty((total, *shapes[0][1:]), dtype=np.uint8)
        labels = np.empty(total, dtype=np.int64)
        start = 0
        for group, (count, *_) in zip(groups, shapes):
            read(group, images[start : start + count], labels[start : start + count])
            for stream, _ in group:
                stream.end()
            start += count
    if not total:
        raise DegenerateInput(f"{directory} holds no images for split {split}")
    return LabeledImageDataset(images=images, labels=labels, class_names=class_names)


def _mnist_shape(group) -> tuple[int, ...]:
    """The image block's shape from its IDX headers, each of which must
    promise exactly its stream's length."""
    sizes = []
    for stream, length in group:
        head = stream.fill(np.empty(4, dtype=np.uint8)).tobytes()
        head += stream.fill(np.empty(4 * head[3], dtype=np.uint8)).tobytes()
        sizes.append(_idx_sizes(head))
        if len(head) + math.prod(sizes[-1]) != length:
            raise TruncatedInput(f"{stream.name}: IDX payload does not hold exactly "
                                 f"the {math.prod(sizes[-1])} bytes its header promises")
    if len(sizes[0]) != 3:
        raise FormatError(f"{group[0][0].name}: expected a 3-dimensional tensor")
    if sizes[1] != sizes[0][:1]:
        raise FormatError(f"{group[1][0].name}: label count does not match images")
    return (*sizes[0], 1)


def _read_mnist(group, images: np.ndarray, labels: np.ndarray) -> None:
    (image_stream, _), (label_stream, _) = group
    image_stream.fill(images)
    labels[:] = label_stream.fill(np.empty(len(labels), dtype=np.uint8))


def _read_cifar(group, images: np.ndarray, labels: np.ndarray) -> None:
    """Decode the batch's whole records 1 MiB at a time; the stream's end
    check refuses a partial record."""
    step = (1 << 20) // _CIFAR_RECORD
    records = np.empty(step * _CIFAR_RECORD, dtype=np.uint8)
    for start in range(0, len(images), step):
        count = min(step, len(images) - start)
        block_labels, planes = _cifar_records(group[0][0].fill(records[: count * _CIFAR_RECORD]))
        images[start : start + count] = planes.transpose(0, 2, 3, 1)
        labels[start : start + count] = block_labels


_MNIST_FILES = {
    "train": [("train-images-idx3-ubyte", "train-labels-idx1-ubyte")],
    "test": [("t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte")],
}
_CIFAR_FILES = {"train": [(f"data_batch_{i}.bin",) for i in range(1, 6)], "test": [("test_batch.bin",)]}


def load_mnist(data_dir: str | Path, split: str = "all") -> LabeledImageDataset:
    """Load MNIST IDX files from data_dir (or a mnist/ subdirectory).

    split is train, test, or all (train followed by test).
    """
    return _load(data_dir, split, ("mnist",), _MNIST_FILES, MNIST_CLASS_NAMES,
                 _mnist_shape, _read_mnist)


def load_cifar10(data_dir: str | Path, split: str = "all") -> LabeledImageDataset:
    """Load CIFAR-10 binary batches from data_dir or its usual subdirectory."""
    return _load(data_dir, split, ("cifar-10-batches-bin", "cifar10"), _CIFAR_FILES,
                 CIFAR10_CLASS_NAMES, lambda g: (g[0][1] // _CIFAR_RECORD, 32, 32, 3),
                 _read_cifar)


def load_iris(path: str | Path | None = None) -> TabularDataset:
    """Load the iris table; without a path, the bundled copy is used."""
    if path is not None:
        return parse_iris_csv(Path(path).read_text(encoding="utf-8"))
    ref = resources.files("dcx").joinpath("data/iris.csv")
    return parse_iris_csv(ref.read_text(encoding="utf-8"))
