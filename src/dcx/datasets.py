"""Bit-exact readers for the case-study datasets: IDX tensors (MNIST),
CIFAR-10 binary batches, and the Iris CSV. Parsers are pure over byte
buffers; loaders locate files in a local directory and never touch the
network.
"""

from __future__ import annotations

import gzip
import math
import struct
from contextlib import contextmanager
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .errors import (
    DegenerateInput,
    FormatError,
    InvalidParameter,
    TruncatedInput,
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


def _is_gzip(path: Path) -> bool:
    with path.open("rb") as handle:
        return handle.read(2) == b"\x1f\x8b"


def _read_bytes(path: Path) -> bytes:
    data = path.read_bytes()
    if data[:2] == b"\x1f\x8b":
        try:
            return gzip.decompress(data)
        except EOFError:
            raise TruncatedInput(f"{path.name}: gzip stream ends early") from None
    return data


@contextmanager
def _idx_stream(path: Path):
    """The open IDX file at path (plain or gzipped), positioned after its
    header, and the dimension sizes that header gives."""
    opened = gzip.open(path, "rb") if _is_gzip(path) else path.open("rb")
    with opened as handle:
        try:
            head = handle.read(4)
            head += handle.read(4 * head[3] if len(head) == 4 else 0)
            yield handle, _idx_sizes(head)
        except EOFError:
            raise TruncatedInput(f"{path.name}: gzip stream ends early") from None


def _read_into(handle, out: np.ndarray) -> int:
    """Fill out from handle; returns the bytes read. Reads 1 MiB at a time,
    because a gzip stream's readinto decompresses into a temporary copy of
    the whole request first."""
    view = memoryview(out).cast("B")
    filled = 0
    while filled < len(view):
        got = handle.readinto(view[filled : filled + (1 << 20)])
        if not got:
            break
        filled += got
    return filled


def _find_file(directory: Path, names: tuple[str, ...]) -> Path:
    for name in names:
        for candidate in (directory / name, directory / f"{name}.gz"):
            if candidate.is_file():
                return candidate
    raise FileNotFoundError(
        f"none of {names} found under {directory} (plain or .gz)"
    )


_MNIST_FILES = {
    "train": ("train-images-idx3-ubyte", "train-labels-idx1-ubyte"),
    "test": ("t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte"),
}


def load_mnist(data_dir: str | Path, split: str = "all") -> LabeledImageDataset:
    """Load MNIST IDX files from data_dir (or a mnist/ subdirectory).

    split is train, test, or all (train followed by test).
    """
    if split not in ("train", "test", "all"):
        raise InvalidParameter("split must be train, test, or all")
    directory = Path(data_dir)
    if not directory.is_dir():
        raise FileNotFoundError(f"{directory} is not a directory")
    if (directory / "mnist").is_dir():
        directory = directory / "mnist"
    parts = ("train", "test") if split == "all" else (split,)
    files = [[_find_file(directory, (name,)) for name in _MNIST_FILES[part]] for part in parts]
    # The image headers size one preallocated array; each image file is then
    # decoded straight into its slice of it.
    shapes = []
    for image_path, _ in files:
        with _idx_stream(image_path) as (_, sizes):
            if len(sizes) != 3:
                raise FormatError(f"{image_path.name}: expected a 3-dimensional tensor")
        # deflate expands at most 1032-fold, so no file, gzipped or not, holds
        # more; refusing such a header bounds the allocation by the input
        if math.prod(sizes) > 1032 * image_path.stat().st_size:
            raise TruncatedInput(
                f"{image_path.name}: header promises more bytes than the file holds"
            )
        shapes.append(sizes)
    if len({sizes[1:] for sizes in shapes}) != 1:
        raise FormatError("train and test images differ in size")
    total = sum(sizes[0] for sizes in shapes)
    images = np.empty((total, *shapes[0][1:], 1), dtype=np.uint8)
    labels = np.empty(total, dtype=np.int64)
    start = 0
    for (image_path, label_path), sizes in zip(files, shapes):
        block = images[start : start + sizes[0]]
        with _idx_stream(image_path) as (handle, reread):
            if reread != sizes:
                raise FormatError(f"{image_path.name} changed while loading")
            if _read_into(handle, block) != block.nbytes or handle.read(1):
                raise TruncatedInput(
                    f"{image_path.name}: IDX payload does not hold exactly the "
                    f"{block.nbytes} bytes its header promises"
                )
        block_labels = parse_idx(_read_bytes(label_path))
        if block_labels.ndim != 1 or len(block_labels) != sizes[0]:
            raise FormatError(f"{label_path.name}: label count does not match images")
        labels[start : start + sizes[0]] = block_labels
        start += sizes[0]
    return LabeledImageDataset(images=images, labels=labels, class_names=MNIST_CLASS_NAMES)


_CIFAR_TRAIN = tuple(f"data_batch_{i}.bin" for i in range(1, 6))
_CIFAR_TEST = ("test_batch.bin",)


def load_cifar10(data_dir: str | Path, split: str = "all") -> LabeledImageDataset:
    """Load CIFAR-10 binary batches from data_dir or its usual subdirectory."""
    if split not in ("train", "test", "all"):
        raise InvalidParameter("split must be train, test, or all")
    directory = Path(data_dir)
    if not directory.is_dir():
        raise FileNotFoundError(f"{directory} is not a directory")
    for sub in ("cifar-10-batches-bin", "cifar10"):
        if (directory / sub).is_dir():
            directory = directory / sub
            break
    names = {
        "train": _CIFAR_TRAIN,
        "test": _CIFAR_TEST,
        "all": _CIFAR_TRAIN + _CIFAR_TEST,
    }[split]
    # Each batch is decoded straight into one preallocated array. A plain
    # batch is sized from the file system; a gzipped one is read up front,
    # since only its decompressed length gives its size.
    batches = [_read_bytes(path) if _is_gzip(path) else path
               for path in (_find_file(directory, (n,)) for n in names)]
    counts = [(len(b) if isinstance(b, bytes) else b.stat().st_size) // _CIFAR_RECORD
              for b in batches]
    images = np.empty((sum(counts), 32, 32, 3), dtype=np.uint8)
    labels = np.empty(sum(counts), dtype=np.int64)
    start = 0
    for name, batch, count in zip(names, batches, counts):
        data = batch if isinstance(batch, bytes) else _read_bytes(batch)
        block_labels, planes = _cifar_records(data)
        if len(block_labels) != count:
            raise FormatError(f"{name} changed size while loading")
        images[start : start + count] = planes.transpose(0, 2, 3, 1)
        labels[start : start + count] = block_labels
        start += count
    return LabeledImageDataset(images=images, labels=labels, class_names=CIFAR10_CLASS_NAMES)


def load_iris(path: str | Path | None = None) -> TabularDataset:
    """Load the iris table; without a path, the bundled copy is used."""
    if path is not None:
        return parse_iris_csv(Path(path).read_text(encoding="utf-8"))
    ref = resources.files("dcx").joinpath("data/iris.csv")
    return parse_iris_csv(ref.read_text(encoding="utf-8"))
