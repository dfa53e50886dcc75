"""Bit-exact readers for the case-study datasets: IDX tensors (MNIST),
CIFAR-10 binary batches, and the Iris CSV.

Each binary format has one decoder, a generator that reads every header
first, then yields the images in blocks of at most BLOCK_IMAGES, then
checks that each file ends where its header says. stream_mnist and
stream_cifar10 hand it out as an ImageStream, so a measure holds one block
at a time and never the whole image array; load_mnist and load_cifar10
gather the same blocks into one array. parse_idx and parse_cifar10 run the
same header and record readers over an in-memory stream, so a parser and
its loader accept and refuse the same bytes, with the same message bar the
loader's file-name prefix. Loaders locate files in a local directory and
never touch the network.
"""

from __future__ import annotations

import gzip
import io
import math
import os
import re
import struct
import zlib
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Iterator

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

# Images per block of a streamed dataset, and so per chunk of the batch
# kernels in dataset_metrics. A CIFAR-10 block is 0.2 MB of records, and
# the kernels' temporaries for it (entropy's intp bins, Gini's float
# shares) 1.6 MB each: that, not the dataset's size, is what a streamed
# measure holds besides its per-image values. Peak RSS grows with the
# block, and time does not fall: CIFAR-10 entropy over 15,000 images
# peaked at 36.5 MB with 32-image blocks, 37.7 MB with 64 and 44.8 MB
# with 256 (Python 3.11, numpy 2.4, x86-64 Linux).
BLOCK_IMAGES = 64


class _ImageCounts:
    """The counts of an N x H x W x C image set, read off its shape."""

    @property
    def image_count(self) -> int:
        return self.shape[0]

    @property
    def pixel_count(self) -> int:
        return self.shape[1] * self.shape[2]

    @property
    def channel_count(self) -> int:
        return self.shape[3]

    @property
    def class_count(self) -> int:
        return len(self.class_names)


@dataclass(frozen=True, eq=False)
class LabeledImageDataset(_ImageCounts):
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
    def shape(self) -> tuple[int, ...]:
        return self.images.shape

    def blocks(self) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """The whole dataset as one block of (images, labels)."""
        yield self.images, self.labels


@dataclass(frozen=True, eq=False)
class ImageStream(_ImageCounts):
    """A dataset's images, read from its files one block at a time.

    shape is the whole N x H x W x C array's, as the file headers state it
    before any payload is read. blocks() yields, once, (images, labels)
    pairs of at most BLOCK_IMAGES images in file order, then checks that
    each file ends where its header says. A block's arrays are overwritten
    by the next block, so copy what must outlive it. The files stay open
    until the last block is read or the stream is dropped.
    """

    shape: tuple[int, int, int, int]
    class_names: tuple[str, ...]
    reader: Iterator[tuple[np.ndarray, np.ndarray]]
    pixel_value_count: int = 256

    def blocks(self) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        return self.reader


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
    """Decode an IDX byte tensor with the MNIST loader's header reader.

    Header: two zero bytes, the unsigned-byte type code 0x08, a dimension
    count, then one big-endian uint32 size per dimension; the payload is
    row-major and must hold exactly the product of the sizes.
    """
    stream = _Stream(io.BytesIO(data))
    sizes = _idx_header(stream, len(data))
    try:
        tensor = np.empty(sizes, dtype=np.uint8)
    except ValueError:  # more dimensions than a numpy array can have
        raise FormatError(f"IDX tensor has {len(sizes)} dimensions, too many for numpy") from None
    return stream.fill(tensor)


def write_idx(tensor: np.ndarray) -> bytes:
    """Inverse of parse_idx; round-trips byte-identically."""
    arr = np.ascontiguousarray(tensor, dtype=np.uint8)
    header = bytes([0, 0, _IDX_UBYTE, arr.ndim])
    header += struct.pack(f">{arr.ndim}I", *arr.shape)
    return header + arr.tobytes()


def parse_cifar10(data: bytes) -> LabeledImageDataset:
    """Decode CIFAR-10 binary batch records with the loader's record reader.

    Each record is a label byte followed by three 1024-byte channel planes
    (red, green, blue), each a row-major 32 x 32 grid.
    """
    group = [(_Stream(io.BytesIO(data)), len(data))]
    return _collect(_streamed(_decode([group], _cifar_shape, _read_cifar), CIFAR10_CLASS_NAMES))


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


# ASCII digits, at most one point and an optional exponent; nan, inf and
# infinity pass, so that the finite check names them
_CSV_NUMBER = re.compile(r"[+-]?((\d+\.?\d*|\.\d+)(e[+-]?\d+)?|nan|inf(inity)?)", re.I | re.A)


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
        # float alone would also take digit-group underscores and non-ASCII digits
        if not all(_CSV_NUMBER.fullmatch(v.strip()) for v in fields[:4]):
            raise FormatError(f"line {line_no}: non-numeric measurement")
        row = [float(v) for v in fields[:4]]
        if not all(map(math.isfinite, row)):
            raise FormatError(f"line {line_no}: measurement is not a finite number")
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


def binarize(dataset: LabeledImageDataset) -> LabeledImageDataset:
    """Map each pixel to 1 when nonzero, else 0: binarization at threshold 0."""
    if dataset.channel_count != 1:
        raise InvalidParameter("binarize expects a single-channel dataset")
    images = (dataset.images > 0).astype(np.uint8)
    return LabeledImageDataset(
        images=images,
        labels=dataset.labels,
        class_names=dataset.class_names,
        pixel_value_count=2,
    )


class _Stream:
    """An open payload whose reads fill numpy arrays. Errors name the file,
    when there is one; damaged gzip data raises a DcxError too."""

    def __init__(self, handle, name: str = "") -> None:
        self.handle, self.name = handle, name

    def error(self, kind: type, message: str) -> Exception:
        return kind(f"{self.name}: {message}" if self.name else message)

    def _readinto(self, view) -> int:
        try:
            return self.handle.readinto(view)
        except EOFError:
            raise self.error(TruncatedInput, "gzip stream ends early") from None
        except (zlib.error, gzip.BadGzipFile) as exc:
            raise self.error(FormatError, f"damaged gzip stream ({exc})") from None

    def fill(self, out: np.ndarray) -> np.ndarray:
        """Read exactly the bytes of the contiguous uint8 array out, 1 MiB per
        request: gzip decompresses a whole request into a temporary first."""
        view = memoryview(out.reshape(-1))
        for start in range(0, len(view), 1 << 20):
            chunk = view[start : start + (1 << 20)]
            if self._readinto(chunk) != len(chunk):
                raise self.error(TruncatedInput, "payload ends early")
        return out

    def end(self) -> None:
        if self._readinto(bytearray(1)):
            raise self.error(TruncatedInput, "bytes left over after the last whole image")


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


def _open(data_dir, split, subdirs, parts, class_names, shape_of, read) -> ImageStream:
    """Find each file of split and open it once; parts maps train and test
    to groups of file names, one group per run of images. Every header is
    read before this returns; the payloads are read as the stream is."""
    if split not in ("train", "test", "all"):
        raise InvalidParameter("split must be train, test, or all")
    directory = Path(data_dir)
    if not directory.is_dir():
        raise FileNotFoundError(f"{directory} is not a directory")
    directory = next((directory / s for s in subdirs if (directory / s).is_dir()), directory)
    paths = [[_find_file(directory, name) for name in group]
             for part in (("train", "test") if split == "all" else (split,))
             for group in parts[part]]

    def decode():
        with ExitStack() as stack:
            groups = [[stack.enter_context(_payload(path)) for path in group] for group in paths]
            total = yield from _decode(groups, shape_of, read)
        if not total:
            raise DegenerateInput(f"{directory} holds no images for split {split}")

    return _streamed(decode(), class_names)


def _streamed(decoder, class_names: tuple[str, ...]) -> ImageStream:
    """The stream of a _decode generator, once it has read every header."""
    return ImageStream(shape=next(decoder), class_names=class_names, reader=decoder)


def _collect(stream: ImageStream) -> LabeledImageDataset:
    """The stream's blocks gathered into one image array and one label array."""
    count = stream.image_count
    check_budget(count * (math.prod(stream.shape[1:]) + 8), f"loading {count} images")
    images = np.empty(stream.shape, dtype=np.uint8)
    labels = np.empty(count, dtype=np.int64)
    start = 0
    for block, block_labels in stream.blocks():
        images[start : start + len(block)] = block
        labels[start : start + len(block)] = block_labels
        start += len(block)
    return LabeledImageDataset(images=images, labels=labels, class_names=stream.class_names)


def _decode(groups, shape_of, read):
    """Generator over groups of (stream, length) pairs, one run of images
    per group. It yields first the (N, H, W, C) shape of all their images,
    which shape_of(group) gives from the headers before any payload is read,
    then each block that read(group, shape) yields; each stream must then be
    at its end. It returns N."""
    shapes = [shape_of(group) for group in groups]
    if len({shape[1:] for shape in shapes}) != 1:
        raise FormatError("train and test images differ in size")
    total = sum(shape[0] for shape in shapes)
    # one block of images and label bytes, and what a measure keeps per
    # image: a float64 per channel and an int64 label
    per_image, channels = math.prod(shapes[0][1:]), shapes[0][3]
    check_budget(min(BLOCK_IMAGES, total) * (per_image + 1) + total * 8 * (channels + 1),
                 f"streaming {total} images")
    yield (total, *shapes[0][1:])
    for group, shape in zip(groups, shapes):
        yield from read(group, shape)
        for stream, _ in group:
            stream.end()
    return total


def _idx_header(stream: _Stream, length: int) -> tuple[int, ...]:
    """The dimension sizes from the IDX header at the start of stream, whose
    payload is length bytes; they must promise exactly that length."""
    if length < 4:
        raise stream.error(TruncatedInput, "IDX header needs at least 4 bytes")
    first, second, type_code, ndim = stream.fill(np.empty(4, dtype=np.uint8)).tolist()
    if first or second:
        raise stream.error(FormatError, "bad IDX magic: first two bytes must be zero")
    if type_code != _IDX_UBYTE:
        raise stream.error(FormatError, f"unsupported IDX type code 0x{type_code:02x}")
    if length < 4 + 4 * ndim:
        raise stream.error(TruncatedInput, "IDX header ends before all dimension sizes")
    sizes = tuple(stream.fill(np.empty(4 * ndim, dtype=np.uint8)).view(">u4").tolist())
    if 4 + 4 * ndim + math.prod(sizes) != length:
        raise stream.error(TruncatedInput, f"IDX payload holds {length - 4 - 4 * ndim} "
                                           f"bytes, header promises {math.prod(sizes)}")
    return sizes


def _mnist_shape(group) -> tuple[int, ...]:
    """The images' shape from the image and label IDX headers."""
    sizes = [_idx_header(stream, length) for stream, length in group]
    if len(sizes[0]) != 3:
        raise group[0][0].error(FormatError, "expected a 3-dimensional tensor")
    if sizes[1] != sizes[0][:1]:
        raise group[1][0].error(FormatError, "label count does not match images")
    return (*sizes[0], 1)


def _check_labels(stream: _Stream, labels: np.ndarray) -> None:
    if len(labels) and labels.max() > 9:
        raise stream.error(FormatError, f"label byte {labels.max()} outside 0..9")


def _read_mnist(group, shape):
    """Blocks of the image and label files' payloads, read side by side."""
    (image_stream, _), (label_stream, _) = group
    images = np.empty((min(BLOCK_IMAGES, shape[0]), *shape[1:]), dtype=np.uint8)
    labels = np.empty(len(images), dtype=np.uint8)
    for start in range(0, shape[0], BLOCK_IMAGES):
        count = min(BLOCK_IMAGES, shape[0] - start)
        image_stream.fill(images[:count])
        _check_labels(label_stream, label_stream.fill(labels[:count]))
        yield images[:count], labels[:count]


def _cifar_shape(group) -> tuple[int, ...]:
    """The shape of the batch's whole records; _Stream.end refuses a partial
    one."""
    return (group[0][1] // _CIFAR_RECORD, 32, 32, 3)


def _read_cifar(group, shape):
    """Blocks of the batch's records: a label byte in 0..9, then the red,
    green and blue planes, each a row-major 32 x 32 grid. A block's images
    are an N x 32 x 32 x 3 view of its records, whose strides keep that
    channel-major storage order."""
    stream = group[0][0]
    records = np.empty((min(BLOCK_IMAGES, shape[0]), _CIFAR_RECORD), dtype=np.uint8)
    for start in range(0, shape[0], BLOCK_IMAGES):
        block = stream.fill(records[: min(BLOCK_IMAGES, shape[0] - start)])
        _check_labels(stream, block[:, 0])
        yield block[:, 1:].reshape(len(block), 3, 32, 32).transpose(0, 2, 3, 1), block[:, 0]


_MNIST_FILES = {
    "train": [("train-images-idx3-ubyte", "train-labels-idx1-ubyte")],
    "test": [("t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte")],
}
_CIFAR_FILES = {"train": [(f"data_batch_{i}.bin",) for i in range(1, 6)], "test": [("test_batch.bin",)]}


def stream_mnist(data_dir: str | Path, split: str = "all") -> ImageStream:
    """Open MNIST IDX files in data_dir (or a mnist/ subdirectory).

    split is train, test, or all (train followed by test).
    """
    return _open(data_dir, split, ("mnist",), _MNIST_FILES, MNIST_CLASS_NAMES,
                 _mnist_shape, _read_mnist)


def stream_cifar10(data_dir: str | Path, split: str = "all") -> ImageStream:
    """Open CIFAR-10 binary batches in data_dir or its usual subdirectory."""
    return _open(data_dir, split, ("cifar-10-batches-bin", "cifar10"), _CIFAR_FILES,
                 CIFAR10_CLASS_NAMES, _cifar_shape, _read_cifar)


def load_mnist(data_dir: str | Path, split: str = "all") -> LabeledImageDataset:
    """Load MNIST IDX files from data_dir (or a mnist/ subdirectory) into
    one array, as stream_mnist reads them."""
    return _collect(stream_mnist(data_dir, split))


def load_cifar10(data_dir: str | Path, split: str = "all") -> LabeledImageDataset:
    """Load CIFAR-10 binary batches into one array, as stream_cifar10 reads them."""
    return _collect(stream_cifar10(data_dir, split))


def load_iris(path: str | Path | None = None) -> TabularDataset:
    """Load the iris table; without a path, the bundled copy is used."""
    if path is not None:
        return parse_iris_csv(Path(path).read_text(encoding="utf-8"))
    ref = resources.files("dcx").joinpath("data/iris.csv")
    return parse_iris_csv(ref.read_text(encoding="utf-8"))
