"""Bit-exact readers for the case-study datasets: IDX tensors (MNIST),
CIFAR-10 binary batches, and the Iris CSV.

Each binary format has one decoder, a generator that reads every header
first, then yields the images in blocks of at most BLOCK_IMAGES, then
checks that each file ends where its header says. A block is raw: the
image records' bytes as the file holds them, in a bytearray, and one label
byte per image; the readers import no numpy. stream_mnist and
stream_cifar10 hand the decoder out as an ImageStream, so a measure holds
one block at a time and never the whole image array. A measure that only
counts zero bytes reads the raw blocks; ImageStream.blocks() makes numpy
views of them, without copying, for the others. load_mnist and
load_cifar10 gather those views into one array. parse_idx and
parse_cifar10 run the same header and record readers over an in-memory
stream, so a parser and its loader accept and refuse the same bytes, with
the same message bar the loader's file-name prefix. Loaders locate files
in a local directory and never touch the network.
"""

from __future__ import annotations

import gzip
import io
import math
import os
import re
import zlib
from contextlib import ExitStack, closing, contextmanager
from pathlib import Path
from typing import TYPE_CHECKING, Iterator

from .errors import (
    DegenerateInput,
    FormatError,
    InvalidParameter,
    Record,
    TruncatedInput,
    bundled_text,
    check_budget,
    check_count,
    check_real,
    read_text,
)

if TYPE_CHECKING:
    import numpy as np

# numpy is imported only where an array is made (parse_idx, the numpy
# views of ImageStream.blocks(), the loaders), so the iris table and the
# raw image blocks load without it.

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
# kernels in dataset_metrics. A CIFAR-10 block is a 0.2 MB bytearray of
# records, which blocks() only views as numpy arrays, and the kernels'
# temporaries for it (entropy's bins, Gini's float shares) up to 1.6 MB
# each: that, not the dataset's size, is what a streamed
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


class LabeledImageDataset(_ImageCounts, Record, eq=False):
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
        labels = self.labels
        if len(labels) and (labels.dtype.kind not in "iu" or labels.min() < 0
                            or labels.max() >= len(self.class_names)):
            raise InvalidParameter("each label must be an integer index into class_names")

    @property
    def shape(self) -> tuple[int, ...]:
        return self.images.shape

    def blocks(self) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """The whole dataset as one block of (images, labels)."""
        yield self.images, self.labels


class ImageStream(_ImageCounts, Record, eq=False):
    """A dataset's images, read from its files one block at a time.

    shape is the whole N x H x W x C array's, as the file headers state it
    before any payload is read. The reader yields, once, raw blocks of at
    most BLOCK_IMAGES images in file order, then checks that each file ends
    where its header says. A raw block is a pair (records, labels) of
    bytearrays: records holds the block's image records back to back,
    record_size bytes each, whose pixels start pixel_offset bytes in (1 for
    CIFAR-10's label byte) and are stored channel-major, C planes of H x W;
    labels holds one byte per image. raw_blocks() yields those pairs, and
    blocks() numpy (images, labels) views of them. Either may be read once,
    and only one of them. A block's bytes may be overwritten by the next
    block, so copy what must outlive it. The files stay open until the last
    block is read, the iteration is closed or the stream is dropped.
    """

    shape: tuple[int, int, int, int]
    class_names: tuple[str, ...]
    reader: Iterator[tuple[bytearray, bytearray]]
    pixel_value_count: int = 256
    pixel_offset: int = 0

    @property
    def record_size(self) -> int:
        return self.pixel_offset + math.prod(self.shape[1:])

    def raw_blocks(self) -> Iterator[tuple[bytearray, bytearray]]:
        with closing(self.reader) as reader:
            yield from reader

    def blocks(self) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """N x H x W x C uint8 views of each raw block's pixels, whose
        strides keep the channel-major storage order, and its labels."""
        import numpy as np

        _, height, width, channels = self.shape
        for records, labels in self.raw_blocks():
            count = len(labels)
            pixels = np.frombuffer(records, np.uint8).reshape(count, self.record_size)
            images = pixels[:, self.pixel_offset :].reshape(count, channels, height, width)
            yield images.transpose(0, 2, 3, 1), np.frombuffer(labels, np.uint8)


def _items(values, what: str) -> Iterator:
    try:
        return iter(values)
    except TypeError:
        raise InvalidParameter(f"{what} must be a sequence, not {type(values).__name__}") from None


class TabularDataset(Record, eq=False):
    """Numeric feature rows with one class label each, stored as a tuple of
    float tuples and a tuple of class indices; any sequences of finite real
    numbers, numpy arrays too, are converted."""

    features: tuple[tuple[float, ...], ...]
    labels: tuple[int, ...]
    feature_names: tuple[str, ...]
    class_names: tuple[str, ...]

    def __post_init__(self) -> None:
        features = tuple(
            tuple(check_real(v, "each feature value") for v in _items(row, "each feature row"))
            for row in _items(self.features, "features")
        )
        if not features:
            raise DegenerateInput("a table needs at least one row")
        if any(len(row) != len(self.feature_names) for row in features):
            raise InvalidParameter("one name per feature column required")
        labels = tuple(check_count(label, "label", 0) for label in _items(self.labels, "labels"))
        if len(labels) != len(features):
            raise InvalidParameter("one label per row required")
        if any(label >= len(self.class_names) for label in labels):
            raise InvalidParameter("label index outside class_names")
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "labels", labels)

    @property
    def row_count(self) -> int:
        return len(self.features)


def parse_idx(data: bytes) -> np.ndarray:
    """Decode an IDX byte tensor with the MNIST loader's header reader.

    Header: two zero bytes, the unsigned-byte type code 0x08, a dimension
    count, then one big-endian uint32 size per dimension; the payload is
    row-major and must hold exactly the product of the sizes.
    """
    import numpy as np

    stream = _Stream(io.BytesIO(data))
    sizes = _idx_header(stream, len(data))
    try:
        tensor = np.empty(sizes, dtype=np.uint8)
    except ValueError:  # more dimensions than a numpy array can have
        raise FormatError(f"IDX tensor has {len(sizes)} dimensions, too many for numpy") from None
    stream.fill(tensor.reshape(-1))
    return tensor


def parse_cifar10(data: bytes) -> LabeledImageDataset:
    """Decode CIFAR-10 binary batch records with the loader's record reader.

    Each record is a label byte followed by three 1024-byte channel planes
    (red, green, blue), each a row-major 32 x 32 grid.
    """
    group = [(_Stream(io.BytesIO(data)), len(data))]
    decoder = _decode([group], _cifar_shape, _read_cifar)
    return _collect(_streamed(decoder, CIFAR10_CLASS_NAMES, pixel_offset=1))


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
    return TabularDataset(
        features=features,
        labels=labels,
        feature_names=IRIS_FEATURE_NAMES,
        class_names=IRIS_CLASS_NAMES,
    )


def binarize(dataset: LabeledImageDataset) -> LabeledImageDataset:
    """Map each pixel to 1 when nonzero, else 0: binarization at threshold 0."""
    if dataset.channel_count != 1:
        raise InvalidParameter("binarize expects a single-channel dataset")
    images = (dataset.images > 0).astype("uint8")
    return LabeledImageDataset(
        images=images,
        labels=dataset.labels,
        class_names=dataset.class_names,
        pixel_value_count=2,
    )


class _Stream:
    """An open payload whose reads fill bytearrays and numpy arrays. Errors
    name the file, when there is one; damaged gzip data raises a DcxError
    too."""

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

    def fill(self, out):
        """Read exactly len(out) bytes into out, a bytearray or a flat uint8
        array, 1 MiB per request: gzip decompresses a whole request into a
        temporary first."""
        view = memoryview(out)
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


def _open(data_dir, split, subdirs, parts, class_names, shape_of, read,
          pixel_offset: int) -> ImageStream:
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

    return _streamed(decode(), class_names, pixel_offset)


def _streamed(decoder, class_names: tuple[str, ...], pixel_offset: int) -> ImageStream:
    """The stream of a _decode generator, once it has read every header."""
    return ImageStream(shape=next(decoder), class_names=class_names, reader=decoder,
                       pixel_offset=pixel_offset)


def _collect(stream: ImageStream) -> LabeledImageDataset:
    """The stream's blocks gathered into one image array and one label array."""
    import numpy as np

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
    if not math.prod(shapes[0][1:]):  # no fraction or entropy of no values
        _, height, width, _ = shapes[0]
        raise groups[0][0][0].error(
            DegenerateInput, f"header gives images of {height} x {width} pixels: empty image")
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
    first, second, type_code, ndim = stream.fill(bytearray(4))
    if first or second:
        raise stream.error(FormatError, "bad IDX magic: first two bytes must be zero")
    if type_code != _IDX_UBYTE:
        raise stream.error(FormatError, f"unsupported IDX type code 0x{type_code:02x}")
    if length < 4 + 4 * ndim:
        raise stream.error(TruncatedInput, "IDX header ends before all dimension sizes")
    raw = stream.fill(bytearray(4 * ndim))
    sizes = tuple(int.from_bytes(raw[i : i + 4], "big") for i in range(0, len(raw), 4))
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


def _check_labels(stream: _Stream, labels: bytearray) -> None:
    if labels and max(labels) > 9:
        raise stream.error(FormatError, f"label byte {max(labels)} outside 0..9")


def _read_mnist(group, shape):
    """Raw blocks of the image and label files' payloads, read side by side."""
    (image_stream, _), (label_stream, _) = group
    size = math.prod(shape[1:])
    images = labels = bytearray()
    for start in range(0, shape[0], BLOCK_IMAGES):
        count = min(BLOCK_IMAGES, shape[0] - start)
        if count != len(labels):  # the first block, and a shorter last one
            images, labels = bytearray(count * size), bytearray(count)
        image_stream.fill(images)
        _check_labels(label_stream, label_stream.fill(labels))
        yield images, labels


def _cifar_shape(group) -> tuple[int, ...]:
    """The shape of the batch's whole records; _Stream.end refuses a partial
    one."""
    return (group[0][1] // _CIFAR_RECORD, 32, 32, 3)


def _read_cifar(group, shape):
    """Raw blocks of the batch's records: a label byte in 0..9, then the
    red, green and blue planes, each a row-major 32 x 32 grid."""
    stream = group[0][0]
    records = bytearray()
    for start in range(0, shape[0], BLOCK_IMAGES):
        count = min(BLOCK_IMAGES, shape[0] - start)
        if count * _CIFAR_RECORD != len(records):  # the first block, and a shorter last one
            records = bytearray(count * _CIFAR_RECORD)
        stream.fill(records)
        labels = records[::_CIFAR_RECORD]
        _check_labels(stream, labels)
        yield records, labels


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
                 _mnist_shape, _read_mnist, pixel_offset=0)


def stream_cifar10(data_dir: str | Path, split: str = "all") -> ImageStream:
    """Open CIFAR-10 binary batches in data_dir or its usual subdirectory."""
    return _open(data_dir, split, ("cifar-10-batches-bin", "cifar10"), _CIFAR_FILES,
                 CIFAR10_CLASS_NAMES, _cifar_shape, _read_cifar, pixel_offset=1)


def load_mnist(data_dir: str | Path, split: str = "all") -> LabeledImageDataset:
    """Load MNIST IDX files from data_dir (or a mnist/ subdirectory) into
    one array, as stream_mnist reads them."""
    return _collect(stream_mnist(data_dir, split))


def load_cifar10(data_dir: str | Path, split: str = "all") -> LabeledImageDataset:
    """Load CIFAR-10 binary batches into one array, as stream_cifar10 reads them."""
    return _collect(stream_cifar10(data_dir, split))


def load_iris(path: str | Path | None = None) -> TabularDataset:
    """Load the iris table; without a path, the bundled copy is used."""
    text = bundled_text("iris.csv") if path is None else read_text(path)
    return parse_iris_csv(text)
