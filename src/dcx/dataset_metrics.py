"""Complexity measures over ingested datasets: feature-space dimensionality,
zero-fraction sparsity, per-image entropy, per-channel and per-class Gini,
and boxplot-style class summaries.

The zero fraction and the binarized entropy of an image depend only on how
many of its bytes are nonzero, counted in plain Python from a stream's raw
blocks or by np.count_nonzero in an array. A zero sparsity (zeros over all
values) and a channel Gini index (of exact integer rank sums) are ratios
rounded once; the raw entropy histograms and the rank sums are numpy kernels.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left, bisect_right
from contextlib import closing
from functools import lru_cache
from typing import TYPE_CHECKING

from .datasets import BLOCK_IMAGES, ImageStream, LabeledImageDataset, TabularDataset
from .errors import (
    DegenerateInput,
    InvalidParameter,
    Record,
    ResourceLimit,
    check_budget,
    check_count,
    count_text,
    replace,
)
# histogram and shannon_entropy are no longer called here, but stay
# importable from this module: the benchmark's traced run
# (perfbench/spans.py) wraps them under these names.
from .measures import (  # noqa: F401
    ANALYTIC,
    MeasureResult,
    gini,
    histogram,
    log10_product,
    normalized_entropy,
    pairwise_sum,
    real_array,
    shannon_entropy,
)

if TYPE_CHECKING:
    import numpy as np

# numpy is imported inside the array kernels, so the iris measures and the
# counting measures over a stream load without it.

# log2 of the 256 intensity bins an image entropy is normalized by
_LOG2_BINS = math.log2(256)


def feature_space_dimensionality(dataset: LabeledImageDataset | ImageStream) -> float:
    """log10 of pixels x channels x classes x pixel values x images."""
    return log10_product(
        [
            dataset.pixel_count,
            dataset.channel_count,
            dataset.class_count,
            dataset.pixel_value_count,
            dataset.image_count,
        ]
    )


def _image_rows(images) -> np.ndarray:
    """The N x ... uint8 array as N rows of pooled values; refuses other
    dtypes and empty images.

    Pooling ignores the order of an image's values, so an N x H x W x C
    view of channel-major storage (a CIFAR-10 block) is pooled in that
    order, without copying it into pixel-major order first."""
    import numpy as np

    arr = np.asarray(images)
    if arr.ndim < 1:
        raise InvalidParameter("expected an N x H x W x C array of images")
    if arr.dtype != np.uint8:
        raise InvalidParameter(f"expected uint8 images, got dtype {arr.dtype}")
    per_image = int(np.prod(arr.shape[1:]))
    if per_image == 0 and len(arr):
        raise DegenerateInput("empty image")
    if arr.ndim == 4 and arr.strides[3] > arr.strides[1]:
        arr = arr.transpose(0, 3, 1, 2)
    return arr.reshape(len(arr), per_image)


def _nonzero_counts(records, record_size: int, offset: int) -> list[int]:
    """Per record of the bytes records, record_size bytes each, the count of
    its nonzero bytes from offset on.

    bytes.count branches on each byte: about 0.5 ns a byte where zeros are
    rare (CIFAR-10) and 2.5 ns where four in five bytes are zero (MNIST),
    against a steady 1.9 ns for a count of the bits set in the bytes'
    translation to 0 and 1 (Python 3.11, x86-64). It wins on the two
    datasets together."""
    size = record_size - offset
    return [size - records.count(0, i, i + size) for i in range(offset, len(records), record_size)]


class _Memo(dict):
    """function's values by argument, each computed when first looked up."""

    def __init__(self, function) -> None:
        self.function = function

    def __missing__(self, key):
        value = self[key] = self.function(key)
        return value


@lru_cache(maxsize=2)
def _plogp(size: int) -> _Memo:
    """p * log2(p) for p = c / size by the count c, 0.0 at c = 0: the terms
    a histogram of one image of size values can hold, each taken when first
    needed, since at most 256 of the size + 1 counts occur in an image. Each
    term is shannon_entropy's, taken with math.log2, whose last bit numpy's
    log2 does not always give."""
    return _Memo(lambda c: c / size * math.log2(c / size) if c else 0.0)


@lru_cache(maxsize=2)
def _binarized_entropy(size: int) -> _Memo:
    """The normalized entropy of an image of size values by its count k of
    nonzero ones, binarized: zeros fill the first bin, the rest the last. A
    pairwise sum of two terms is one addition, and an empty bin adds
    plogp[0] = 0.0; 0.0 - s, not -s, as shannon_entropy."""
    plogp = _plogp(size)
    return _Memo(lambda k: (0.0 - (plogp[size - k] + plogp[k])) / _LOG2_BINS)


def _binarized_entropies(counts: list[int], size: int) -> list[float]:
    """The binarized normalized entropy of each image of size values that
    has count nonzero ones."""
    return list(map(_binarized_entropy(size).__getitem__, counts))


def _counted(images) -> tuple[list[int], int]:
    """The nonzero count of each image of images, an N x ... uint8 array,
    a chunk of BLOCK_IMAGES images at a time, and the values per image.

    An array is counted by np.count_nonzero, which gives _nonzero_counts'
    counts four times faster than it does over the array's bytes: 10 ms
    against 40 ms for 17,600 MNIST-shaped images at 81% zeros (best of 7,
    2-vCPU x86-64)."""
    import numpy as np

    rows = _image_rows(images)
    counts = []
    for start in range(0, len(rows), BLOCK_IMAGES):
        counts += np.count_nonzero(rows[start : start + BLOCK_IMAGES], axis=1).tolist()
    return counts, rows.shape[1]


def image_zero_sparsities(images) -> np.ndarray:
    """Per image, the fraction of zero values: its zeros over its values,
    rounded once."""
    import numpy as np

    counts, size = _counted(images)
    return np.array([(size - k) / size for k in counts], dtype=float)


def _pairwise_row_sums(terms: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """Per row, the sum of the terms where keep holds, in column order.

    Equals numpy's pairwise sum of each row's compressed vector
    terms[i][keep[i]]: kept terms move to the front in column order, and
    rows with the same kept count are summed as one [rows, :k] block.
    Padding a row with zeros instead would change the pairwise tree.
    """
    import numpy as np

    order = np.argsort(~keep, axis=1, kind="stable")
    packed = np.take_along_axis(terms, order, axis=1)
    lengths = keep.sum(axis=1)
    sums = np.zeros(len(terms))
    # the distinct counts, ascending; np.unique would import numpy.ma
    for k in np.flatnonzero(np.bincount(lengths)):
        rows = np.flatnonzero(lengths == k)
        sums[rows] = packed[rows, :k].sum(axis=1)
    return sums


@lru_cache(maxsize=2)
def _plogp_array(size: int) -> np.ndarray:
    """_plogp(size) as a float array indexed by the count, NaN where
    image_entropies has not yet copied a term in; 8 bytes a count, charged
    to the memory budget. Every call with one size shares it."""
    import numpy as np

    check_budget(8 * (size + 1), f"entropy terms for images of {count_text(size)} values")
    table = np.full(size + 1, np.nan)
    table[0] = 0.0
    return table


# the raw entropy kernel offsets each image's values by 256 times its index
# in the chunk; in uint16 while the largest key fits, as bincount's input
# is half the bytes of intp
_BIN_KEY = "uint16" if BLOCK_IMAGES * 256 <= 1 << 16 else "intp"


def image_entropies(images, binarize_first: bool = False) -> np.ndarray:
    """Per image, the normalized entropy of its pooled intensity histogram.

    images is an N x H x W x C uint8 array (any N x ... uint8 array works:
    each image pools all its values). Each of the 256 values is its own
    bin, as in measures.histogram with 256 bins over [0, 255];
    binarize_first sends nonzero values to 255 first. The entropy of the
    bin frequencies, in bits, is divided by log2(256). Per image, the
    pairwise sum of the same p * log2(p) terms as numpy sums them, so the
    value is shannon_entropy(histogram(...).probabilities()) / log2(256)
    bit for bit.
    """
    import numpy as np

    if binarize_first:
        return np.array(_binarized_entropies(*_counted(images)), dtype=float)
    rows = _image_rows(images)
    count, size = rows.shape
    plogp, table = _plogp(size), _plogp_array(size)
    out = np.empty(count)
    for start in range(0, count, BLOCK_IMAGES):
        chunk = rows[start : start + BLOCK_IMAGES]
        # offset each image's values so that one bincount counts every image
        bins = chunk.astype(_BIN_KEY)
        bins += np.arange(0, len(chunk) * 256, 256, dtype=_BIN_KEY)[:, None]
        counts = np.bincount(bins.ravel(), minlength=len(chunk) * 256)
        counts = counts.reshape(len(chunk), 256)
        keep = counts > 0
        sums = _pairwise_row_sums(table[counts], keep)
        if np.isnan(sums).any():  # a count whose term is not in the table yet
            present = np.flatnonzero(np.bincount(counts.ravel()))
            table[present] = [plogp[c] for c in present.tolist()]
            sums = _pairwise_row_sums(table[counts], keep)
        out[start : start + len(chunk)] = 0.0 - sums  # 0.0, not -0.0, as shannon_entropy
    return out / _LOG2_BINS


def image_entropy(image: np.ndarray, binarize_first: bool = False) -> MeasureResult:
    """Normalized entropy of the intensities of one uint8 image: the
    one-image case of image_entropies.

    Multi-channel images pool every channel value into one histogram.
    binarize_first sends nonzero pixels to 255 first, so mass lands in the
    first and last bins only.
    """
    import numpy as np

    value = image_entropies(np.asarray(image).reshape(1, -1), binarize_first)[0]
    mode = "binarized to bins 0 and 255" if binarize_first else "raw intensities"
    return MeasureResult(
        measure_name="image_entropy",
        value=value,
        convention=f"{mode}; 256 equal bins over [0, 255]; all channels pooled; event_count = 256",
        provenance=ANALYTIC,
    )


def channel_ginis(images) -> tuple[np.ndarray, int]:
    """Per image and channel, the Gini index of the channel plane.

    images is an N x H x W x C uint8 array. Returns the N x C values, NaN
    where a plane is all zero (its Gini is undefined), and the count of
    those planes. Each value is measures.gini's ratio of rank sums, exact in
    int64 while 255 n^2 < 2^63 and bit-identical to measures.gini while
    n sum_k x_k < 2^53, that is for planes of up to about 5.9M pixels.
    Planes of n pixels past the int64 bound, or whose rank weights and one
    chunk's sorted planes exceed the memory budget, are refused with
    ResourceLimit before anything is allocated.
    """
    import numpy as np

    arr = np.asarray(images)
    if arr.ndim != 4:
        raise InvalidParameter("expected an N x H x W x C array of images")
    if arr.dtype != np.uint8:
        raise InvalidParameter(f"expected uint8 images, got dtype {arr.dtype}")
    count, height, width, channels = arr.shape
    n = height * width
    if n == 0 and count * channels:
        raise DegenerateInput("gini needs at least one value")
    if 255 * n * n >= 1 << 63:
        raise ResourceLimit(f"planes of {count_text(n)} pixels overflow the int64 rank sums")
    # 16 bytes a pixel of rank weights, and per chunk 9 a value: the sorted
    # planes and the int64 copy of them that the integer product makes
    check_budget(n * (16 + 9 * min(count, BLOCK_IMAGES) * channels),
                 f"the Gini index of planes of {count_text(n)} pixels")
    # the rank weights 2k - n - 1 and 1: per sorted plane, both sums at once
    weights = np.stack([np.arange(1 - n, n, 2), np.ones(n, dtype=np.int64)], axis=1)
    out = np.empty((count, channels))
    all_zero = 0
    for start in range(0, count, BLOCK_IMAGES):
        chunk = arr[start : start + BLOCK_IMAGES]
        # one row per (image, channel) plane, radix-sorted (a stable uint8 sort)
        planes = chunk.transpose(0, 3, 1, 2).reshape(-1, n)
        ranked, totals = (np.sort(planes, axis=1, kind="stable") @ weights).T
        all_zero += int(np.count_nonzero(totals == 0))
        values = np.divide(ranked, n * totals, out=np.full(len(totals), np.nan), where=totals > 0)
        out[start : start + len(chunk)] = values.reshape(len(chunk), channels)
    return out, all_zero


def channel_gini(image: np.ndarray, channel: int) -> float:
    """Gini index over one channel plane of an H x W x C uint8 image: the
    one-image, one-channel case of channel_ginis."""
    import numpy as np

    arr = np.asarray(image)
    if arr.ndim == 2:
        arr = arr[:, :, None]
    if arr.ndim != 3:
        raise InvalidParameter("expected an H x W x C image")
    if check_count(channel, "channel", 0) >= arr.shape[2]:
        raise InvalidParameter(f"channel {count_text(channel)} outside 0..{arr.shape[2] - 1}")
    values, all_zero = channel_ginis(arr[None, :, :, channel : channel + 1])
    if all_zero:
        raise DegenerateInput("gini is undefined for an all-zero array")
    return float(values[0, 0])


def _resolve(name_or_index, names: tuple[str, ...], kind: str) -> int:
    if isinstance(name_or_index, str):
        try:
            return names.index(name_or_index)
        except ValueError:
            raise InvalidParameter(f"unknown {kind} {name_or_index!r}") from None
    index = check_count(name_or_index, kind, 0)
    if index >= len(names):
        raise InvalidParameter(f"{kind} index {index} outside 0..{len(names) - 1}")
    return index


def tabular_gini(dataset: TabularDataset, class_ref, feature_ref) -> float:
    """Gini over the raw values of one (class, feature) cell."""
    class_index = _resolve(class_ref, dataset.class_names, "class")
    feature_index = _resolve(feature_ref, dataset.feature_names, "feature")
    values = [row[feature_index]
              for row, label in zip(dataset.features, dataset.labels) if label == class_index]
    if len(values) < 2:
        raise DegenerateInput("class needs at least two rows")
    return gini(values)


def _sorted_median(sorted_values) -> float:
    """The median of values sorted ascending, NaN last, bit for bit as
    np.median gives it, which would import numpy.ma: the mean of the one or
    two middle values, summed as numpy sums them; NaN if any value is NaN
    or there are none."""
    n = len(sorted_values)
    if not n or math.isnan(sorted_values[-1]):
        return math.nan
    middles = [float(v) for v in sorted_values[(n - 1) // 2 : n // 2 + 1]]
    return pairwise_sum(middles) / len(middles)


def _nan_median(values) -> float:
    """np.nanmedian of a 1-d float array: the median of its values that are
    not NaN, or NaN if none is."""
    import numpy as np

    ordered = np.sort(values)
    return _sorted_median(ordered[: len(ordered) - int(np.count_nonzero(np.isnan(ordered)))])


def _midpoint_quartiles(sorted_values) -> tuple[float, float, float]:
    """Median and Tukey hinges: the median joins both halves when N is odd."""
    n = len(sorted_values)
    half = n // 2
    lower = sorted_values[: half + (n % 2)]
    upper = sorted_values[half:]
    return _sorted_median(lower), _sorted_median(sorted_values), _sorted_median(upper)


class ClassSummary(Record):
    """Boxplot-style five-number summary for one class."""

    class_name: str
    count: int
    mean: float
    median: float
    q1: float
    q3: float
    whisker_low: float
    whisker_high: float
    outlier_count: int


def _finite_values(values) -> list[float]:
    """values as a list of Python floats; InvalidParameter unless they are a
    sequence of finite real numbers. A list of floats is checked as it is;
    anything else, an array too, is read by measures.real_array."""
    if not (isinstance(values, list) and all(type(v) is float for v in values)):
        arr = real_array(values, "per-item")
        if arr.ndim != 1:
            raise InvalidParameter("per-item values must be a sequence of numbers")
        values = arr.tolist()
    if not all(map(math.isfinite, values)):
        raise InvalidParameter("each per-item value must be a finite number")
    return values


def _class_indices(labels, count: int, class_count: int):
    """labels as a sequence of Python ints, one per value of count; bytes and
    lists of ints are read as they are, anything else through numpy."""
    if not (isinstance(labels, (bytes, bytearray))
            or isinstance(labels, list) and all(type(v) is int for v in labels)):
        import numpy as np

        arr = np.asarray(labels)
        if len(arr) != count:
            raise InvalidParameter("values and labels must align")
        if arr.size and (arr.ndim != 1 or arr.dtype.kind not in "iu"):
            raise InvalidParameter("each label must be an integer index into class_names")
        labels = arr.tolist()
    if len(labels) != count:
        raise InvalidParameter("values and labels must align")
    if labels and (min(labels) < 0 or max(labels) >= class_count):
        raise InvalidParameter("each label must be an integer index into class_names")
    return labels


def _summary(ordered: list[float], class_name: str) -> ClassSummary:
    """The summary of a non-empty ascending list of finite floats. Its mean
    adds them in that order, as numpy's mean of the sorted array does."""
    q1, median, q3 = _midpoint_quartiles(ordered)
    iqr = q3 - q1
    fence_low = q1 - 1.5 * iqr
    fence_high = q3 + 1.5 * iqr
    return ClassSummary(
        class_name=class_name,
        count=len(ordered),
        mean=pairwise_sum(ordered) / len(ordered),
        median=median,
        q1=q1,
        q3=q3,
        whisker_low=max(fence_low, ordered[0]),
        whisker_high=min(fence_high, ordered[-1]),
        outlier_count=bisect_left(ordered, fence_low) + len(ordered)
        - bisect_right(ordered, fence_high),
    )


def summarize_by_class(
    per_item_values, labels, class_names: tuple[str, ...]
) -> list[ClassSummary]:
    """Group values by label and summarize each class; classes without
    members are omitted. The values must be a sequence of finite real
    numbers, and each label must index class_names."""
    values = _finite_values(per_item_values)
    members = [[] for _ in class_names]
    for value, label in zip(values, _class_indices(labels, len(values), len(class_names))):
        members[label].append(value)
    return [_summary(sorted(m), name) for m, name in zip(members, class_names) if m]


def median_of_medians(summaries: list[ClassSummary]) -> float:
    if not summaries:
        raise DegenerateInput("no class summaries to aggregate")
    medians = [s.median for s in summaries]
    # NaN last, as numpy sorts it; sorted would leave it where it stands
    return _sorted_median(sorted(medians, key=lambda m: (math.isnan(m), m)))


# One function per dataset report: each returns its measures and notes.
def iris_measures(dataset: TabularDataset, measure: str) -> tuple[list[MeasureResult], list[str]]:
    """measure is dimensionality, gini (also sparsity) or entropy, else InvalidParameter."""
    if measure == "dimensionality":
        return [
            MeasureResult(
                "feature_space_dimensionality_log10",
                log10_product([dataset.row_count, len(dataset.feature_names) + 1]),
                "log10 of rows x columns (features plus the class label)",
                ANALYTIC,
            )
        ], []
    if measure in ("gini", "sparsity"):
        return [
            MeasureResult(
                f"gini_{class_name}_{feature_name}",
                tabular_gini(dataset, class_name, feature_name),
                "Gini index over the raw per-class measurement values",
                ANALYTIC,
            )
            for class_name in dataset.class_names
            for feature_name in dataset.feature_names
        ], []
    if measure != "entropy":
        raise InvalidParameter(f"unknown dataset measure {measure!r}")
    class_count = len(dataset.class_names)
    counts = [dataset.labels.count(c) for c in range(class_count)]
    return [
        MeasureResult(
            "class_distribution_entropy",
            normalized_entropy([c / dataset.row_count for c in counts], class_count),
            "normalized entropy of the class label distribution; "
            f"event_count = {class_count}",
            ANALYTIC,
        )
    ], []


def _per_image(source: LabeledImageDataset | ImageStream, measure: str, binarized: bool):
    """One pass over source's blocks. Returns, per image, what measure
    reduces over in one flat array: the nonzero count for sparsity ("q"),
    the entropy for entropy, or the C channel Gini values for gini ("d",
    NaN for an all-zero plane); the labels, a byte each; and the count of
    all-zero planes. A stream's counting measures (dimensionality, sparsity
    and binarized entropy) read its raw blocks, without numpy."""
    if len(source.class_names) > 256:
        raise InvalidParameter(f"a label is one byte, so at most 256 classes, "
                               f"not {len(source.class_names)}")
    counting = measure == "sparsity" or measure == "entropy" and binarized
    raw = isinstance(source, ImageStream) and (counting or measure == "dimensionality")
    size = source.pixel_count * source.channel_count
    # made whole, then filled: growing it raised a CIFAR-10 gini run's peak RSS 0.13 MB
    width = source.channel_count if measure == "gini" else int(measure != "dimensionality")
    values = array("q" if measure == "sparsity" else "d", [0]) * (width * source.image_count)
    slots, labels, skipped, read = memoryview(values), bytearray(), 0, 0
    with closing(source.raw_blocks() if raw else source.blocks()) as blocks:
        for images, block_labels in blocks:
            end = read + len(block_labels)
            if counting:
                counts = (_nonzero_counts(images, source.record_size, source.pixel_offset)
                          if raw else _counted(images)[0])
                slots[read:end] = array(values.typecode, counts if measure == "sparsity"
                                        else _binarized_entropies(counts, size))
            elif measure == "entropy":
                slots[read:end] = image_entropies(images)
            elif measure == "gini":
                ginis, planes = channel_ginis(images)
                slots[read * width : end * width] = ginis.reshape(-1)
                skipped += planes
            labels += block_labels if raw else block_labels.astype("uint8").tobytes()
            read = end
    if read != source.image_count:
        raise InvalidParameter("the image stream has already been read")
    return values, labels, skipped


def _zero_share(counts: list[int], size: int) -> float:
    """The zero fraction of the images of size values with these nonzero
    counts: their zeros over their values, one division of integers (NaN for none)."""
    values = len(counts) * size
    return (values - sum(counts)) / values if values else math.nan


def image_measures(
    name: str, source: LabeledImageDataset | ImageStream, measure: str, mode: str | None = None,
    split: str = "all",
) -> tuple[list[MeasureResult], list[str]]:
    """name is mnist or cifar10; measure is dimensionality, sparsity, gini
    or entropy. source is a loaded dataset or a stream, read in one pass
    that keeps one block of images at a time besides the per-image values.
    MNIST dimensionality and entropy binarize unless mode is raw; the other
    measures read raw pixels and no mode (binarizing moves no zero, so the
    MNIST zero fraction is the binarized one). split, the part of
    the dataset read, is recorded in the entropy convention. Classes with
    no images are named in one note and have no per-class results. A zero
    sparsity, of the dataset or a class, is its zero values over all its
    values, rounded once. Any other measure, or a mode but raw or
    binarized, is refused with InvalidParameter."""
    if measure not in ("dimensionality", "sparsity", "gini", "entropy"):
        raise InvalidParameter(f"unknown dataset measure {measure!r}")
    if mode not in (None, "raw", "binarized"):
        raise InvalidParameter(f"mode must be raw or binarized, not {mode!r}")
    mnist = name == "mnist"
    binarized = mnist and mode != "raw"
    per_image, labels, skipped = _per_image(source, measure, binarized)
    measures: list[MeasureResult] = []
    notes = []
    present = None  # the classes with images, where the report has per-class results
    if measure == "dimensionality":
        if binarized:  # only the count of pixel values changes
            source = replace(source, pixel_value_count=2)
        measures.append(
            MeasureResult(
                "feature_space_dimensionality_log10",
                feature_space_dimensionality(source),
                "log10 of pixels x channels x classes x pixel values x images; "
                f"pixel values = {source.pixel_value_count}",
                ANALYTIC,
            )
        )
    elif measure == "sparsity":
        if mnist:  # binarizing at threshold 0 moves no zero, so the raw images serve
            convention = "mean zero-pixel fraction after binarization at threshold 0"
        else:
            convention = "mean zero-valued fraction over raw intensities"
        size = source.pixel_count * source.channel_count
        measures.append(
            MeasureResult("zero_sparsity_mean", _zero_share(per_image, size), convention, ANALYTIC)
        )
        if mnist:
            members = [[] for _ in source.class_names]
            for k, label in zip(per_image, _class_indices(labels, len(per_image), len(members))):
                members[label].append(k)
            classes = [(c, m) for c, m in zip(source.class_names, members) if m]
            present = [c for c, _ in classes]
            measures += [MeasureResult(f"zero_sparsity_mean_{c}", _zero_share(m, size),
                                       "per-class mean zero-pixel fraction", ANALYTIC)
                         for c, m in classes]
    elif measure == "gini":
        channels = ("red", "green", "blue") if source.channel_count == 3 else ("gray",)
        measures += [
            MeasureResult(
                f"gini_median_{channel_name}",
                _nan_median(per_image[c :: source.channel_count]),
                "median over images of the per-image channel Gini index",
                ANALYTIC,
            )
            for c, channel_name in enumerate(channels)
        ]
        if skipped:
            notes.append(f"{skipped} all-zero channel planes skipped")
    else:
        summaries = summarize_by_class(per_image.tolist(), labels, source.class_names)
        present = [s.class_name for s in summaries]
        convention = (
            "normalized per-image intensity entropy, 256 bins over [0, 255], "
            "channels pooled"
            + ("; binarized to bins 0 and 255 first" if binarized else "")
        )
        measures.append(
            MeasureResult(
                "entropy_median_of_medians",
                median_of_medians(summaries),
                convention + f"; split = {split}",
                ANALYTIC,
            )
        )
        measures += [
            MeasureResult(f"entropy_median_{s.class_name}", s.median, convention, ANALYTIC)
            for s in summaries
        ]
    if present is not None:
        missing = [c for c in source.class_names if c not in present]
        if missing:
            notes.append(f"classes with no images, so no per-class result: {', '.join(missing)}")
    return measures, notes
