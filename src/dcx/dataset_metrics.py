"""Complexity measures over ingested datasets: feature-space dimensionality,
zero-fraction sparsity, per-image entropy, per-channel and per-class Gini,
and boxplot-style class summaries.
"""

from __future__ import annotations

from contextlib import closing
from dataclasses import dataclass, replace

import numpy as np

from .datasets import BLOCK_IMAGES, ImageStream, LabeledImageDataset, TabularDataset
from .errors import DegenerateInput, InvalidParameter
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
    shannon_entropy,
)


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


def image_zero_sparsities(images) -> np.ndarray:
    """Per image, the fraction of zero values; 1 minus the nonzero fraction."""
    rows = _image_rows(images)
    out = np.empty(len(rows))
    for start in range(0, len(rows), BLOCK_IMAGES):
        chunk = rows[start : start + BLOCK_IMAGES]
        out[start : start + len(chunk)] = 1.0 - np.count_nonzero(chunk, axis=1) / rows.shape[1]
    return out


def _pairwise_row_sums(terms: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """Per row, the sum of the terms where keep holds, in column order.

    Equals numpy's pairwise sum of each row's compressed vector
    terms[i][keep[i]]: kept terms move to the front in column order, and
    rows with the same kept count are summed as one [rows, :k] block.
    Padding a row with zeros instead would change the pairwise tree.
    """
    order = np.argsort(~keep, axis=1, kind="stable")
    packed = np.take_along_axis(terms, order, axis=1)
    lengths = keep.sum(axis=1)
    sums = np.zeros(len(terms))
    for k in np.unique(lengths):
        rows = np.flatnonzero(lengths == k)
        sums[rows] = packed[rows, :k].sum(axis=1)
    return sums


def image_entropies(images, binarize_first: bool = False) -> np.ndarray:
    """Per image, the normalized entropy of its pooled intensity histogram.

    images is an N x H x W x C uint8 array (any N x ... uint8 array works:
    each image pools all its values). Each of the 256 values is its own
    bin, as in measures.histogram with 256 bins over [0, 255];
    binarize_first sends nonzero values to 255 first. The entropy of the
    bin frequencies, in bits, is divided by log2(256). Bit-identical to
    shannon_entropy(histogram(...).probabilities()) / log2(256) per image.
    """
    rows = _image_rows(images)
    count, size = rows.shape
    # p * log2(p) for every p = c / size a histogram of one image can hold
    p = np.arange(size + 1) / size
    with np.errstate(divide="ignore", invalid="ignore"):
        plogp = p * np.log2(p)
    plogp[0] = 0.0
    out = np.empty(count)
    for start in range(0, count, BLOCK_IMAGES):
        chunk = rows[start : start + BLOCK_IMAGES]
        if binarize_first:
            # zeros fill the first bin, the rest the last: a pairwise sum of
            # two terms is one addition, and an empty bin adds plogp[0] = 0.0
            nonzero = np.count_nonzero(chunk, axis=1)
            sums = plogp[size - nonzero] + plogp[nonzero]
        else:
            # offset each image's values so that one bincount counts every image
            bins = chunk.astype(np.intp)
            bins += np.arange(len(chunk))[:, None] * 256
            counts = np.bincount(bins.ravel(), minlength=len(chunk) * 256)
            counts = counts.reshape(len(chunk), 256)
            sums = _pairwise_row_sums(plogp[counts], counts > 0)
        out[start : start + len(chunk)] = 0.0 - sums  # 0.0, not -0.0, as shannon_entropy
    return out / np.log2(256)


def image_entropy(image: np.ndarray, binarize_first: bool = False) -> MeasureResult:
    """Normalized entropy of the intensities of one uint8 image: the
    one-image case of image_entropies.

    Multi-channel images pool every channel value into one histogram.
    binarize_first sends nonzero pixels to 255 first, so mass lands in the
    first and last bins only.
    """
    value = image_entropies(np.asarray(image).reshape(1, -1), binarize_first)[0]
    mode = "binarized to bins 0 and 255" if binarize_first else "raw intensities"
    return MeasureResult(
        measure_name="image_entropy",
        value=float(value),
        convention=f"{mode}; 256 equal bins over [0, 255]; all channels pooled; event_count = 256",
        provenance=ANALYTIC,
    )


def channel_ginis(images) -> tuple[np.ndarray, int]:
    """Per image and channel, the Gini index of the channel plane.

    images is an N x H x W x C uint8 array. Returns the N x C values, NaN
    where a plane is all zero (its Gini is undefined), and the count of
    those planes. Each value is bit-identical to measures.gini over the
    plane.
    """
    arr = np.asarray(images)
    if arr.ndim != 4:
        raise InvalidParameter("expected an N x H x W x C array of images")
    if arr.dtype != np.uint8:
        raise InvalidParameter(f"expected uint8 images, got dtype {arr.dtype}")
    count, height, width, channels = arr.shape
    n = height * width
    if n == 0 and count * channels:
        raise DegenerateInput("gini needs at least one value")
    ranks = np.arange(1, n + 1)
    weights = (n - ranks + 0.5) / n
    out = np.empty((count, channels))
    all_zero = 0
    for start in range(0, count, BLOCK_IMAGES):
        chunk = arr[start : start + BLOCK_IMAGES]
        # channel-major copy: one row per (image, channel) plane
        planes = np.ascontiguousarray(chunk.transpose(0, 3, 1, 2)).reshape(-1, n)
        totals = planes.sum(axis=1, dtype=float)
        zero = totals == 0.0
        all_zero += int(np.count_nonzero(zero))
        # a stable sort of uint8 rows is a radix sort
        shares = np.sort(planes, axis=1, kind="stable").astype(float)
        with np.errstate(divide="ignore", invalid="ignore"):
            np.divide(shares, totals[:, None], out=shares)
        np.multiply(shares, weights, out=shares)
        values = 1.0 - 2.0 * shares.sum(axis=1)
        values[zero] = np.nan
        out[start : start + len(chunk)] = values.reshape(len(chunk), channels)
    return out, all_zero


def channel_gini(image: np.ndarray, channel: int) -> float:
    """Gini index over one channel plane of an H x W x C uint8 image: the
    one-image, one-channel case of channel_ginis."""
    arr = np.asarray(image)
    if arr.ndim == 2:
        arr = arr[:, :, None]
    if arr.ndim != 3:
        raise InvalidParameter("expected an H x W x C image")
    if isinstance(channel, bool) or not isinstance(channel, (int, np.integer)):
        raise InvalidParameter(f"channel must be an integer, got {channel!r}")
    if not 0 <= channel < arr.shape[2]:
        raise InvalidParameter(f"channel {channel} outside 0..{arr.shape[2] - 1}")
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
    index = int(name_or_index)
    if not 0 <= index < len(names):
        raise InvalidParameter(f"{kind} index {index} outside 0..{len(names) - 1}")
    return index


def tabular_gini(dataset: TabularDataset, class_ref, feature_ref) -> float:
    """Gini over the raw values of one (class, feature) cell."""
    class_index = _resolve(class_ref, dataset.class_names, "class")
    feature_index = _resolve(feature_ref, dataset.feature_names, "feature")
    values = dataset.features[dataset.labels == class_index, feature_index]
    if len(values) < 2:
        raise DegenerateInput("class needs at least two rows")
    return gini(values)


def _midpoint_quartiles(sorted_values: np.ndarray) -> tuple[float, float, float]:
    """Median and Tukey hinges: the median joins both halves when N is odd."""
    n = len(sorted_values)
    median = float(np.median(sorted_values))
    half = n // 2
    lower = sorted_values[: half + (n % 2)]
    upper = sorted_values[half:]
    return float(np.median(lower)), median, float(np.median(upper))


@dataclass(frozen=True)
class ClassSummary:
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


def summarize_class(values, class_name: str) -> ClassSummary:
    arr = np.sort(np.asarray(values, dtype=float))
    if arr.size == 0:
        raise DegenerateInput(f"class {class_name!r} has no values")
    q1, median, q3 = _midpoint_quartiles(arr)
    iqr = q3 - q1
    fence_low = q1 - 1.5 * iqr
    fence_high = q3 + 1.5 * iqr
    outliers = int(((arr < fence_low) | (arr > fence_high)).sum())
    return ClassSummary(
        class_name=class_name,
        count=int(arr.size),
        mean=float(arr.mean()),
        median=median,
        q1=q1,
        q3=q3,
        whisker_low=float(max(fence_low, arr[0])),
        whisker_high=float(min(fence_high, arr[-1])),
        outlier_count=outliers,
    )


def summarize_by_class(
    per_item_values, labels, class_names: tuple[str, ...]
) -> list[ClassSummary]:
    """Group values by label and summarize each class; classes without
    members are omitted."""
    values = np.asarray(per_item_values, dtype=float)
    label_arr = np.asarray(labels)
    if len(values) != len(label_arr):
        raise InvalidParameter("values and labels must align")
    summaries = []
    for index, name in enumerate(class_names):
        members = values[label_arr == index]
        if members.size:
            summaries.append(summarize_class(members, name))
    return summaries


def median_of_medians(summaries: list[ClassSummary]) -> float:
    if not summaries:
        raise DegenerateInput("no class summaries to aggregate")
    return float(np.median([s.median for s in summaries]))


# One function per dataset report: each returns its measures and notes.
def iris_measures(dataset: TabularDataset, measure: str) -> tuple[list[MeasureResult], list[str]]:
    """measure is dimensionality, gini (also sparsity) or entropy."""
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
    class_count = len(dataset.class_names)
    counts = np.bincount(dataset.labels, minlength=class_count)
    return [
        MeasureResult(
            "class_distribution_entropy",
            normalized_entropy(counts / counts.sum(), class_count),
            "normalized entropy of the class label distribution; "
            f"event_count = {class_count}",
            ANALYTIC,
        )
    ], []


def _per_image(source: LabeledImageDataset | ImageStream, measure: str, binarized: bool):
    """One pass over source's blocks. Returns, per image, what measure
    reduces over (the zero fraction for sparsity, the entropy for entropy,
    the N x C channel Gini values for gini, nothing read for
    dimensionality), the labels, and the count of all-zero planes."""
    count = source.image_count
    values = np.empty((count, source.channel_count) if measure == "gini" else count)
    labels = np.empty(count, dtype=np.int64)
    skipped = start = 0
    with closing(source.blocks()) as blocks:
        for images, block_labels in blocks:
            end = start + len(images)
            if measure == "sparsity":
                values[start:end] = image_zero_sparsities(images)
            elif measure == "entropy":
                values[start:end] = image_entropies(images, binarize_first=binarized)
            elif measure == "gini":
                values[start:end], planes = channel_ginis(images)
                skipped += planes
            labels[start:end] = block_labels
            start = end
    if start != count:
        raise InvalidParameter("the image stream has already been read")
    return values, labels, skipped


def image_measures(
    name: str, source: LabeledImageDataset | ImageStream, measure: str, mode: str | None = None,
    split: str = "all",
) -> tuple[list[MeasureResult], list[str]]:
    """name is mnist or cifar10; measure is dimensionality, sparsity, gini
    or entropy. source is a loaded dataset or a stream, read in one pass
    that keeps one block of images at a time besides the per-image values.
    MNIST is binarized unless mode is raw (sparsity's zero fraction is
    always the binarized one); CIFAR-10 is always raw. split, the part of
    the dataset read, is recorded in the entropy convention. Classes with
    no images are named in one note and have no per-class results."""
    mnist = name == "mnist"
    binarized = mnist and mode != "raw"
    per_image, labels, skipped = _per_image(source, measure, binarized)
    measures: list[MeasureResult] = []
    notes = []
    summaries = None
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
        measures.append(
            MeasureResult("zero_sparsity_mean", float(per_image.mean()), convention, ANALYTIC)
        )
        if mnist:
            summaries = summarize_by_class(per_image, labels, source.class_names)
            measures += [
                MeasureResult(
                    f"zero_sparsity_mean_{summary.class_name}",
                    summary.mean,
                    "per-class mean zero-pixel fraction",
                    ANALYTIC,
                )
                for summary in summaries
            ]
    elif measure == "gini":
        channels = ("red", "green", "blue") if source.channel_count == 3 else ("gray",)
        measures += [
            MeasureResult(
                f"gini_median_{channel_name}",
                float(np.nanmedian(per_image[:, c])),
                "median over images of the per-image channel Gini index",
                ANALYTIC,
            )
            for c, channel_name in enumerate(channels)
        ]
        if skipped:
            notes.append(f"{skipped} all-zero channel planes skipped")
    else:
        summaries = summarize_by_class(per_image, labels, source.class_names)
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
    if summaries is not None:
        present = {s.class_name for s in summaries}
        missing = [c for c in source.class_names if c not in present]
        if missing:
            notes.append(f"classes with no images, so no per-class result: {', '.join(missing)}")
    return measures, notes
