"""Per-image and per-class dataset measures against hand-worked examples,
and the batch kernels against the per-image loop they replace."""

import tracemalloc
import warnings

import numpy as np
import pytest

from dcx.cli import main
from dcx.dataset_metrics import (
    _per_image,
    channel_gini,
    channel_ginis,
    feature_space_dimensionality,
    image_entropies,
    image_entropy,
    image_measures,
    image_zero_sparsities,
    median_of_medians,
    summarize_by_class,
    summarize_class,
    tabular_gini,
)
from dcx.datasets import (
    BLOCK_IMAGES,
    LabeledImageDataset,
    binarize,
    load_cifar10,
    load_iris,
    load_mnist,
    stream_cifar10,
    stream_mnist,
)
from dcx.errors import DegenerateInput, InvalidParameter
from dcx.measures import gini, histogram, log10_product, shannon_entropy


def small_dataset() -> LabeledImageDataset:
    images = np.zeros((3, 2, 2, 1), dtype=np.uint8)
    return LabeledImageDataset(
        images=images, labels=np.zeros(3, dtype=int), class_names=("a", "b")
    )


class TestDimensionality:
    def test_formula_on_small_dataset(self):
        ds = small_dataset()
        expected = log10_product([4, 1, 2, 256, 3])
        assert feature_space_dimensionality(ds) == pytest.approx(expected)

    def test_published_dataset_shapes(self):
        # 28x28 grayscale, 10 classes, binary values, 70k images
        assert log10_product([784, 1, 10, 2, 70_000]) == pytest.approx(
            9.0404, abs=1e-4
        )
        # 32x32 RGB, 10 classes, 256 values, 60k images
        assert log10_product([1024, 3, 10, 256, 60_000]) == pytest.approx(
            11.6738, abs=1e-4
        )


class TestZeroSparsity:
    def test_fraction_of_zero_pixels(self):
        images = np.array([[[0, 0], [0, 9]]], dtype=np.uint8)
        assert image_zero_sparsities(images).tolist() == [0.75]

    def test_dense_image_is_zero(self):
        images = np.full((1, 4, 4), 7, dtype=np.uint8)
        assert image_zero_sparsities(images).tolist() == [0.0]

    def test_rejects_empty(self):
        with pytest.raises(DegenerateInput):
            image_zero_sparsities(np.zeros((1, 0, 0), dtype=np.uint8))

    def test_binarizing_at_threshold_zero_keeps_every_fraction(self):
        # MNIST sparsity reports the binarized fraction from the raw images
        rng = np.random.default_rng(3)
        images = rng.integers(0, 256, (40, 28, 28, 1)).astype(np.uint8)
        images[rng.random(images.shape) < 0.8] = 0
        images[0] = 0
        images[1] = 255
        ds = LabeledImageDataset(images=images, labels=np.arange(40) % 10,
                                 class_names=tuple("0123456789"))
        raw = image_zero_sparsities(ds.images)
        assert image_zero_sparsities(binarize(ds).images).tobytes() == raw.tobytes()


class TestImageEntropy:
    def test_half_zero_half_full_is_one_bit(self):
        image = np.concatenate(
            [np.zeros(512, dtype=np.uint8), np.full(512, 255, dtype=np.uint8)]
        ).reshape(32, 32)
        result = image_entropy(image)
        # one bit of a possible log2(256) = 8
        assert result.value == pytest.approx(0.125)

    def test_binarized_mode_collapses_to_extreme_bins(self):
        rng = np.random.default_rng(0)
        image = rng.integers(1, 256, size=(32, 32), dtype=np.uint8)
        image[:16] = 0
        result = image_entropy(image, binarize_first=True)
        assert result.value == pytest.approx(0.125)
        assert "binarized" in result.convention

    def test_uniform_values_reach_maximum(self):
        image = np.arange(256, dtype=np.uint8).reshape(16, 16)
        assert image_entropy(image).value == pytest.approx(1.0)

    def test_constant_image_is_zero(self):
        image = np.full((8, 8), 40, dtype=np.uint8)
        assert image_entropy(image).value == 0.0

    def test_permutation_invariant(self):
        rng = np.random.default_rng(1)
        image = rng.integers(0, 256, size=(16, 16), dtype=np.uint8)
        shuffled = rng.permutation(image.ravel()).reshape(16, 16)
        assert image_entropy(shuffled).value == pytest.approx(
            image_entropy(image).value
        )

    def test_channels_pool_together(self):
        plane = np.zeros((4, 4), dtype=np.uint8)
        stacked = np.stack([plane, np.full((4, 4), 255, dtype=np.uint8)], axis=-1)
        assert image_entropy(stacked).value == pytest.approx(0.125)


class TestChannelGini:
    def test_spike_plane(self):
        plane = np.zeros((32, 32), dtype=np.uint8)
        plane[3, 3] = 200
        assert channel_gini(plane, 0) == pytest.approx(1 - 1 / 1024, abs=1e-9)

    def test_flat_plane_raises_on_all_zero(self):
        with pytest.raises(DegenerateInput):
            channel_gini(np.zeros((8, 8), dtype=np.uint8), 0)

    def test_selects_requested_channel(self):
        image = np.zeros((8, 8, 3), dtype=np.uint8)
        image[:, :, 0] = 10  # uniform red plane
        image[0, 0, 1] = 10  # spiked green plane
        assert channel_gini(image, 0) == pytest.approx(0.0, abs=1e-12)
        assert channel_gini(image, 1) == pytest.approx(1 - 1 / 64, abs=1e-9)

    @pytest.mark.parametrize("channel", [3, -1, 0.5, True])
    def test_rejects_bad_channel_index(self, channel):
        # True is not channel 1, nor 0.5 a slice bound
        with pytest.raises(InvalidParameter):
            channel_gini(np.ones((8, 8, 3), dtype=np.uint8), channel)


class TestTabularGini:
    def test_known_species_feature(self):
        ds = load_iris()
        assert tabular_gini(ds, "setosa", "petal_width") == pytest.approx(
            0.2086, abs=5e-4
        )

    def test_name_and_index_agree(self):
        ds = load_iris()
        assert tabular_gini(ds, "setosa", "petal_width") == tabular_gini(ds, 0, 3)

    def test_rejects_unknown_names(self):
        ds = load_iris()
        with pytest.raises(InvalidParameter):
            tabular_gini(ds, "daisy", "petal_width")
        with pytest.raises(InvalidParameter):
            tabular_gini(ds, "setosa", "stem_length")


class TestClassSummaries:
    def test_midpoint_quartiles_odd(self):
        s = summarize_class([1.0, 2.0, 3.0], "c")
        assert (s.q1, s.median, s.q3) == (1.5, 2.0, 2.5)

    def test_midpoint_quartiles_even(self):
        s = summarize_class([1.0, 2.0, 3.0, 4.0], "c")
        assert (s.q1, s.median, s.q3) == (1.5, 2.5, 3.5)

    def test_whiskers_clamp_to_observed_extrema(self):
        s = summarize_class([1.0, 2.0, 3.0, 100.0], "c")
        # fences reach past the data, so whiskers sit on the extremes
        assert s.whisker_low == 1.0
        assert s.whisker_high == 100.0
        assert s.outlier_count == 0

    def test_outliers_beyond_fences(self):
        s = summarize_class([1.0, 1.0, 1.0, 1.0, 50.0], "c")
        assert s.outlier_count == 1
        assert s.whisker_high == 1.0

    def test_grouping_by_label(self):
        values = np.array([1.0, 2.0, 3.0, 10.0, 20.0, 30.0])
        labels = np.array([0, 0, 0, 1, 1, 1])
        summaries = summarize_by_class(values, labels, ("low", "high"))
        assert [s.class_name for s in summaries] == ["low", "high"]
        assert summaries[0].median == 2.0
        assert summaries[1].median == 20.0

    def test_empty_class_is_omitted_without_a_warning(self):
        values = np.array([1.0, 2.0])
        labels = np.array([0, 0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            summaries = summarize_by_class(values, labels, ("present", "absent"))
        assert [s.class_name for s in summaries] == ["present"]

    @pytest.mark.parametrize(("name", "measure"), [("mnist", "sparsity"), ("mnist", "entropy"),
                                                   ("cifar10", "entropy")])
    def test_report_notes_the_classes_without_images(self, name, measure):
        channels = 1 if name == "mnist" else 3
        images = np.arange(4 * 4 * 4 * channels, dtype=np.uint8).reshape(4, 4, 4, channels)
        classes = ("a", "b", "c", "d")
        notes_for = {}
        for labels in ([0, 1, 2, 3], [0, 2, 0, 2]):
            ds = LabeledImageDataset(images=images, labels=np.array(labels), class_names=classes)
            measures, notes_for[tuple(labels)] = image_measures(name, ds, measure)
            per_class = {c for c in classes for m in measures if m.measure_name.endswith(f"_{c}")}
            assert per_class == {classes[i] for i in labels}
        assert notes_for[0, 1, 2, 3] == []
        assert notes_for[0, 2, 0, 2] == ["classes with no images, so no per-class result: b, d"]

    def test_median_of_medians(self):
        values = np.array([1.0, 2.0, 3.0, 10.0, 20.0, 30.0, 5.0, 6.0, 7.0])
        labels = np.array([0, 0, 0, 1, 1, 1, 2, 2, 2])
        summaries = summarize_by_class(values, labels, ("a", "b", "c"))
        assert median_of_medians(summaries) == 6.0


class TestIrisGrid:
    # medians of raw per-class values, frozen from independent computation
    EXPECTED = {
        ("setosa", "sepal_length"): 0.0392,
        ("setosa", "sepal_width"): 0.0602,
        ("setosa", "petal_length"): 0.0634,
        ("setosa", "petal_width"): 0.2086,
        ("versicolour", "sepal_length"): 0.0489,
        ("versicolour", "sepal_width"): 0.0632,
        ("versicolour", "petal_length"): 0.0610,
        ("versicolour", "petal_width"): 0.0826,
        ("virginica", "sepal_length"): 0.0533,
        ("virginica", "sepal_width"): 0.0589,
        ("virginica", "petal_length"): 0.0551,
        ("virginica", "petal_width"): 0.0759,
    }

    def test_all_twelve_cells(self):
        ds = load_iris()
        for (class_name, feature), expected in self.EXPECTED.items():
            value = tabular_gini(ds, class_name, feature)
            assert value == pytest.approx(expected, abs=5e-4), (class_name, feature)


# --- the per-image loop the batch kernels replace, kept as their oracle -------


def oracle_entropies(images, binarize_first=False) -> np.ndarray:
    out = []
    for image in images:
        values = np.asarray(image).reshape(-1)
        if binarize_first:
            values = np.where(values > 0, 255, 0)
        hist = histogram(values, 256, (0.0, 255.0))
        out.append(shannon_entropy(hist.probabilities()) / np.log2(256))
    return np.array(out, dtype=float)


def oracle_ginis(images) -> tuple[np.ndarray, int]:
    values = np.zeros((images.shape[0], images.shape[3]))
    skipped = 0
    for i in range(images.shape[0]):
        for c in range(images.shape[3]):
            try:
                values[i, c] = gini(images[i][:, :, c].reshape(-1).astype(float))
            except DegenerateInput:
                values[i, c] = np.nan
                skipped += 1
    return values, skipped


def oracle_zero_sparsities(images) -> np.ndarray:
    return np.array([1.0 - np.count_nonzero(im) / im.size for im in images], dtype=float)


def assert_kernels_match_oracle(images):
    for binarize_first in (False, True):
        got = image_entropies(images, binarize_first)
        want = oracle_entropies(images, binarize_first)
        assert got.tobytes() == want.tobytes(), binarize_first
    values, skipped = channel_ginis(images)
    want_values, want_skipped = oracle_ginis(images)
    assert values.tobytes() == want_values.tobytes()
    assert skipped == want_skipped
    assert image_zero_sparsities(images).tobytes() == oracle_zero_sparsities(images).tobytes()


class TestBatchKernelsMatchPerImageLoop:
    def test_synthetic_mnist(self, synthetic_mnist_dir):
        assert_kernels_match_oracle(load_mnist(synthetic_mnist_dir).images)

    def test_synthetic_cifar(self, synthetic_cifar_dir):
        assert_kernels_match_oracle(load_cifar10(synthetic_cifar_dir).images)

    def test_constant_images_fill_one_bin(self):
        # binarized, the all-zero image fills only the first bin and the
        # others only the last
        images = np.stack([np.full((6, 5, 3), v, dtype=np.uint8) for v in (0, 1, 40, 255)])
        assert_kernels_match_oracle(images)
        assert image_entropies(images).tolist() == [0.0] * 4
        assert image_entropies(images, binarize_first=True).tolist() == [0.0] * 4

    def test_image_holding_every_value(self):
        image = np.arange(256, dtype=np.uint8).reshape(16, 16, 1)
        images = np.stack([image, image[::-1], image.transpose(1, 0, 2)])
        assert_kernels_match_oracle(images)
        assert image_entropies(images)[0] == 1.0

    def test_all_zero_planes_are_nan_and_counted(self):
        rng = np.random.default_rng(3)
        images = rng.integers(0, 256, size=(9, 8, 8, 3), dtype=np.uint8)
        images[2, :, :, 1] = 0
        images[5] = 0
        values, skipped = channel_ginis(images)
        assert skipped == 4
        assert np.isnan(values[2, 1]) and np.isnan(values[5]).all()
        assert np.count_nonzero(np.isnan(values)) == 4
        assert_kernels_match_oracle(images)

    @pytest.mark.parametrize("channels", [1, 3])
    def test_count_not_a_multiple_of_the_chunk(self, channels):
        rng = np.random.default_rng(channels)
        count = 2 * BLOCK_IMAGES + 37
        images = rng.integers(0, 256, size=(count, 12, 10, channels), dtype=np.uint8)
        images[rng.random(images.shape) < 0.6] = 0
        images[count - 1, :, :, 0] = 0
        assert_kernels_match_oracle(images)

    def test_single_image_functions_are_the_n1_case(self):
        rng = np.random.default_rng(6)
        images = rng.integers(0, 256, size=(5, 8, 8, 3), dtype=np.uint8)
        entropies = image_entropies(images)
        ginis, _ = channel_ginis(images)
        for i, image in enumerate(images):
            assert image_entropy(image).value == entropies[i]
            assert [channel_gini(image, c) for c in range(3)] == ginis[i].tolist()


class TestBatchKernelErrors:
    @pytest.mark.parametrize("dtype", [np.float64, np.int16, bool],
                             ids=["float64", "int16", "bool"])
    def test_non_uint8_images_are_refused(self, dtype):
        # nonzero and in range, so only the dtype is wrong
        images = np.ones((2, 4, 4, 3), dtype=dtype)
        kernels = (image_entropies, image_zero_sparsities, channel_ginis,
                   lambda a: image_entropy(a[0]), lambda a: channel_gini(a[0], 0))
        for kernel in kernels:
            with pytest.raises(InvalidParameter, match=np.dtype(dtype).name):
                kernel(images)

    def test_rejects_empty_images(self):
        images = np.zeros((3, 0, 4, 1), dtype=np.uint8)
        with pytest.raises(DegenerateInput):
            image_entropies(images)
        with pytest.raises(DegenerateInput):
            image_zero_sparsities(images)
        with pytest.raises(DegenerateInput):
            channel_ginis(images)

    def test_gini_needs_four_dimensions(self):
        with pytest.raises(InvalidParameter):
            channel_ginis(np.ones((4, 4, 3), dtype=np.uint8))

    def test_no_images_give_no_values(self):
        images = np.zeros((0, 4, 4, 3), dtype=np.uint8)
        assert image_entropies(images).shape == (0,)
        assert image_zero_sparsities(images).shape == (0,)
        values, skipped = channel_ginis(images)
        assert values.shape == (0, 3) and skipped == 0


# --- streamed datasets against the whole-array kernels ------------------------

STREAM_COUNTS = [BLOCK_IMAGES - 1, BLOCK_IMAGES, BLOCK_IMAGES + 1, 2 * BLOCK_IMAGES + 37]
MEASURES = ("dimensionality", "sparsity", "gini", "entropy")


def whole_array_values(dataset: LabeledImageDataset, measure: str, binarized: bool):
    if measure == "sparsity":
        return image_zero_sparsities(dataset.images), 0
    if measure == "entropy":
        return image_entropies(dataset.images, binarize_first=binarized), 0
    return channel_ginis(dataset.images)


def assert_stream_matches_whole_array(name, directory, split, modes=(None,)):
    stream, load = (stream_mnist, load_mnist) if name == "mnist" else (stream_cifar10, load_cifar10)
    loaded = load(directory, split)
    for measure in MEASURES:
        for mode in modes:
            binarized = name == "mnist" and mode != "raw"
            values, labels, skipped = _per_image(stream(directory, split), measure, binarized)
            assert labels.tobytes() == loaded.labels.tobytes()
            if measure != "dimensionality":
                want, want_skipped = whole_array_values(loaded, measure, binarized)
                assert values.tobytes() == want.tobytes(), (measure, mode)
                assert skipped == want_skipped
            streamed = image_measures(name, stream(directory, split), measure, mode, split)
            whole = image_measures(name, loaded, measure, mode, split)
            assert streamed[1] == whole[1]
            assert [(m.measure_name, m.value.hex(), m.convention) for m in streamed[0]] == \
                [(m.measure_name, m.value.hex(), m.convention) for m in whole[0]]


class TestStreamedMeasuresMatchTheWholeArray:
    @pytest.mark.parametrize("count", STREAM_COUNTS)
    @pytest.mark.parametrize("split", ["train", "test", "all"])
    def test_mnist(self, image_dir_factory, count, split):
        directory = image_dir_factory("mnist", count, BLOCK_IMAGES + 1)
        assert_stream_matches_whole_array("mnist", directory, split, modes=(None, "raw"))

    @pytest.mark.parametrize("count", STREAM_COUNTS)
    @pytest.mark.parametrize("split", ["train", "test", "all"])
    def test_cifar(self, image_dir_factory, count, split):
        directory = image_dir_factory("cifar10", count)
        _, skipped = channel_ginis(load_cifar10(directory, split).images)
        assert skipped >= {"train": 5, "test": 1, "all": 6}[split]  # one in each last block
        assert_stream_matches_whole_array("cifar10", directory, split)

    def test_a_stream_is_read_once(self, synthetic_cifar_dir):
        stream = stream_cifar10(synthetic_cifar_dir)
        image_measures("cifar10", stream, "sparsity")
        with pytest.raises(InvalidParameter, match="already been read"):
            image_measures("cifar10", stream, "sparsity")


class TestStreamedMemory:
    @pytest.mark.parametrize("measure", MEASURES)
    def test_memory_does_not_grow_with_the_image_count(self, image_dir_factory, measure, capsys):
        # a measure holds one block of images and a few numbers per image,
        # so four times the images need only their per-image values more
        peaks = []
        for count in (2 * BLOCK_IMAGES, 8 * BLOCK_IMAGES):
            argv = ["dataset", "cifar10", "--measure", measure, "--split", "test",
                    "--data-dir", str(image_dir_factory("cifar10", count))]
            assert main(argv) == 0  # numpy's and the kernels' first-call allocations
            tracemalloc.start()
            try:
                assert main(argv) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        capsys.readouterr()
        assert peaks[1] <= peaks[0] + (64 << 10), peaks
