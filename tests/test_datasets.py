"""Binary dataset parsing: IDX tensors, CIFAR batches, and the iris table."""

import gzip
import struct

import numpy as np
import pytest

from dcx.datasets import (
    LabeledImageDataset,
    binarize,
    load_cifar10,
    load_iris,
    load_mnist,
    parse_cifar10,
    parse_idx,
    parse_iris_csv,
    write_idx,
)
from dcx.errors import (
    DegenerateInput,
    FormatError,
    InvalidParameter,
    TruncatedInput,
)


class TestIdx:
    def test_round_trip_3d(self):
        rng = np.random.default_rng(0)
        tensor = rng.integers(0, 256, size=(5, 7, 3), dtype=np.uint8)
        recovered = parse_idx(write_idx(tensor))
        assert recovered.shape == tensor.shape
        assert (recovered == tensor).all()

    def test_round_trip_1d(self):
        labels = np.array([0, 9, 4, 4, 1], dtype=np.uint8)
        assert (parse_idx(write_idx(labels)) == labels).all()

    def test_serialization_is_byte_stable(self):
        rng = np.random.default_rng(1)
        tensor = rng.integers(0, 256, size=(4, 4), dtype=np.uint8)
        blob = write_idx(tensor)
        assert write_idx(parse_idx(blob)) == blob

    def test_header_layout(self):
        tensor = np.zeros((2, 3), dtype=np.uint8)
        blob = write_idx(tensor)
        assert blob[:4] == bytes([0, 0, 0x08, 2])
        assert struct.unpack(">II", blob[4:12]) == (2, 3)

    def test_rejects_short_header(self):
        with pytest.raises(TruncatedInput):
            parse_idx(b"\x00\x00\x08")

    def test_rejects_wrong_magic(self):
        with pytest.raises(FormatError):
            parse_idx(b"\x01\x00\x08\x01" + struct.pack(">I", 1) + b"\x00")

    def test_rejects_unsupported_element_type(self):
        # 0x0d is the float32 code; only unsigned bytes are supported
        with pytest.raises(FormatError):
            parse_idx(b"\x00\x00\x0d\x01" + struct.pack(">I", 1) + b"\x00" * 4)

    def test_rejects_truncated_payload(self):
        blob = b"\x00\x00\x08\x01" + struct.pack(">I", 10) + b"\x00" * 9
        with pytest.raises(TruncatedInput):
            parse_idx(blob)

    def test_rejects_trailing_bytes(self):
        blob = b"\x00\x00\x08\x01" + struct.pack(">I", 2) + b"\x00" * 3
        with pytest.raises(TruncatedInput):
            parse_idx(blob)


class TestCifarParsing:
    def test_unscrambles_channel_planes(self):
        # red plane all 10, green all 20, blue all 30: every pixel (10,20,30)
        row = bytes([7]) + bytes([10] * 1024 + [20] * 1024 + [30] * 1024)
        ds = parse_cifar10(row)
        assert ds.images.shape == (1, 32, 32, 3)
        assert ds.labels[0] == 7
        assert (ds.images[0, :, :, 0] == 10).all()
        assert (ds.images[0, :, :, 1] == 20).all()
        assert (ds.images[0, :, :, 2] == 30).all()

    def test_pixel_positions_preserved(self):
        red = np.arange(1024, dtype=np.uint8).reshape(32, 32)
        row = bytes([0]) + red.tobytes() + bytes(1024) + bytes(1024)
        ds = parse_cifar10(row)
        assert (ds.images[0, :, :, 0] == red).all()

    def test_rejects_partial_record(self):
        with pytest.raises(TruncatedInput):
            parse_cifar10(bytes(3073 + 10))

    def test_rejects_label_out_of_range(self):
        with pytest.raises(FormatError):
            parse_cifar10(bytes([11]) + bytes(3072))


class TestIrisParsing:
    def test_parses_both_label_spellings(self):
        text = (
            "5.1,3.5,1.4,0.2,Iris-setosa\n"
            "6.0,2.9,4.5,1.5,Iris-versicolor\n"
            "6.3,3.3,6.0,2.5,Iris-virginica\n"
        )
        ds = parse_iris_csv(text)
        assert ds.row_count == 3
        assert list(ds.labels) == [0, 1, 2]
        assert ds.features[1][2] == pytest.approx(4.5)

    def test_rejects_wrong_field_count(self):
        with pytest.raises(FormatError):
            parse_iris_csv("5.1,3.5,1.4,Iris-setosa\n")

    def test_rejects_non_numeric_measurement(self):
        with pytest.raises(FormatError):
            parse_iris_csv("5.1,tall,1.4,0.2,Iris-setosa\n")

    def test_rejects_unknown_species(self):
        with pytest.raises(FormatError):
            parse_iris_csv("5.1,3.5,1.4,0.2,Iris-azalea\n")

    def test_rejects_empty_table(self):
        with pytest.raises(DegenerateInput):
            parse_iris_csv("\n\n")

    def test_bundled_table(self):
        ds = load_iris()
        assert ds.row_count == 150
        assert [int((ds.labels == i).sum()) for i in range(3)] == [50, 50, 50]
        assert ds.feature_names == (
            "sepal_length",
            "sepal_width",
            "petal_length",
            "petal_width",
        )


class TestBinarize:
    def test_threshold_semantics(self):
        images = np.array([[[[0], [1]], [[128], [255]]]], dtype=np.uint8)
        ds = LabeledImageDataset(
            images=images, labels=np.array([0]), class_names=("a", "b")
        )
        out = binarize(ds)
        assert out.pixel_value_count == 2
        assert out.images.ravel().tolist() == [0, 1, 1, 1]

    def test_custom_threshold(self):
        images = np.array([[[[0], [128]], [[129], [255]]]], dtype=np.uint8)
        ds = LabeledImageDataset(
            images=images, labels=np.array([0]), class_names=("a", "b")
        )
        out = binarize(ds, threshold=128)
        assert out.images.ravel().tolist() == [0, 0, 1, 1]

    def test_refuses_multichannel(self):
        images = np.zeros((1, 2, 2, 3), dtype=np.uint8)
        ds = LabeledImageDataset(
            images=images, labels=np.array([0]), class_names=("a", "b")
        )
        with pytest.raises(InvalidParameter):
            binarize(ds)


class TestLoaders:
    def test_mnist_splits_and_gzip(self, synthetic_mnist_dir):
        train = load_mnist(synthetic_mnist_dir, split="train")
        test = load_mnist(synthetic_mnist_dir, split="test")
        both = load_mnist(synthetic_mnist_dir, split="all")
        assert train.image_count == 24
        assert test.image_count == 8  # label file stored gzipped
        assert both.image_count == 32
        assert train.images.shape == (24, 28, 28, 1)
        assert train.pixel_count == 784

    def test_mnist_missing_directory(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_mnist(tmp_path / "nowhere")

    def test_mnist_rejects_bad_split(self, synthetic_mnist_dir):
        with pytest.raises(InvalidParameter):
            load_mnist(synthetic_mnist_dir, split="validation")

    def test_cifar_splits(self, synthetic_cifar_dir):
        train = load_cifar10(synthetic_cifar_dir, split="train")
        test = load_cifar10(synthetic_cifar_dir, split="test")
        both = load_cifar10(synthetic_cifar_dir, split="all")
        assert train.image_count == 30
        assert test.image_count == 4
        assert both.image_count == 34
        assert both.images.shape == (34, 32, 32, 3)

    @staticmethod
    def parsed_batches(root):
        names = [f"data_batch_{i}.bin" for i in range(1, 6)] + ["test_batch.bin"]
        return [parse_cifar10((root / n).read_bytes()) for n in names]

    def test_cifar_loader_equals_the_parsed_batches(self, synthetic_cifar_dir):
        blocks = self.parsed_batches(synthetic_cifar_dir / "cifar-10-batches-bin")
        both = load_cifar10(synthetic_cifar_dir)
        expected = np.concatenate([b.images for b in blocks])
        assert both.images.dtype == np.uint8 and both.images.flags.c_contiguous
        assert both.images.tobytes() == expected.tobytes()
        assert both.labels.dtype == np.int64
        assert both.labels.tobytes() == np.concatenate([b.labels for b in blocks]).tobytes()

    def test_cifar_gzipped_batch(self, synthetic_cifar_dir):
        root = synthetic_cifar_dir / "cifar-10-batches-bin"
        blocks = self.parsed_batches(root)
        batch = root / "data_batch_3.bin"
        batch.with_name(batch.name + ".gz").write_bytes(gzip.compress(batch.read_bytes()))
        batch.unlink()
        both = load_cifar10(synthetic_cifar_dir)
        assert both.images.tobytes() == np.concatenate([b.images for b in blocks]).tobytes()

    def test_cifar_truncated_batch(self, synthetic_cifar_dir):
        batch = synthetic_cifar_dir / "cifar-10-batches-bin" / "data_batch_2.bin"
        batch.write_bytes(batch.read_bytes()[:-5])
        with pytest.raises(TruncatedInput):
            load_cifar10(synthetic_cifar_dir)


class TestDatasetValidation:
    def test_rejects_label_outside_classes(self):
        images = np.zeros((1, 2, 2, 1), dtype=np.uint8)
        with pytest.raises(InvalidParameter):
            LabeledImageDataset(
                images=images, labels=np.array([2]), class_names=("a", "b")
            )

    def test_counts(self):
        images = np.zeros((3, 4, 5, 1), dtype=np.uint8)
        ds = LabeledImageDataset(
            images=images, labels=np.zeros(3, dtype=int), class_names=("a", "b")
        )
        assert ds.image_count == 3
        assert ds.pixel_count == 20
        assert ds.channel_count == 1
        assert ds.class_count == 2
