"""Binary dataset parsing: IDX tensors, CIFAR batches, and the iris table."""

import builtins
import gzip
import io
import re
import struct
from collections import Counter

import numpy as np
import pytest

from dcx.cli import main
from dcx.dataset_metrics import image_measures
from dcx.datasets import (
    BLOCK_IMAGES,
    LabeledImageDataset,
    binarize,
    load_cifar10,
    load_iris,
    load_mnist,
    parse_cifar10,
    parse_idx,
    parse_iris_csv,
    stream_cifar10,
    stream_mnist,
    write_idx,
)
from dcx.errors import (
    DcxError,
    DegenerateInput,
    FormatError,
    InvalidParameter,
    TruncatedInput,
)


def idx_oracle(data: bytes) -> np.ndarray:
    """A well-formed IDX byte tensor as the payload bytes after its header."""
    sizes = struct.unpack(f">{data[3]}I", data[4 : 4 + 4 * data[3]])
    return np.frombuffer(data, dtype=np.uint8, offset=4 + 4 * len(sizes)).reshape(sizes)


def cifar_oracle(data: bytes) -> tuple[np.ndarray, np.ndarray]:
    """Whole CIFAR-10 records as N x 32 x 32 x 3 images and int64 labels."""
    records = np.frombuffer(data, dtype=np.uint8).reshape(-1, 3073)
    planes = records[:, 1:].reshape(-1, 3, 32, 32)
    return planes.transpose(0, 2, 3, 1), records[:, 0].astype(np.int64)


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

    def test_rejects_more_dimensions_than_numpy_holds(self):
        with pytest.raises(FormatError, match="65 dimensions"):
            parse_idx(bytes([0, 0, 0x08, 65]) + struct.pack(">65I", *[1] * 65) + b"\x00")

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


def _idx(type_code: int, sizes: tuple[int, ...], payload: bytes) -> bytes:
    return bytes([0, 0, type_code, len(sizes)]) + struct.pack(f">{len(sizes)}I", *sizes) + payload


# Malformed inputs each parser must refuse exactly as its loader refuses the
# same bytes stored as a file: MNIST's training labels, or the CIFAR test batch.
MALFORMED_IDX = {
    "gif_file": b"GIF89a" + bytes(20),
    "short_header": b"\x00\x00\x08",
    "sizes_cut_short": b"\x00\x00\x08\x01\x00\x00",
    "float32_type_code": _idx(0x0D, (24,), bytes(96)),
    "cut_payload": _idx(0x08, (24,), bytes(23)),
    "trailing_bytes": _idx(0x08, (24,), bytes(25)),
}
MALFORMED_CIFAR = {
    "partial_record": bytes(3073 + 10),
    "label_255": bytes([255]) + bytes(3072),
}


class TestParsersAgreeWithLoaders:
    @staticmethod
    def assert_same_refusal(parse, load, path, data):
        """parse(data), and load() with data stored at path, raise the same
        error; the loader's message starts with the file name."""
        path.write_bytes(data)
        with pytest.raises(DcxError) as parsed:
            parse(data)
        with pytest.raises(DcxError) as loaded:
            load()
        assert type(loaded.value) is type(parsed.value)
        assert str(loaded.value) == f"{path.name}: {parsed.value}"

    @pytest.mark.parametrize("case", sorted(MALFORMED_IDX))
    def test_idx(self, synthetic_mnist_dir, case):
        path = synthetic_mnist_dir / "mnist" / "train-labels-idx1-ubyte"
        self.assert_same_refusal(parse_idx, lambda: load_mnist(synthetic_mnist_dir, split="train"),
                                 path, MALFORMED_IDX[case])

    @pytest.mark.parametrize("case", sorted(MALFORMED_CIFAR))
    def test_cifar(self, synthetic_cifar_dir, case):
        path = synthetic_cifar_dir / "cifar-10-batches-bin" / "test_batch.bin"
        self.assert_same_refusal(parse_cifar10, lambda: load_cifar10(synthetic_cifar_dir, "test"),
                                 path, MALFORMED_CIFAR[case])


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

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "1e400", "-Infinity"])
    def test_rejects_non_finite_measurement(self, bad):
        text = f"5.1,3.5,1.4,0.2,Iris-setosa\n4.9,3.0,{bad},0.2,Iris-setosa\n"
        with pytest.raises(FormatError, match="^line 2: measurement is not a finite number$"):
            parse_iris_csv(text)

    @pytest.mark.parametrize(
        "bad", ["5_1", "\u0665.1", "\u0131nf"], ids=["underscore", "arabic-indic-digit", "dotless-i"]
    )
    def test_rejects_measurement_outside_the_csv_number_grammar(self, bad):
        # float() reads the first two as 51.0 and 5.1; a case-blind match
        # outside ASCII would take the third for inf, which float() refuses
        text = f"5.1,3.5,1.4,0.2,Iris-setosa\n{bad},3.0,1.4,0.2,Iris-setosa\n"
        with pytest.raises(FormatError, match="^line 2: non-numeric measurement$"):
            parse_iris_csv(text)

    def test_reads_every_form_of_the_csv_number_grammar(self):
        ds = parse_iris_csv(" +5 ,.5,5.,-5e-1,Iris-setosa\n")
        assert ds.features.tolist() == [[5.0, 0.5, 5.0, -0.5]]

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

    @staticmethod
    def concatenated_mnist(root, parts):
        """What a load is: each part's IDX payloads, read as the bytes after
        the header, concatenated."""
        names = {
            "train": ("train-images-idx3-ubyte", "train-labels-idx1-ubyte"),
            "test": ("t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte"),
        }
        images, labels = [], []
        for part in parts:
            for name, out in zip(names[part], (images, labels)):
                path = root / name if (root / name).exists() else root / f"{name}.gz"
                data = path.read_bytes()
                out.append(idx_oracle(gzip.decompress(data) if path.suffix == ".gz" else data))
        return np.concatenate(images)[..., None], np.concatenate(labels).astype(np.int64)

    @pytest.mark.parametrize("gzip_images", [False, True])
    def test_mnist_loader_equals_the_concatenated_parts(self, synthetic_mnist_dir, gzip_images):
        root = synthetic_mnist_dir / "mnist"
        if gzip_images:
            image_file = root / "train-images-idx3-ubyte"
            (root / "train-images-idx3-ubyte.gz").write_bytes(gzip.compress(image_file.read_bytes()))
            image_file.unlink()
        for split, parts in (("train", ["train"]), ("test", ["test"]), ("all", ["train", "test"])):
            loaded = load_mnist(synthetic_mnist_dir, split=split)
            images, labels = self.concatenated_mnist(root, parts)
            assert loaded.images.shape == images.shape
            assert loaded.images.dtype == np.uint8 and loaded.images.flags.c_contiguous
            assert loaded.images.tobytes() == images.tobytes()
            assert loaded.labels.dtype == np.int64
            assert loaded.labels.tobytes() == labels.tobytes()

    @pytest.mark.parametrize(
        "damage",
        ["cut_payload", "trailing_byte", "cut_gzip", "cut_header", "forged_count"],
    )
    def test_mnist_damaged_image_file_is_truncated_input(self, synthetic_mnist_dir, damage):
        path = synthetic_mnist_dir / "mnist" / "t10k-images-idx3-ubyte"
        data = path.read_bytes()
        if damage == "cut_payload":
            path.write_bytes(data[:-5])
        elif damage == "trailing_byte":
            path.write_bytes(data + b"\0")
        elif damage == "cut_gzip":
            path.with_name(path.name + ".gz").write_bytes(gzip.compress(data)[:-12])
            path.unlink()
        elif damage == "cut_header":
            path.write_bytes(data[:10])
        else:
            # a header promising 2**32 - 1 images must not be allocated
            path.write_bytes(data[:4] + struct.pack(">I", 2**32 - 1) + data[8:])
        with pytest.raises(TruncatedInput):
            load_mnist(synthetic_mnist_dir, split="test")

    def test_mnist_mismatched_parts_are_format_errors(self, synthetic_mnist_dir):
        root = synthetic_mnist_dir / "mnist"
        (root / "t10k-images-idx3-ubyte").write_bytes(
            write_idx(np.zeros((8, 14, 14), dtype=np.uint8))
        )
        with pytest.raises(FormatError):
            load_mnist(synthetic_mnist_dir, split="all")
        (root / "t10k-images-idx3-ubyte").write_bytes(
            write_idx(np.zeros((7, 28, 28), dtype=np.uint8))
        )
        with pytest.raises(FormatError):
            load_mnist(synthetic_mnist_dir, split="test")

    def test_cifar_splits(self, synthetic_cifar_dir):
        train = load_cifar10(synthetic_cifar_dir, split="train")
        test = load_cifar10(synthetic_cifar_dir, split="test")
        both = load_cifar10(synthetic_cifar_dir, split="all")
        assert train.image_count == 30
        assert test.image_count == 4
        assert both.image_count == 34
        assert both.images.shape == (34, 32, 32, 3)

    @staticmethod
    def batch_oracles(root):
        """(images, labels) of each batch, sliced straight from its bytes."""
        names = [f"data_batch_{i}.bin" for i in range(1, 6)] + ["test_batch.bin"]
        return [cifar_oracle((root / n).read_bytes()) for n in names]

    def test_cifar_loader_equals_the_batch_bytes(self, synthetic_cifar_dir):
        blocks = self.batch_oracles(synthetic_cifar_dir / "cifar-10-batches-bin")
        both = load_cifar10(synthetic_cifar_dir)
        expected = np.concatenate([images for images, _ in blocks])
        assert both.images.dtype == np.uint8 and both.images.flags.c_contiguous
        assert both.images.tobytes() == expected.tobytes()
        assert both.labels.dtype == np.int64
        assert both.labels.tobytes() == np.concatenate([labels for _, labels in blocks]).tobytes()

    def test_cifar_parser_equals_the_batch_bytes(self, synthetic_cifar_dir):
        for batch in sorted((synthetic_cifar_dir / "cifar-10-batches-bin").iterdir()):
            images, labels = cifar_oracle(batch.read_bytes())
            parsed = parse_cifar10(batch.read_bytes())
            assert parsed.images.flags.c_contiguous
            assert parsed.images.tobytes() == images.tobytes()
            assert parsed.labels.tobytes() == labels.tobytes()

    def test_cifar_gzipped_batch(self, synthetic_cifar_dir):
        root = synthetic_cifar_dir / "cifar-10-batches-bin"
        blocks = self.batch_oracles(root)
        batch = root / "data_batch_3.bin"
        batch.with_name(batch.name + ".gz").write_bytes(gzip.compress(batch.read_bytes()))
        batch.unlink()
        both = load_cifar10(synthetic_cifar_dir)
        expected = np.concatenate([images for images, _ in blocks])
        assert both.images.tobytes() == expected.tobytes()

    def test_cifar_truncated_batch(self, synthetic_cifar_dir):
        batch = synthetic_cifar_dir / "cifar-10-batches-bin" / "data_batch_2.bin"
        batch.write_bytes(batch.read_bytes()[:-5])
        with pytest.raises(TruncatedInput):
            load_cifar10(synthetic_cifar_dir)

    def test_cifar_bad_label_names_the_batch(self, synthetic_cifar_dir):
        batch = synthetic_cifar_dir / "cifar-10-batches-bin" / "data_batch_3.bin"
        data = bytearray(batch.read_bytes())
        data[3073] = 255  # the second record's label byte
        batch.write_bytes(bytes(data))
        with pytest.raises(FormatError, match=r"^data_batch_3\.bin: label byte 255 outside"):
            load_cifar10(synthetic_cifar_dir)

    def test_mnist_bad_magic_names_the_file(self, synthetic_mnist_dir):
        path = synthetic_mnist_dir / "mnist" / "train-labels-idx1-ubyte"
        path.write_bytes(b"\x01" + path.read_bytes()[1:])
        with pytest.raises(FormatError, match=r"^train-labels-idx1-ubyte: bad IDX magic"):
            load_mnist(synthetic_mnist_dir)


def gzip_files(root, gzipped: bool) -> None:
    """Store every file under root gzipped, or every one plain."""
    for path in sorted(root.iterdir()):
        if gzipped and path.suffix != ".gz":
            path.with_name(path.name + ".gz").write_bytes(gzip.compress(path.read_bytes()))
            path.unlink()
        elif not gzipped and path.suffix == ".gz":
            path.with_suffix("").write_bytes(gzip.decompress(path.read_bytes()))
            path.unlink()


def gzip_with_isize(data: bytes, isize: int) -> bytes:
    return gzip.compress(data)[:-4] + struct.pack("<I", isize % 2**32)


def gzip_with_bad_crc(data: bytes) -> bytes:
    packed = bytearray(gzip.compress(data))
    packed[-8] ^= 0xFF
    return bytes(packed)


def gzip_damaged_late(data: bytes) -> bytes:
    """Stored deflate blocks copy the bytes through, so flipping one three
    quarters in damages a later block's image, found by the CRC at the end."""
    packed = bytearray(gzip.compress(data, compresslevel=0))
    packed[len(packed) * 3 // 4] ^= 0xFF
    return bytes(packed)


# 2 blocks and 37 images, so each fault sits past the first block. The
# refusals are those of the loaders before they streamed: the same type and
# message, file name first.
LATER_BLOCK = 2 * BLOCK_IMAGES + 37
_CIFAR_DATA = np.random.default_rng(5).integers(0, 256, size=(LATER_BLOCK, 3073), dtype=np.uint8)
_CIFAR_DATA[:, 0] %= 10
_BAD_LABEL = _CIFAR_DATA.copy()
_BAD_LABEL[BLOCK_IMAGES + 5, 0] = 12
CIFAR_LATER_FAULTS = {
    "cut_in_the_last_block": ("test_batch.bin", _CIFAR_DATA.tobytes()[:-5], TruncatedInput,
                              r"^test_batch\.bin: bytes left over after the last whole image$"),
    "trailing_byte": ("test_batch.bin", _CIFAR_DATA.tobytes() + b"\0", TruncatedInput,
                      r"^test_batch\.bin: bytes left over after the last whole image$"),
    "label_in_a_later_block": ("test_batch.bin", _BAD_LABEL.tobytes(), FormatError,
                               r"^test_batch\.bin: label byte 12 outside 0\.\.9$"),
    "gzip_trailer_one_record_long": (
        "test_batch.bin.gz", gzip_with_isize(_CIFAR_DATA.tobytes(), _CIFAR_DATA.size + 3073),
        FormatError, r"^test_batch\.bin\.gz: damaged gzip stream \(Incorrect length of data produced\)$"),
    "gzip_crc": ("test_batch.bin.gz", gzip_with_bad_crc(_CIFAR_DATA.tobytes()), FormatError,
                 r"^test_batch\.bin\.gz: damaged gzip stream \(CRC check failed "),
    "gzip_damaged_late": ("test_batch.bin.gz", gzip_damaged_late(_CIFAR_DATA.tobytes()), FormatError,
                          r"^test_batch\.bin\.gz: damaged gzip stream \(CRC check failed "),
}
_MNIST_IMAGES = np.random.default_rng(6).integers(0, 256, size=(LATER_BLOCK, 28, 28), dtype=np.uint8)
_MNIST_LABELS = np.arange(LATER_BLOCK, dtype=np.uint8) % 10
MNIST_LATER_FAULTS = {
    "images_trailing_byte": ("t10k-images-idx3-ubyte", write_idx(_MNIST_IMAGES) + b"\0",
                             TruncatedInput, r"^t10k-images-idx3-ubyte: IDX payload holds 129361 "
                                             r"bytes, header promises 129360$"),
    "images_cut": ("t10k-images-idx3-ubyte", write_idx(_MNIST_IMAGES)[:-5], TruncatedInput,
                   r"^t10k-images-idx3-ubyte: IDX payload holds 129355 bytes, header promises 129360$"),
    "images_gzip_crc": ("t10k-images-idx3-ubyte.gz", gzip_with_bad_crc(write_idx(_MNIST_IMAGES)),
                        FormatError, r"^t10k-images-idx3-ubyte\.gz: damaged gzip stream \(CRC check failed "),
    "images_gzip_damaged_late": (
        "t10k-images-idx3-ubyte.gz", gzip_damaged_late(write_idx(_MNIST_IMAGES)), FormatError,
        r"^t10k-images-idx3-ubyte\.gz: damaged gzip stream \(CRC check failed "),
}


class TestRefusalsPastTheFirstBlock:
    @staticmethod
    def refusals(name, directory):
        """The load's error and a streamed measure's, over directory's test split."""
        load, stream = (load_mnist, stream_mnist) if name == "mnist" else (load_cifar10, stream_cifar10)
        errors = []
        for read in (lambda: load(directory, "test"),
                     lambda: image_measures(name, stream(directory, "test"), "dimensionality")):
            with pytest.raises(DcxError) as caught:
                read()
            errors.append(caught.value)
        return errors

    @pytest.mark.parametrize("case", sorted(CIFAR_LATER_FAULTS))
    def test_cifar(self, tmp_path, case):
        name, data, kind, message = CIFAR_LATER_FAULTS[case]
        (tmp_path / "cifar-10-batches-bin").mkdir()
        (tmp_path / "cifar-10-batches-bin" / name).write_bytes(data)
        for error in self.refusals("cifar10", tmp_path):
            assert type(error) is kind
            assert re.match(message, str(error)), str(error)

    @pytest.mark.parametrize("case", sorted(MNIST_LATER_FAULTS))
    def test_mnist(self, tmp_path, case):
        name, data, kind, message = MNIST_LATER_FAULTS[case]
        root = tmp_path / "mnist"
        root.mkdir()
        (root / name).write_bytes(data)
        if not name.startswith("t10k-images-idx3-ubyte"):
            (root / "t10k-images-idx3-ubyte").write_bytes(write_idx(_MNIST_IMAGES))
        (root / "t10k-labels-idx1-ubyte").write_bytes(write_idx(_MNIST_LABELS))
        for error in self.refusals("mnist", tmp_path):
            assert type(error) is kind
            assert re.match(message, str(error)), str(error)

    def test_mnist_label_byte_past_nine_names_the_file(self, tmp_path):
        # as a CIFAR-10 label byte does; the loader used to refuse it only
        # once the whole array was built, as an InvalidParameter with no file
        root = tmp_path / "mnist"
        root.mkdir()
        labels = _MNIST_LABELS.copy()
        labels[BLOCK_IMAGES + 5] = 10
        (root / "t10k-images-idx3-ubyte").write_bytes(write_idx(_MNIST_IMAGES))
        (root / "t10k-labels-idx1-ubyte").write_bytes(write_idx(labels))
        for error in self.refusals("mnist", tmp_path):
            assert type(error) is FormatError
            assert str(error) == "t10k-labels-idx1-ubyte: label byte 10 outside 0..9"


class TestEachFileOpenedOnce:
    @staticmethod
    def opens_during(monkeypatch, load) -> Counter:
        """How often load() opens each file."""
        counts = Counter()
        real_open = io.open

        def counting_open(file, *args, **kwargs):
            counts[str(file)] += 1
            return real_open(file, *args, **kwargs)

        # Path.open and gzip.open reach io.open and builtins.open by name
        with monkeypatch.context() as patch:
            patch.setattr(io, "open", counting_open)
            patch.setattr(builtins, "open", counting_open)
            load()
        return counts

    @pytest.mark.parametrize("gzipped", [False, True])
    def test_mnist(self, synthetic_mnist_dir, gzipped, monkeypatch):
        root = synthetic_mnist_dir / "mnist"
        gzip_files(root, gzipped)
        expected = {str(path): 1 for path in root.iterdir()}
        assert len(expected) == 4
        opens = self.opens_during(monkeypatch, lambda: load_mnist(synthetic_mnist_dir, split="all"))
        assert opens == expected

    @pytest.mark.parametrize("gzipped", [False, True])
    def test_cifar(self, synthetic_cifar_dir, gzipped, monkeypatch):
        root = synthetic_cifar_dir / "cifar-10-batches-bin"
        gzip_files(root, gzipped)
        expected = {str(path): 1 for path in root.iterdir()}
        assert len(expected) == 6
        opens = self.opens_during(monkeypatch, lambda: load_cifar10(synthetic_cifar_dir, split="all"))
        assert opens == expected

    @pytest.mark.parametrize("gzipped", [False, True])
    @pytest.mark.parametrize("name", ["mnist", "cifar10"])
    def test_a_streamed_measure_over_many_blocks(self, image_dir_factory, name, gzipped,
                                                 monkeypatch):
        if name == "mnist":
            directory = image_dir_factory(name, 2 * BLOCK_IMAGES + 37, BLOCK_IMAGES + 1)
            root, stream = directory / "mnist", stream_mnist
        else:
            directory = image_dir_factory(name, BLOCK_IMAGES + 1)
            root, stream = directory / "cifar-10-batches-bin", stream_cifar10
        gzip_files(root, gzipped)
        expected = {str(path): 1 for path in root.iterdir()}
        opens = self.opens_during(
            monkeypatch, lambda: image_measures(name, stream(directory, split="all"), "entropy"))
        assert opens == expected


# Each takes a whole gzip file and damages one part of it (RFC 1952).
GZIP_DAMAGE = {
    # block type 11 in the first deflate block header is reserved (RFC 1951)
    "corrupt_deflate": lambda data: data[:10] + bytes([data[10] | 0b110]) + data[11:],
    "crc_mismatch": lambda data: data[:-8] + bytes([data[-8] ^ 0xFF]) + data[-7:],
    "isize_past_deflate_bound": lambda data: data[:-4] + struct.pack("<I", 2**32 - 1),
    # one CIFAR record more than the data holds
    "isize_one_record_long": lambda data: (
        data[:-4] + struct.pack("<I", struct.unpack("<I", data[-4:])[0] + 3073)
    ),
}


class TestDamagedGzip:
    @pytest.mark.parametrize("damage", sorted(GZIP_DAMAGE))
    @pytest.mark.parametrize(
        "target",
        ["mnist/t10k-labels-idx1-ubyte", "mnist/t10k-images-idx3-ubyte",
         "cifar-10-batches-bin/test_batch.bin"],
    )
    def test_is_a_dcx_error_naming_the_file(self, target, damage, request, capsys):
        cifar = target.startswith("cifar")
        name, load = ("cifar10", load_cifar10) if cifar else ("mnist", load_mnist)
        directory = request.getfixturevalue("synthetic_cifar_dir" if cifar else "synthetic_mnist_dir")
        gzip_files((directory / target).parent, gzipped=True)
        path = directory / f"{target}.gz"
        path.write_bytes(GZIP_DAMAGE[damage](path.read_bytes()))
        with pytest.raises(DcxError, match=path.name):
            load(directory, split="test")
        assert main(["dataset", name, "--split", "test", "--data-dir", str(directory)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"dcx: {path.name}: ")

    def test_a_gzip_file_shorter_than_its_trailer(self, synthetic_mnist_dir):
        (synthetic_mnist_dir / "mnist" / "t10k-labels-idx1-ubyte.gz").write_bytes(b"\x1f\x8b\x08")
        with pytest.raises(TruncatedInput):
            load_mnist(synthetic_mnist_dir, split="test")


class TestEmptyLoad:
    def test_cifar_batches_without_records(self, synthetic_cifar_dir):
        for batch in (synthetic_cifar_dir / "cifar-10-batches-bin").iterdir():
            batch.write_bytes(b"")
        with pytest.raises(DegenerateInput):
            load_cifar10(synthetic_cifar_dir)

    def test_mnist_files_without_images(self, synthetic_mnist_dir):
        root = synthetic_mnist_dir / "mnist"
        (root / "t10k-images-idx3-ubyte").write_bytes(write_idx(np.zeros((0, 28, 28))))
        (root / "t10k-labels-idx1-ubyte.gz").write_bytes(gzip.compress(write_idx(np.zeros(0))))
        with pytest.raises(DegenerateInput):
            load_mnist(synthetic_mnist_dir, split="test")
        assert load_mnist(synthetic_mnist_dir, split="all").image_count == 24

    @pytest.mark.parametrize("measure", ["dimensionality", "sparsity", "gini", "entropy"])
    def test_cli_exits_1(self, synthetic_cifar_dir, measure, capsys):
        for batch in (synthetic_cifar_dir / "cifar-10-batches-bin").iterdir():
            batch.write_bytes(b"")
        argv = ["dataset", "cifar10", "--measure", measure, "--data-dir", str(synthetic_cifar_dir)]
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("dcx: ") and err.endswith("holds no images for split all\n")


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
