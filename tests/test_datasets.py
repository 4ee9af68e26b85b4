"""Unit tests for IDX parsing and the synthetic blob generator."""

import re
import struct
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from splitopt import bench, nn
from splitopt.datasets import (
    IMAGE_MAGIC,
    LABEL_MAGIC,
    Batch,
    IdxFormatError,
    load_idx,
    parse_idx,
    synth_blobs,
)

from idx_fixtures import dataset_to_idx


def image_payload(count, rows, cols, pixels, magic=0x00000803):
    return struct.pack(">IIII", magic, count, rows, cols) + bytes(pixels)

def label_payload(labels, magic=0x00000801, count=None):
    count = len(labels) if count is None else count
    return struct.pack(">II", magic, count) + bytes(labels)


class TestParseIdx:
    def test_hand_built_single_image(self):
        ds = parse_idx(image_payload(1, 2, 2, [0, 255, 128, 64]), label_payload([7]))
        assert len(ds) == 1
        np.testing.assert_allclose(
            ds.images[0], [0.0, 1.0, 128 / 255, 64 / 255], rtol=1e-15
        )
        assert ds.labels[0] == 7

    def test_bad_image_magic_names_observed_value(self):
        with pytest.raises(IdxFormatError, match="0x00000000"):
            parse_idx(image_payload(1, 1, 1, [5], magic=0), label_payload([0]))

    def test_bad_label_magic(self):
        with pytest.raises(IdxFormatError, match="label magic"):
            parse_idx(
                image_payload(1, 1, 1, [5]), label_payload([0], magic=0x00000803)
            )

    def test_truncated_image_payload_reports_counts(self):
        with pytest.raises(IdxFormatError, match="holds 2 bytes.*promises 4"):
            parse_idx(image_payload(1, 2, 2, [0, 1]), label_payload([0]))

    def test_truncated_label_payload(self):
        with pytest.raises(IdxFormatError, match="label payload"):
            parse_idx(image_payload(1, 1, 1, [5]), label_payload([1, 2], count=3))

    def test_count_mismatch(self):
        with pytest.raises(IdxFormatError, match="1 images but 2 labels"):
            parse_idx(image_payload(1, 1, 1, [5]), label_payload([1, 2]))

    def test_short_headers(self):
        with pytest.raises(IdxFormatError):
            parse_idx(b"\x00\x00", label_payload([0]))
        with pytest.raises(IdxFormatError):
            parse_idx(image_payload(1, 1, 1, [5]), b"\x00")

    @pytest.mark.parametrize("count, rows, cols", [
        pytest.param(2, 0, 28, id="0-28"), pytest.param(2, 28, 0, id="28-0"),
        pytest.param(2, 0, 0, id="0-0"), pytest.param(0, 28, 28, id="no-images"),
    ])
    def test_images_without_pixels(self, count, rows, cols):
        with pytest.raises(IdxFormatError, match="no pixels"):
            parse_idx(image_payload(count, rows, cols, []), label_payload(list(range(count))))

    def test_decode_matches_cast_then_divide_bit_for_bit(self):
        pixels = bytes(range(256)) * 3
        ds = parse_idx(image_payload(3, 16, 16, pixels), label_payload([0, 1, 2]))
        reference = np.frombuffer(pixels, dtype=np.uint8).astype(float) / 255.0
        assert ds.images.dtype == np.float64 and ds.images.flags.writeable
        assert ds.images.tobytes() == reference.tobytes()
        assert ds.labels.tolist() == [0, 1, 2] and ds.labels.dtype == np.int64

    def test_loaded_values_stay_in_unit_interval(self):
        pixels = list(range(256)) * 2
        ds = parse_idx(
            image_payload(2, 16, 16, pixels), label_payload([0, 1])
        )
        assert ds.images.min() >= 0.0 and ds.images.max() <= 1.0


class TestRoundTrip:
    def test_serialize_then_parse_quantizes_within_half_step(self):
        rng = np.random.default_rng(0)
        original = Batch(rng.random((7, 5)), rng.integers(0, 3, size=7))
        image_bytes, label_bytes = dataset_to_idx(original)
        back = parse_idx(image_bytes, label_bytes)
        assert np.max(np.abs(back.images - original.images)) <= 1.0 / 510.0
        np.testing.assert_array_equal(back.labels, original.labels)

    def test_file_round_trip(self, tmp_path):
        ds = synth_blobs(10, 2, 3, 6.0, seed=1)
        image_bytes, label_bytes = dataset_to_idx(ds)
        img_path = tmp_path / "imgs.idx"
        lbl_path = tmp_path / "lbls.idx"
        img_path.write_bytes(image_bytes)
        lbl_path.write_bytes(label_bytes)
        loaded = load_idx(img_path, lbl_path)
        assert np.max(np.abs(loaded.images - ds.images)) <= 1.0 / 510.0

    def test_wide_labels_rejected(self):
        ds = Batch(np.zeros((1, 2)), np.array([300]))
        with pytest.raises(ValueError, match="single bytes"):
            dataset_to_idx(ds)

    @pytest.mark.parametrize("shape", [(0, 2), (3, 0)])
    def test_rejects_a_set_without_pixels_naming_its_shape(self, shape):
        # Batch holds such a set, but parse_idx would reject the file
        ds = Batch(np.zeros(shape), np.zeros(shape[0], dtype=int))
        with pytest.raises(ValueError, match=re.escape(f"got images of shape {shape}")):
            dataset_to_idx(ds)


PROPERTY = settings(derandomize=True, deadline=None, database=None, max_examples=60)


@st.composite
def datasets(draw):
    n, d = draw(st.integers(1, 8)), draw(st.integers(1, 6))
    images = draw(hnp.arrays(float, (n, d), elements=st.floats(0.0, 1.0)))
    labels = draw(hnp.arrays(np.int64, n, elements=st.integers(0, 255)))
    return Batch(images, labels)


class TestIdxProperties:
    @PROPERTY
    @given(ds=datasets())
    def test_round_trip_moves_each_pixel_by_at_most_half_a_step(self, ds):
        back = parse_idx(*dataset_to_idx(ds))
        assert back.images.shape == ds.images.shape
        assert np.max(np.abs(back.images - ds.images)) <= 1.0 / 510.0
        np.testing.assert_array_equal(back.labels, ds.labels)

    @PROPERTY
    @given(ds=datasets(), which=st.sampled_from([0, 1]), data=st.data())
    def test_any_truncation_is_rejected(self, ds, which, data):
        payloads = list(dataset_to_idx(ds))
        keep = data.draw(st.integers(0, len(payloads[which]) - 1))
        payloads[which] = payloads[which][:keep]
        with pytest.raises(IdxFormatError):
            parse_idx(*payloads)

    @PROPERTY
    @given(ds=datasets(), which=st.sampled_from([0, 1]), data=st.data())
    def test_any_other_magic_is_rejected(self, ds, which, data):
        expected = (IMAGE_MAGIC, LABEL_MAGIC)[which]
        magic = data.draw(st.integers(0, 2**32 - 1).filter(lambda m: m != expected))
        payloads = list(dataset_to_idx(ds))
        payloads[which] = struct.pack(">I", magic) + payloads[which][4:]
        with pytest.raises(IdxFormatError, match="magic"):
            parse_idx(*payloads)


class TestBatch:
    @pytest.mark.parametrize(
        "labels, shown",
        [([0.5, 1.9], "0.5"), ([1.0, np.nan], "nan"), ([-np.inf, 0.0], "-inf"),
         ([np.inf, 1.0], "inf"), ([1.0, -0.5], "-0.5"), ([1e300, 0.0], "1e+300"),
         ([0.0, np.nan], "nan")],
    )
    def test_rejects_labels_that_are_not_integers(self, labels, shown):
        # a cast would train on [0, 1] and report 2 classes for [0.5, 1.9]
        with pytest.raises(ValueError, match=re.escape(f"labels must be integers, got {shown}")):
            Batch(np.zeros((2, 2)), labels)

    def test_rejects_negative_labels(self):
        for labels in ([-1], [-1.0]):
            with pytest.raises(ValueError, match="labels must be nonnegative, got -1"):
                Batch(np.zeros((1, 2)), labels)

    def test_rejects_unsigned_labels_that_int64_would_wrap(self):
        # the cast would report 2**63 + 5 as -9223372036854775803
        with pytest.raises(ValueError) as exc:
            Batch(np.zeros((2, 2)), np.array([1, 2**63 + 5], dtype=np.uint64))
        assert str(exc.value) == "labels must be below 2**63, got 9223372036854775813"
        below = Batch(np.zeros((2, 2)), np.array([2**63 - 1, 0], dtype=np.uint64))
        assert below.labels.dtype == np.int64 and below.labels.tolist() == [2**63 - 1, 0]

    @pytest.mark.parametrize("labels, shown", [
        # numpy holds this list as float64, which would report 9.223372036854776e+18
        ([1, 2**63 + 5], "labels must be below 2**63, got 9223372036854775813"),
        # and these as objects, whose int64 cast raises OverflowError
        ([2**64], "labels must be below 2**63, got 18446744073709551616"),
        ([-(2**63) - 5], "labels must be nonnegative, got -9223372036854775813"),
    ])
    def test_names_a_python_int_label_outside_int64(self, labels, shown):
        with pytest.raises(ValueError) as exc:
            Batch(np.zeros((len(labels), 2)), labels)
        assert str(exc.value) == shown

    def test_rejects_count_mismatch(self):
        with pytest.raises(ValueError, match="2 images vs 3 labels"):
            Batch(np.zeros((2, 2)), np.zeros(3, dtype=int))

    def test_whole_float_labels_are_class_indices(self):
        batch = Batch(np.zeros((3, 2)), [2.0, 0.0, 1.0])
        assert batch.labels.dtype == np.int64 and batch.labels.tolist() == [2, 0, 1]
        assert batch.n_classes == 3

    def test_n_classes_is_one_past_the_largest_label(self):
        assert Batch(np.zeros((2, 1)), [0, 4]).n_classes == 5
        assert Batch(np.zeros((0, 1)), []).n_classes == 0

    def test_rows_is_the_checked_batch_of_those_rows(self):
        rng = np.random.default_rng(12)
        X, y = rng.standard_normal((50, 4)), rng.integers(0, 3, size=50)
        data = Batch(X, y)
        for idx in (rng.permutation(50)[:32], np.array([7]), np.arange(50)):
            got, want = data.rows(idx), Batch(X[idx], y[idx])
            for a, b in ((got.images, want.images), (got.labels, want.labels)):
                assert a.dtype == b.dtype and a.shape == b.shape
                assert a.tobytes() == b.tobytes()
            assert not np.shares_memory(got.images, data.images)
            assert not np.shares_memory(got.labels, data.labels)
            assert len(got) == len(idx) and got.n_classes == data.n_classes

    def test_one_type_for_loaders_training_and_bench(self):
        # nn trains on, and bench hands on, the type the loaders return
        assert nn.Batch is Batch and bench.Batch is Batch
        assert type(synth_blobs(2, 2, 3, 6.0, seed=1)) is Batch

    def test_rows_builds_from_its_own_type(self, monkeypatch):
        # a wrapper standing in for the module's name, as a tracer installs
        # one, is not called by rows()
        data = synth_blobs(5, 2, 3, 6.0, seed=1)

        def stand_in(*args, **kwargs):
            raise AssertionError("rows() looked up the module's Batch")

        monkeypatch.setattr("splitopt.datasets.Batch", stand_in)
        assert type(data.rows(np.arange(4))) is Batch


class TestSynthBlobs:
    def test_deterministic(self):
        a = synth_blobs(20, 3, 4, 5.0, seed=9)
        b = synth_blobs(20, 3, 4, 5.0, seed=9)
        assert np.array_equal(a.images, b.images)
        assert np.array_equal(a.labels, b.labels)

    def test_exact_label_counts(self):
        ds = synth_blobs(100, 2, 2, 6.0, seed=1)
        counts = np.bincount(ds.labels)
        assert counts.tolist() == [100, 100]

    def test_values_inside_unit_box(self):
        ds = synth_blobs(200, 4, 3, 6.0, seed=2)
        assert ds.images.min() >= 0.0 and ds.images.max() <= 1.0

    def test_nearest_centroid_separates_wide_blobs(self):
        ds = synth_blobs(100, 2, 2, 10.0, seed=1)
        centroids = np.stack(
            [ds.images[ds.labels == c].mean(axis=0) for c in range(2)]
        )
        dists = np.linalg.norm(ds.images[:, None, :] - centroids[None], axis=2)
        predicted = np.argmin(dists, axis=1)
        assert np.array_equal(predicted, ds.labels)

    @pytest.mark.parametrize("n_per_class, n_classes, dim, separation, seed", [
        (1, 1, 1, 6.0, 0), (40, 2, 2, 6.0, 1), (7, 10, 784, 3.0, 2), (25, 3, 5, 0.5, 3),
        (3, 7, 1, 12.0, 4), (100, 4, 30, 2.0, 5),
    ])
    def test_maps_into_the_unit_box_as_the_out_of_place_formula(
        self, n_per_class, n_classes, dim, separation, seed
    ):
        # the reference draws one block per class, in class order
        rng = np.random.default_rng(seed)
        step = separation / np.sqrt(dim)
        raw = np.concatenate(
            [rng.standard_normal((n_per_class, dim)) + c * step for c in range(n_classes)]
        )
        lo, hi = -4.0, (n_classes - 1) * step + 4.0
        reference = np.clip((raw - lo) / (hi - lo), 0, 1)
        labels = np.concatenate([np.full(n_per_class, c, dtype=np.int64) for c in range(n_classes)])
        ds = synth_blobs(n_per_class, n_classes, dim, separation, seed)
        assert ds.images.tobytes() == reference.tobytes()
        assert ds.labels.dtype == np.int64 and ds.labels.tobytes() == labels.tobytes()

    def test_validation(self):
        with pytest.raises(ValueError):
            synth_blobs(0, 2, 2, 6.0, seed=1)
        with pytest.raises(ValueError):
            synth_blobs(10, 2, 2, 0.0, seed=1)

    @pytest.mark.parametrize("separation", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_separation(self, separation):
        with pytest.raises(ValueError, match="separation must be positive and finite"):
            synth_blobs(10, 2, 2, separation, seed=1)

    @pytest.mark.parametrize("separation", [1e308, np.float64(1e308)])
    def test_rejects_class_means_beyond_float64_before_drawing(self, separation):
        # the last of four means sits at 3e308 / sqrt(2): the draw would be NaN
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=re.escape(
                "separation 1e+308 over 4 classes overflows float64"
            )):
                synth_blobs(10, 4, 2, separation, seed=1)
