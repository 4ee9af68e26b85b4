"""Unit tests for IDX parsing and the synthetic blob generator."""

import struct

import numpy as np
import pytest

from splitopt.datasets import (
    Dataset,
    IdxFormatError,
    dataset_to_idx,
    load_idx,
    parse_idx,
    synth_blobs,
)


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

    @pytest.mark.parametrize("rows, cols", [(0, 28), (28, 0), (0, 0)])
    def test_images_without_pixels(self, rows, cols):
        with pytest.raises(IdxFormatError, match="no pixels"):
            parse_idx(image_payload(2, rows, cols, []), label_payload([0, 1]))

    def test_loaded_values_stay_in_unit_interval(self):
        pixels = list(range(256)) * 2
        ds = parse_idx(
            image_payload(2, 16, 16, pixels), label_payload([0, 1])
        )
        assert ds.images.min() >= 0.0 and ds.images.max() <= 1.0


class TestRoundTrip:
    def test_serialize_then_parse_quantizes_within_half_step(self):
        rng = np.random.default_rng(0)
        original = Dataset(rng.random((7, 5)), rng.integers(0, 3, size=7))
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
        ds = Dataset(np.zeros((1, 2)), np.array([300]))
        with pytest.raises(ValueError, match="single bytes"):
            dataset_to_idx(ds)


class TestDatasetValidation:
    def test_rejects_out_of_range_values(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            Dataset(np.array([[1.5]]), np.array([0]))

    def test_rejects_nan_values(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            Dataset(np.array([[np.nan]]), np.array([0]))

    def test_rejects_count_mismatch(self):
        with pytest.raises(ValueError):
            Dataset(np.zeros((2, 2)), np.zeros(3, dtype=int))

    def test_rejects_negative_labels(self):
        with pytest.raises(ValueError):
            Dataset(np.zeros((1, 2)), np.array([-1]))


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

    def test_validation(self):
        with pytest.raises(ValueError):
            synth_blobs(0, 2, 2, 6.0, seed=1)
        with pytest.raises(ValueError):
            synth_blobs(10, 2, 2, 0.0, seed=1)

    @pytest.mark.parametrize("separation", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_separation(self, separation):
        with pytest.raises(ValueError, match="separation must be positive and finite"):
            synth_blobs(10, 2, 2, separation, seed=1)
