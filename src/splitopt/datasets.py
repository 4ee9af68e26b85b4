"""Dataset ingestion: IDX-format files and seeded synthetic blobs.

The IDX container stores big-endian 4-byte magics and dimension sizes
followed by raw unsigned bytes (magic 0x00000803 for images with dims
N x rows x cols, 0x00000801 for labels with N entries).  Pixels are scaled
to [0, 1] by /255 on load.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Tuple

import numpy as np

IMAGE_MAGIC = 0x00000803
LABEL_MAGIC = 0x00000801


class IdxFormatError(ValueError):
    """Malformed IDX payload: wrong magic, truncated body, or count mismatch."""


@dataclass
class Dataset:
    """Feature matrix in [0, 1] with integer class labels."""

    images: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        self.images = np.atleast_2d(np.asarray(self.images, dtype=float))
        self.labels = np.atleast_1d(np.asarray(self.labels, dtype=np.int64))
        if self.images.shape[0] == 0:
            raise ValueError("dataset must contain at least one sample")
        if self.images.shape[0] != self.labels.shape[0]:
            raise ValueError(
                f"{self.images.shape[0]} images vs {self.labels.shape[0]} labels"
            )
        if self.labels.min() < 0:
            raise ValueError("labels must be nonnegative")
        lo, hi = float(self.images.min()), float(self.images.max())
        # negated so that a NaN value fails it
        if not (lo >= 0.0 and hi <= 1.0):
            raise ValueError(f"image values must lie in [0, 1], got [{lo}, {hi}]")

    def __len__(self) -> int:
        return self.images.shape[0]

    @property
    def n_classes(self) -> int:
        return int(self.labels.max()) + 1


def parse_idx(image_bytes: bytes, label_bytes: bytes) -> Dataset:
    """Decode an IDX image file and its label file into a Dataset."""
    if len(image_bytes) < 16:
        raise IdxFormatError(
            f"image header needs 16 bytes, got {len(image_bytes)}"
        )
    magic, count, rows, cols = struct.unpack(">IIII", image_bytes[:16])
    if magic != IMAGE_MAGIC:
        raise IdxFormatError(
            f"bad image magic 0x{magic:08x}, expected 0x{IMAGE_MAGIC:08x}"
        )
    expected = count * rows * cols
    payload = image_bytes[16:]
    if len(payload) != expected:
        raise IdxFormatError(
            f"image payload holds {len(payload)} bytes, header promises {expected}"
        )
    pixels = np.frombuffer(payload, dtype=np.uint8).astype(float) / 255.0
    images = pixels.reshape(count, rows * cols)

    if len(label_bytes) < 8:
        raise IdxFormatError(f"label header needs 8 bytes, got {len(label_bytes)}")
    magic, n_labels = struct.unpack(">II", label_bytes[:8])
    if magic != LABEL_MAGIC:
        raise IdxFormatError(
            f"bad label magic 0x{magic:08x}, expected 0x{LABEL_MAGIC:08x}"
        )
    body = label_bytes[8:]
    if len(body) != n_labels:
        raise IdxFormatError(
            f"label payload holds {len(body)} bytes, header promises {n_labels}"
        )
    if n_labels != count:
        raise IdxFormatError(f"{count} images but {n_labels} labels")
    labels = np.frombuffer(body, dtype=np.uint8).astype(np.int64)
    return Dataset(images=images, labels=labels)


def dataset_to_idx(dataset: Dataset) -> Tuple[bytes, bytes]:
    """Serialize a Dataset to (image_bytes, label_bytes) IDX payloads.

    Features are written as one row of width d; values quantize to bytes
    by rounding x*255, so a round trip moves each pixel by at most 1/510.
    """
    n, d = dataset.images.shape
    pixels = np.clip(np.rint(dataset.images * 255.0), 0, 255).astype(np.uint8)
    image_bytes = struct.pack(">IIII", IMAGE_MAGIC, n, 1, d) + pixels.tobytes()
    labels = dataset.labels
    if labels.max() > 255:
        raise ValueError("IDX labels are single bytes; class index exceeds 255")
    label_bytes = struct.pack(">II", LABEL_MAGIC, n) + labels.astype(np.uint8).tobytes()
    return image_bytes, label_bytes


def load_idx(image_path: str | Path, label_path: str | Path) -> Dataset:
    """parse_idx over the contents of the two files."""
    return parse_idx(Path(image_path).read_bytes(), Path(label_path).read_bytes())


def synth_blobs(
    n_per_class: int,
    n_classes: int,
    dim: int,
    separation: float,
    seed: int,
) -> Dataset:
    """Seeded Gaussian clusters mapped into the unit box.

    Class means sit on the main diagonal with consecutive means exactly
    `separation` apart in units of the within-class standard deviation;
    the affine map into [0, 1]^dim preserves that ratio.  Tail values
    beyond the 4-sigma margin are clipped.
    """
    if n_per_class < 1 or n_classes < 1 or dim < 1:
        raise ValueError("counts must be at least 1")
    if not 0 < separation < np.inf:
        raise ValueError(f"separation must be positive and finite, got {separation}")
    rng = np.random.default_rng(seed)
    step = separation / np.sqrt(dim)
    raw = np.empty((n_per_class * n_classes, dim))
    labels = np.empty(n_per_class * n_classes, dtype=np.int64)
    for c in range(n_classes):
        block = slice(c * n_per_class, (c + 1) * n_per_class)
        raw[block] = rng.standard_normal((n_per_class, dim)) + c * step
        labels[block] = c
    lo = -4.0
    hi = (n_classes - 1) * step + 4.0
    images = np.clip((raw - lo) / (hi - lo), 0.0, 1.0)
    return Dataset(images=images, labels=labels)
