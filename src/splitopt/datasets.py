"""Labelled sets: the Batch type, IDX-format files and seeded synthetic blobs.

The IDX container stores big-endian 4-byte magics and dimension sizes
followed by raw unsigned bytes (magic 0x00000803 for images with dims
N x rows x cols, 0x00000801 for labels with N entries).  Pixels are read
in place from the file bytes and scaled to [0, 1] by /255 into one float64
matrix per set; blobs are clipped to the unit box.  So the loaders' images
lie in [0, 1] by construction, and Batch itself does not check the range.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

IMAGE_MAGIC = 0x00000803
LABEL_MAGIC = 0x00000801


class IdxFormatError(ValueError):
    """Malformed IDX payload: wrong magic, truncated body, count mismatch,
    or an image file with no pixels (no images, or images of size 0)."""


def class_indices(values, what: str) -> np.ndarray:
    """values as an int64 array of at least one dimension.  A fraction,
    NaN or infinity raises rather than being truncated by the cast, and so
    does a negative value; the message names the bad value."""
    raw = np.asarray(values)
    if raw.dtype.kind == "f":
        whole = (np.abs(raw) < 2.0**63) & (raw == np.trunc(raw))
        if not np.all(whole):
            raise ValueError(f"{what} must be integers, got {raw[~whole].flat[0]}")
    indices = np.atleast_1d(np.asarray(raw, dtype=np.int64))
    low = indices.min() if indices.size else 0
    if low < 0:
        raise ValueError(f"{what} must be nonnegative, got {low}")
    return indices


@dataclass(eq=False)
class Batch:
    """Feature rows with one nonnegative class label each, checked once when
    built: the loaders' sets and training's mini-batches.  n_classes, one
    more than the largest label (0 if none), is what forward_backward checks
    a model's class count against.  A float64 matrix is kept, not copied."""

    images: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        self.images = np.atleast_2d(np.asarray(self.images, dtype=float))
        self.labels = class_indices(self.labels, "labels")
        if self.images.shape[0] != self.labels.shape[0]:
            raise ValueError(
                f"{self.images.shape[0]} images vs {self.labels.shape[0]} labels"
            )
        self.n_classes = int(self.labels.max()) + 1 if self.labels.size else 0

    def __len__(self) -> int:
        return self.images.shape[0]

    def rows(self, idx: np.ndarray) -> "Batch":
        """The rows at the integer indices idx, copied, as a batch of this type
        that skips the checks this one passed and keeps its n_classes."""
        subset = type(self).__new__(type(self))
        subset.images = self.images.take(idx, axis=0)
        subset.labels = self.labels.take(idx, axis=0)
        subset.n_classes = self.n_classes
        return subset


def parse_idx(image_bytes: bytes, label_bytes: bytes) -> Batch:
    """Decode an IDX image file and its label file into a Batch."""
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
    if expected == 0:
        raise IdxFormatError(
            f"image header gives {count} images of {rows}x{cols}, which hold no pixels"
        )
    if len(image_bytes) - 16 != expected:
        raise IdxFormatError(
            f"image payload holds {len(image_bytes) - 16} bytes, header promises {expected}"
        )
    pixels = np.frombuffer(image_bytes, dtype=np.uint8, offset=16)
    images = np.divide(pixels, 255.0).reshape(count, rows * cols)

    if len(label_bytes) < 8:
        raise IdxFormatError(f"label header needs 8 bytes, got {len(label_bytes)}")
    magic, n_labels = struct.unpack(">II", label_bytes[:8])
    if magic != LABEL_MAGIC:
        raise IdxFormatError(
            f"bad label magic 0x{magic:08x}, expected 0x{LABEL_MAGIC:08x}"
        )
    if len(label_bytes) - 8 != n_labels:
        raise IdxFormatError(
            f"label payload holds {len(label_bytes) - 8} bytes, header promises {n_labels}"
        )
    if n_labels != count:
        raise IdxFormatError(f"{count} images but {n_labels} labels")
    labels = np.frombuffer(label_bytes, dtype=np.uint8, offset=8).astype(np.int64)
    return Batch(images=images, labels=labels)


def load_idx(image_path: str | Path, label_path: str | Path) -> Batch:
    """parse_idx over the contents of the two files."""
    return parse_idx(Path(image_path).read_bytes(), Path(label_path).read_bytes())


def synth_blobs(
    n_per_class: int,
    n_classes: int,
    dim: int,
    separation: float,
    seed: int,
) -> Batch:
    """Seeded Gaussian clusters mapped into the unit box.

    Class means sit on the main diagonal with consecutive means exactly
    `separation` apart in units of the within-class standard deviation;
    the affine map into [0, 1]^dim preserves that ratio.  Tail values
    beyond the 4-sigma margin are clipped.  A separation whose last class
    mean overflows float64 is rejected before anything is drawn.
    """
    if n_per_class < 1 or n_classes < 1 or dim < 1:
        raise ValueError("counts must be at least 1")
    if not 0 < separation < np.inf:
        raise ValueError(f"separation must be positive and finite, got {separation}")
    # in Python floats, which overflow to inf without a warning
    step = float(separation) / math.sqrt(dim)
    lo, hi = -4.0, (n_classes - 1) * step + 4.0
    if not math.isfinite(hi):
        raise ValueError(f"separation {separation} over {n_classes} classes overflows float64")
    rng = np.random.default_rng(seed)
    labels = np.repeat(np.arange(n_classes, dtype=np.int64), n_per_class)
    raw = rng.standard_normal((n_per_class * n_classes, dim))
    raw += (labels * step)[:, None]
    raw -= lo
    raw /= hi - lo
    np.clip(raw, 0.0, 1.0, out=raw)
    return Batch(images=raw, labels=labels)
