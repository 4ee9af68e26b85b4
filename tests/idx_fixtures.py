"""IDX fixture writer for the tests: the inverse of splitopt.datasets.parse_idx."""

import struct
from typing import Tuple

import numpy as np

from splitopt.datasets import IMAGE_MAGIC, LABEL_MAGIC, Batch


def dataset_to_idx(dataset: Batch) -> Tuple[bytes, bytes]:
    """Serialize a Batch to (image_bytes, label_bytes) IDX payloads.

    Features are written as one row of width d; values quantize to bytes
    by rounding x*255, so a round trip moves each pixel by at most 1/510.
    """
    n, d = dataset.images.shape
    if n * d == 0:  # parse_idx rejects a file without pixels
        raise ValueError(f"an IDX file needs a pixel, got images of shape {(n, d)}")
    pixels = np.clip(np.rint(dataset.images * 255.0), 0, 255).astype(np.uint8)
    image_bytes = struct.pack(">IIII", IMAGE_MAGIC, n, 1, d) + pixels.tobytes()
    if dataset.labels.max() > 255:
        raise ValueError("IDX labels are single bytes; class index exceeds 255")
    label_bytes = struct.pack(">II", LABEL_MAGIC, n) + dataset.labels.astype(np.uint8).tobytes()
    return image_bytes, label_bytes
