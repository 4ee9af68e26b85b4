"""Minimal multilayer perceptron with backpropagation.

Dense layers with rectifier activations and a log-softmax head, the
negative-log-likelihood and cross-entropy losses, seeded epoch shuffling,
and the pixel normalization used by the training pipeline.  Everything is
plain float64 numpy.  The weights and biases are views of one flat
parameter vector, and the gradient comes back in the same layout, so the
model plugs directly into the optimizer step functions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

NORMALIZE_MEAN = 0.1307
NORMALIZE_STD = 0.3081


def normalize(x: np.ndarray) -> np.ndarray:
    """Shift and scale raw values in [0, 1] by the fixed pixel statistics."""
    return (np.asarray(x, dtype=float) - NORMALIZE_MEAN) / NORMALIZE_STD


def log_softmax(x: np.ndarray) -> np.ndarray:
    """Log-probabilities along the last axis, stabilized by max subtraction."""
    x = np.asarray(x, dtype=float)
    shifted = x - x.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def nll_loss(log_probs: np.ndarray, targets: np.ndarray) -> float:
    """Mean negative log-probability of the target class per row."""
    log_probs = np.atleast_2d(np.asarray(log_probs, dtype=float))
    targets = np.atleast_1d(np.asarray(targets))
    if targets.shape[0] != log_probs.shape[0]:
        raise ValueError("one target per row required")
    if np.any(targets < 0) or np.any(targets >= log_probs.shape[1]):
        raise ValueError(
            f"target out of range [0, {log_probs.shape[1]}): {targets}"
        )
    picked = log_probs[np.arange(log_probs.shape[0]), targets]
    return float(-np.mean(picked))


def cross_entropy_loss(logits: np.ndarray, targets: np.ndarray) -> float:
    """nll_loss(log_softmax(logits), targets), computed fused."""
    return nll_loss(log_softmax(logits), targets)


@dataclass
class Batch:
    """A block of inputs with one class index per row."""

    inputs: np.ndarray
    targets: np.ndarray

    def __post_init__(self):
        self.inputs = np.atleast_2d(np.asarray(self.inputs, dtype=float))
        self.targets = np.atleast_1d(np.asarray(self.targets, dtype=np.int64))
        if self.inputs.shape[0] != self.targets.shape[0]:
            raise ValueError(
                f"{self.inputs.shape[0]} input rows vs "
                f"{self.targets.shape[0]} targets"
            )
        if self.targets.size and self.targets.min() < 0:
            raise ValueError("class indices must be nonnegative")

    def __len__(self) -> int:
        return self.inputs.shape[0]


def _layer_views(
    flat: np.ndarray, shapes: Sequence[Tuple[int, int]]
) -> Tuple[List[np.ndarray], List[np.ndarray]]:
    """Weight and bias views of a flat vector: layer by layer, each layer's
    (fan_in, fan_out) weights row-major before its fan_out biases."""
    weights, biases = [], []
    offset = 0
    for fan_in, fan_out in shapes:
        end = offset + fan_in * fan_out
        weights.append(flat[offset:end].reshape(fan_in, fan_out))
        biases.append(flat[end : end + fan_out])
        offset = end + fan_out
    return weights, biases


class MlpModel:
    """Fully connected rectifier network ending in a log-softmax head.

    The weight and bias arrays are views of one flat float64 buffer laid
    out as param_vector returns it; the given arrays are copied in.
    """

    def __init__(self, weights: List[np.ndarray], biases: List[np.ndarray]):
        self._shapes = [np.shape(w) for w in weights]
        n_params = sum(np.size(w) + np.size(b) for w, b in zip(weights, biases))
        self._flat = np.empty(n_params)
        self.weights, self.biases = _layer_views(self._flat, self._shapes)
        for view, given in zip(self.weights + self.biases, [*weights, *biases]):
            view[...] = given

    @classmethod
    def init(cls, sizes: Sequence[int], seed: int) -> "MlpModel":
        """Seeded uniform initialization in +-1/sqrt(fan_in) per layer.

        sizes = (input_dim, hidden..., n_classes).
        """
        if len(sizes) < 2:
            raise ValueError("need at least input and output sizes")
        rng = np.random.default_rng(seed)
        weights, biases = [], []
        for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
            bound = 1.0 / np.sqrt(fan_in)
            weights.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
            biases.append(rng.uniform(-bound, bound, size=fan_out))
        return cls(weights, biases)

    @property
    def n_params(self) -> int:
        return self._flat.size

    def param_vector(self) -> np.ndarray:
        """Copy of all weights and biases as one vector (layer order,
        weights before biases)."""
        return self._flat.copy()

    def set_param_vector(self, theta: np.ndarray) -> None:
        """Inverse of param_vector; copies values into the layer arrays."""
        theta = np.asarray(theta, dtype=float)
        if theta.size != self._flat.size:
            raise ValueError(
                f"parameter vector has {theta.size} entries, expected {self._flat.size}"
            )
        self._flat[...] = theta.ravel()

    def _forward_trace(self, X: np.ndarray):
        """Logits plus the per-layer activations and rectifier masks."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if X.shape[1] != self.weights[0].shape[0]:
            raise ValueError(
                f"input has {X.shape[1]} features, model expects "
                f"{self.weights[0].shape[0]}"
            )
        activations = [X]
        masks = []
        h = X
        for w, b in zip(self.weights[:-1], self.biases[:-1]):
            pre = h @ w + b
            mask = pre > 0  # rectifier derivative taken as 0 at 0
            h = np.where(mask, pre, 0.0)
            activations.append(h)
            masks.append(mask)
        logits = h @ self.weights[-1] + self.biases[-1]
        return logits, activations, masks

    def forward(self, X: np.ndarray) -> np.ndarray:
        """Log-probabilities for a batch of inputs."""
        logits, _, _ = self._forward_trace(X)
        return log_softmax(logits)


def forward_backward(model: MlpModel, batch: Batch) -> Tuple[float, np.ndarray]:
    """Loss and gradient with respect to the flattened parameters.

    The loss is the negative log likelihood of the log-softmax output,
    which is also the cross entropy of the raw logits; it and the gradient
    come from one log-softmax.  Batch has already checked the row count
    and the nonnegative targets.
    """
    m = len(batch)
    if m == 0:
        raise ValueError("batch must be nonempty")
    logits, activations, masks = model._forward_trace(batch.inputs)
    targets = batch.targets
    if targets.max() >= logits.shape[1]:
        raise ValueError("target out of range for the model's class count")
    log_probs = log_softmax(logits)
    rows = np.arange(m)
    value = float(-log_probs[rows, targets].mean())

    delta = np.exp(log_probs)
    delta[rows, targets] -= 1.0
    delta /= m

    grad = np.empty(model.n_params)
    grads_w, grads_b = _layer_views(grad, model._shapes)
    for layer in range(len(model.weights) - 1, -1, -1):
        np.matmul(activations[layer].T, delta, out=grads_w[layer])
        delta.sum(axis=0, out=grads_b[layer])
        if layer > 0:
            delta = (delta @ model.weights[layer].T) * masks[layer - 1]
    return value, grad


def epoch_batches(n_samples: int, batch_size: int, seed: int) -> List[np.ndarray]:
    """Seeded random permutation of range(n_samples) chunked into batches.

    The final chunk holds the remainder when batch_size does not divide
    n_samples.  Callers derive a fresh seed per epoch (base seed + epoch).
    """
    if n_samples < 1 or batch_size < 1:
        raise ValueError("n_samples and batch_size must be at least 1")
    order = np.random.default_rng(seed).permutation(n_samples)
    return [order[i : i + batch_size] for i in range(0, n_samples, batch_size)]
