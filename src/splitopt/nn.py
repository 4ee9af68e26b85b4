"""Minimal multilayer perceptron with backpropagation.

Dense layers with rectifier activations and a log-softmax head, the
negative-log-likelihood loss (taken of the log-softmax, it is the cross
entropy of the logits), seeded epoch shuffling, and the pixel
normalization used by the training pipeline.  Everything is plain float64
numpy.  The weights and biases are views of one flat parameter vector, and
the gradient comes back in the same layout, so the model plugs directly
into the optimizer step functions; views of any other vector in that
layout (an optimizer's evaluation point, a gradient buffer) come from
MlpModel.layers.
"""

from __future__ import annotations

from typing import Iterable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .datasets import Batch

NORMALIZE_MEAN = 0.1307
NORMALIZE_STD = 0.3081
CLASS_RANGE_ERROR = "target out of range for the model's class count"


def normalize(x: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Shift and scale raw values in [0, 1] by the fixed pixel statistics,
    into out (which may be x itself) or, when it is None, a fresh array."""
    out = np.subtract(np.asarray(x, dtype=float), NORMALIZE_MEAN, out=out)
    out /= NORMALIZE_STD
    return out


def log_softmax(x: np.ndarray) -> np.ndarray:
    """Log-probabilities along the last axis, stabilized by max subtraction;
    the reductions are the ufuncs that .max and .sum call."""
    x = np.asarray(x, dtype=float)
    shifted = x - np.maximum.reduce(x, axis=-1, keepdims=True)
    shifted -= np.log(np.add.reduce(np.exp(shifted), axis=-1, keepdims=True))
    return shifted


def mean_target_nll(log_probs: np.ndarray, targets: np.ndarray) -> float:
    """The one loss of training and evaluation: -np.mean of each
    row's target log-probability; a batch's loss is this of model.forward.
    A target at or above the class count fails the pick with a ValueError."""
    m = log_probs.shape[0]
    try:
        picked = log_probs[np.arange(m), targets]
    except IndexError:
        raise ValueError(CLASS_RANGE_ERROR) from None
    return float(-(np.add.reduce(picked) / m))


def rectify_in_place(pre: np.ndarray) -> None:
    """Rectify pre in its own buffer.  fmax(pre, 0) + 0 is np.where(pre > 0,
    pre, 0.0) bit for bit on every float64, NaN, +-inf, +-0 and subnormals
    included (the + 0 turns fmax's -0.0 into +0.0), with no new array; so
    the result is > 0 exactly where pre was, the derivative's mask (taken
    as 0 at 0)."""
    np.fmax(pre, 0.0, out=pre)
    pre += 0.0


def _layout(shapes: Iterable[Tuple[int, int]]) -> List[Tuple[slice, Tuple[int, int], slice]]:
    """(weight slice, weight shape, bias slice) per layer of a flat vector:
    each layer's (fan_in, fan_out) weights row-major, then its biases."""
    layout = []
    offset = 0
    for fan_in, fan_out in shapes:
        end = offset + fan_in * fan_out
        layout.append((slice(offset, end), (fan_in, fan_out), slice(end, end + fan_out)))
        offset = end + fan_out
    return layout


class Layers(NamedTuple):
    """A flat vector in the parameter layout and its per-layer weight and
    bias views, which share its memory."""

    flat: np.ndarray
    weights: List[np.ndarray]
    biases: List[np.ndarray]


class MlpModel:
    """Fully connected rectifier network ending in a log-softmax head.

    sizes = (input_dim, hidden..., n_classes).  The weight and bias arrays
    are views of one flat float64 buffer laid out as param_vector returns
    it (params.flat), all zero until init draws them or set_param_vector
    fills them.
    """

    def __init__(self, sizes: Sequence[int]):
        if len(sizes) < 2 or min(sizes) < 1:
            raise ValueError(f"need input and output sizes, all positive, got {tuple(sizes)}")
        self._layout = _layout(zip(sizes[:-1], sizes[1:]))
        self.params = self.layers(np.zeros(self.n_params))
        self.weights, self.biases = self.params.weights, self.params.biases

    @classmethod
    def init(cls, sizes: Sequence[int], seed: int) -> "MlpModel":
        """Seeded uniform initialization in +-1/sqrt(fan_in) per layer,
        each layer's weights drawn before its biases."""
        model = cls(sizes)
        rng = np.random.default_rng(seed)
        for w, b in zip(model.weights, model.biases):
            bound = 1.0 / np.sqrt(w.shape[0])
            w[...] = rng.uniform(-bound, bound, size=w.shape)
            b[...] = rng.uniform(-bound, bound, size=b.shape)
        return model

    @property
    def n_params(self) -> int:
        return self._layout[-1][2].stop

    def layers(self, flat: np.ndarray) -> Layers:
        """The weight and bias views of flat, which must be a contiguous
        float64 vector of n_params entries: writing a view writes flat."""
        n = self.n_params
        if not (isinstance(flat, np.ndarray) and flat.dtype == np.float64
                and flat.shape == (n,) and flat.flags.c_contiguous):
            found = f"{getattr(flat, 'dtype', type(flat).__name__)} {np.shape(flat)}"
            raise ValueError(f"a parameter buffer is a contiguous float64 ({n},), got {found}")
        return Layers(
            flat,
            [flat[w].reshape(shape) for w, shape, _ in self._layout],
            [flat[b] for _, _, b in self._layout],
        )

    def param_vector(self) -> np.ndarray:
        """Copy of all weights and biases as one vector (layer order,
        weights before biases)."""
        return self.params.flat.copy()

    def set_param_vector(self, theta: np.ndarray) -> None:
        """Inverse of param_vector; copies values into the layer arrays."""
        theta = np.asarray(theta, dtype=float)
        if theta.size != self.n_params:
            raise ValueError(
                f"parameter vector has {theta.size} entries, expected {self.n_params}"
            )
        self.params.flat[...] = theta.ravel()

    def _forward_trace(self, X: np.ndarray, params: Layers):
        """Logits plus the per-layer activations of a 2-D float64 X, such as
        a Batch's images, with the weights and biases of params."""
        if X.shape[1] != self.weights[0].shape[0]:
            raise ValueError(
                f"input has {X.shape[1]} features, model expects "
                f"{self.weights[0].shape[0]}"
            )
        activations = [X]
        h = X
        for w, b in zip(params.weights[:-1], params.biases[:-1]):
            h = h @ w
            h += b
            rectify_in_place(h)
            activations.append(h)
        logits = h @ params.weights[-1]
        logits += params.biases[-1]
        return logits, activations

    def forward(self, X: np.ndarray) -> np.ndarray:
        """Log-probabilities for a batch of inputs."""
        logits, _ = self._forward_trace(np.atleast_2d(np.asarray(X, dtype=float)), self.params)
        return log_softmax(logits)


def forward_backward(
    model: MlpModel, batch: Batch, params: Optional[Layers] = None, grad: Optional[Layers] = None
) -> np.ndarray:
    """Gradient, in the flat parameter layout, of the batch's loss at params
    (the model's own model.params when None): the mean_target_nll of
    model.forward(batch.images) at those weights, which is not computed
    here.  It is written into grad (a fresh vector's layers when None),
    whose flat vector is returned, so it stays valid until the next call
    that writes grad; params and the model are only read.  Batch checks
    the labels, _forward_trace the input width, and this function the
    empty batch and, before any flat index is formed, the batch's
    n_classes against the model's class count."""
    m = len(batch)
    if m == 0:
        raise ValueError("batch must be nonempty")
    classes = model.biases[-1].shape[0]
    if batch.n_classes > classes:
        raise ValueError(CLASS_RANGE_ERROR)
    params = model.params if params is None else params
    grad = model.layers(np.empty(model.n_params)) if grad is None else grad
    logits, activations = model._forward_trace(batch.images, params)
    delta = log_softmax(logits)
    np.exp(delta, out=delta)
    # each row's label entry, as a flat index into the (m, classes) delta
    delta.ravel()[np.arange(0, m * classes, classes) + batch.labels] -= 1.0
    delta /= m

    for layer in range(len(params.weights) - 1, -1, -1):
        np.matmul(activations[layer].T, delta, out=grad.weights[layer])
        np.add.reduce(delta, axis=0, out=grad.biases[layer])
        if layer > 0:
            delta = delta @ params.weights[layer].T
            delta *= activations[layer] > 0
    return grad.flat


def epoch_batches(n_samples: int, batch_size: int, seed: int) -> List[np.ndarray]:
    """Seeded random permutation of range(n_samples) chunked into batches.

    The final chunk holds the remainder when batch_size does not divide
    n_samples.  Callers derive a fresh seed per epoch (base seed + epoch).
    """
    if n_samples < 1 or batch_size < 1:
        raise ValueError("n_samples and batch_size must be at least 1")
    order = np.random.default_rng(seed).permutation(n_samples)
    return [order[i : i + batch_size] for i in range(0, n_samples, batch_size)]
