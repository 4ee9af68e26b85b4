"""Unit tests for the MLP, losses, shuffling, and normalization."""

import math

import numpy as np
import pytest

from splitopt.nn import (
    Batch,
    MlpModel,
    cross_entropy_loss,
    epoch_batches,
    forward_backward,
    log_softmax,
    nll_loss,
    normalize,
)
from splitopt.objectives import fd_gradient


class TestLogSoftmax:
    def test_symmetric_two_logits(self):
        np.testing.assert_allclose(
            log_softmax(np.array([0.0, 0.0])), [-math.log(2)] * 2, rtol=1e-12
        )

    def test_shift_invariance(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(5)
        for c in (-100.0, 3.7, 1e6):
            np.testing.assert_allclose(log_softmax(x + c), log_softmax(x), atol=1e-9)

    def test_no_overflow_on_large_values(self):
        out = log_softmax(np.array([1000.0, 0.0]))
        assert np.all(np.isfinite(out))
        assert out[0] == pytest.approx(0.0, abs=1e-12)
        assert out[1] == pytest.approx(-1000.0)

    def test_rows_are_log_probabilities(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((20, 7)) * 10
        out = log_softmax(x)
        np.testing.assert_allclose(np.sum(np.exp(out), axis=1), 1.0, atol=1e-12)
        assert np.all(out <= 0.0)


class TestLosses:
    def test_nll_single_row(self):
        row = np.array([[-math.log(2), -math.log(2)]])
        assert nll_loss(row, np.array([0])) == pytest.approx(math.log(2), rel=1e-12)

    def test_nll_confident_row(self):
        row = np.array([[0.0, -1e9]])
        assert nll_loss(row, np.array([0])) == 0.0

    def test_nll_mean_reduction(self):
        rows = np.array([[-0.2, -1.7], [-2.0, -0.14]])
        got = nll_loss(rows, np.array([0, 1]))
        assert got == pytest.approx((0.2 + 0.14) / 2, rel=1e-12)

    def test_nll_target_range(self):
        with pytest.raises(ValueError, match="target out of range"):
            nll_loss(np.zeros((1, 3)), np.array([3]))

    def test_cross_entropy_closed_form(self):
        assert cross_entropy_loss(np.array([[0.0, 0.0]]), np.array([0])) == (
            pytest.approx(math.log(2), rel=1e-12)
        )

    def test_cross_entropy_is_the_composition(self):
        rng = np.random.default_rng(2)
        logits = rng.standard_normal((10, 4)) * 5
        targets = rng.integers(0, 4, size=10)
        fused = cross_entropy_loss(logits, targets)
        composed = nll_loss(log_softmax(logits), targets)
        assert fused == pytest.approx(composed, abs=1e-12)

    def test_saturated_margin(self):
        assert cross_entropy_loss(np.array([[50.0, -50.0]]), np.array([0])) == (
            pytest.approx(0.0, abs=1e-12)
        )

    def test_nonnegative(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            logits = rng.standard_normal((6, 5)) * 8
            targets = rng.integers(0, 5, size=6)
            assert cross_entropy_loss(logits, targets) >= 0.0
            assert nll_loss(log_softmax(logits), targets) >= 0.0


class TestMlpModel:
    def test_flatten_round_trip_is_identity(self):
        model = MlpModel.init((4, 8, 3), seed=1)
        theta = model.param_vector()
        model.set_param_vector(theta)
        np.testing.assert_array_equal(model.param_vector(), theta)

    def test_set_then_read_back_without_aliasing(self):
        model = MlpModel.init((4, 8, 3), seed=1)
        theta = np.random.default_rng(2).standard_normal(model.n_params)
        model.set_param_vector(theta)
        out = model.param_vector()
        assert out.tobytes() == theta.tobytes()
        np.testing.assert_array_equal(model.weights[0], theta[:32].reshape(4, 8))
        np.testing.assert_array_equal(model.biases[1], theta[-3:])
        # neither the vector read out nor the one written in aliases the model
        out[:] = 0.0
        theta[:] = 0.0
        assert np.all(model.param_vector() != 0.0)
        assert np.all(model.weights[0] != 0.0)

    def test_init_is_deterministic(self):
        a = MlpModel.init((4, 8, 3), seed=1).param_vector()
        b = MlpModel.init((4, 8, 3), seed=1).param_vector()
        assert np.array_equal(a, b)

    def test_init_respects_fan_in_bound(self):
        model = MlpModel.init((16, 8, 3), seed=2)
        assert np.max(np.abs(model.weights[0])) <= 1.0 / 4.0
        assert np.max(np.abs(model.weights[1])) <= 1.0 / np.sqrt(8)

    def test_forward_rows_are_log_probabilities(self):
        model = MlpModel.init((5, 6, 4), seed=3)
        X = np.random.default_rng(4).standard_normal((9, 5))
        out = model.forward(X)
        np.testing.assert_allclose(np.sum(np.exp(out), axis=1), 1.0, atol=1e-12)

    def test_input_width_check(self):
        model = MlpModel.init((5, 6, 4), seed=3)
        with pytest.raises(ValueError, match="features"):
            model.forward(np.zeros((2, 7)))
        with pytest.raises(ValueError):
            model.set_param_vector(np.zeros(3))


def reference_forward_backward(model, batch, loss):
    """The gradient as first composed: a separate loss pass, the exp of a
    second log-softmax, and per-layer arrays concatenated at the end.
    loss="nll" takes the value as nll_loss of the log-softmax, loss="xent"
    as cross_entropy_loss of the logits; forward_backward's one loss must
    equal both."""

    def ref_log_softmax(x):
        shifted = x - np.max(x, axis=-1, keepdims=True)
        return shifted - np.log(np.sum(np.exp(shifted), axis=-1, keepdims=True))

    logits, activations, masks = model._forward_trace(batch.inputs)
    if loss == "nll":
        value = nll_loss(ref_log_softmax(logits), batch.targets)
    else:
        value = cross_entropy_loss(logits, batch.targets)
    m = len(batch)
    delta = np.exp(ref_log_softmax(logits))
    delta[np.arange(m), batch.targets] -= 1.0
    delta /= m
    parts = []
    for layer in range(len(model.weights) - 1, -1, -1):
        parts = [(activations[layer].T @ delta).ravel(), delta.sum(axis=0)] + parts
        if layer > 0:
            delta = (delta @ model.weights[layer].T) * masks[layer - 1]
    return value, np.concatenate(parts)


class TestForwardBackward:
    @pytest.mark.parametrize("loss", ["nll", "xent"])
    @pytest.mark.parametrize("sizes", [(2, 32, 2), (784, 32, 10)])
    def test_bit_identical_to_reference_composition(self, sizes, loss):
        rng = np.random.default_rng(sum(sizes))
        for seed in range(5):
            model = MlpModel.init(sizes, seed=seed)
            rows = int(rng.integers(1, 40))
            batch = Batch(
                rng.standard_normal((rows, sizes[0])) * rng.uniform(0.5, 4.0),
                rng.integers(0, sizes[-1], size=rows),
            )
            value, grad = forward_backward(model, batch)
            ref_value, ref_grad = reference_forward_backward(model, batch, loss)
            assert np.float64(value).tobytes() == np.float64(ref_value).tobytes()
            assert grad.dtype == ref_grad.dtype and grad.shape == ref_grad.shape
            assert grad.tobytes() == ref_grad.tobytes()

    def test_zero_model_gives_uniform_predictions(self):
        model = MlpModel.init((3, 4, 5), seed=0)
        model.set_param_vector(np.zeros(model.n_params))
        rng = np.random.default_rng(5)
        batch = Batch(rng.standard_normal((8, 3)), rng.integers(0, 5, size=8))
        loss, grad = forward_backward(model, batch)
        assert loss == pytest.approx(math.log(5), rel=1e-12)
        # output-layer bias gradient: mean of (softmax - onehot) rows
        counts = np.bincount(batch.targets, minlength=5)
        expected_bias = 1.0 / 5.0 - counts / 8.0
        np.testing.assert_allclose(grad[-5:], expected_bias, atol=1e-12)

    def test_single_linear_layer_hand_trace(self):
        # identity weights, zero bias, one sample x = (1, 2), target 0
        model = MlpModel.init((2, 2), seed=0)
        model.weights[0][...] = np.eye(2)
        model.biases[0][...] = 0.0
        batch = Batch(np.array([[1.0, 2.0]]), np.array([0]))
        loss, grad = forward_backward(model, batch)
        p1 = 1.0 / (1.0 + math.exp(-1.0))  # softmax of logits (1, 2), class 1
        p0 = 1.0 - p1
        assert loss == pytest.approx(-math.log(p0), rel=1e-12)
        d = np.array([p0 - 1.0, p1])
        expected = np.concatenate([np.outer([1.0, 2.0], d).ravel(), d])
        np.testing.assert_allclose(grad, expected, atol=1e-12)

    def test_matches_finite_differences(self):
        model = MlpModel.init((4, 6, 3), seed=7)
        rng = np.random.default_rng(8)
        batch = Batch(rng.standard_normal((5, 4)), rng.integers(0, 3, size=5))
        _, grad = forward_backward(model, batch)
        theta = model.param_vector()

        def loss_at(t):
            model.set_param_vector(t)
            return forward_backward(model, batch)[0]

        fd = fd_gradient(loss_at, theta, 1e-5)
        model.set_param_vector(theta)
        err = np.max(np.abs(grad - fd)) / max(1.0, np.max(np.abs(fd)))
        assert err <= 1e-5

    def test_rejects_empty_batch_and_bad_targets(self):
        model = MlpModel.init((3, 4, 2), seed=0)
        with pytest.raises(ValueError, match="input rows"):
            Batch(np.zeros((2, 3)), np.zeros(3, dtype=int))
        with pytest.raises(ValueError, match="class count"):
            forward_backward(model, Batch(np.zeros((1, 3)), np.array([2])))


class TestEpochBatches:
    def test_deterministic(self):
        a = epoch_batches(4, 2, seed=1)
        b = epoch_batches(4, 2, seed=1)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_is_a_permutation(self):
        batches = epoch_batches(23, 5, seed=2)
        flat = np.concatenate(batches)
        assert sorted(flat.tolist()) == list(range(23))

    def test_remainder_batch(self):
        sizes = [len(b) for b in epoch_batches(5, 2, seed=3)]
        assert sizes == [2, 2, 1]

    def test_oversized_batch(self):
        batches = epoch_batches(3, 10, seed=4)
        assert len(batches) == 1 and len(batches[0]) == 3

    def test_validation(self):
        with pytest.raises(ValueError):
            epoch_batches(0, 2, seed=0)
        with pytest.raises(ValueError):
            epoch_batches(5, 0, seed=0)


class TestNormalize:
    def test_mean_maps_to_zero(self):
        assert normalize(np.array([0.1307]))[0] == 0.0

    def test_one_std_above_mean(self):
        assert normalize(np.array([0.4388]))[0] == pytest.approx(1.0, abs=1e-12)

    def test_zero_pixel(self):
        assert normalize(np.array([0.0]))[0] == pytest.approx(-0.1307 / 0.3081, rel=1e-12)
