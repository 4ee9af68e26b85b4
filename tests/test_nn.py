"""Unit tests for the MLP, losses, shuffling, and normalization."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from splitopt.datasets import Batch
from splitopt.nn import (
    MlpModel,
    epoch_batches,
    forward_backward,
    log_softmax,
    mean_target_nll,
    normalize,
    rectify_in_place,
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
        assert mean_target_nll(row, np.array([0])) == pytest.approx(math.log(2), rel=1e-12)

    def test_nll_confident_row(self):
        row = np.array([[0.0, -1e9]])
        assert mean_target_nll(row, np.array([0])) == 0.0

    def test_nll_mean_reduction(self):
        rows = np.array([[-0.2, -1.7], [-2.0, -0.14]])
        got = mean_target_nll(rows, np.array([0, 1]))
        assert got == pytest.approx((0.2 + 0.14) / 2, rel=1e-12)

    def test_nll_target_range(self):
        with pytest.raises(ValueError, match="target out of range"):
            mean_target_nll(np.zeros((1, 3)), np.array([3]))

    # the cross entropy of logits is mean_target_nll of their log_softmax

    def test_cross_entropy_closed_form(self):
        assert mean_target_nll(log_softmax(np.array([[0.0, 0.0]])), np.array([0])) == (
            pytest.approx(math.log(2), rel=1e-12)
        )

    def test_saturated_margin(self):
        assert mean_target_nll(log_softmax(np.array([[50.0, -50.0]])), np.array([0])) == (
            pytest.approx(0.0, abs=1e-12)
        )

    def test_nonnegative(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            logits = rng.standard_normal((6, 5)) * 8
            targets = rng.integers(0, 5, size=6)
            assert mean_target_nll(log_softmax(logits), targets) >= 0.0

    def test_one_loss_is_minus_mean_of_the_pick(self):
        # lengths past numpy's pairwise-summation blocks of 8 and 128
        rng = np.random.default_rng(11)
        for m in range(1, 258):
            log_probs = log_softmax(rng.standard_normal((m, 3)) * 4)
            targets = rng.integers(0, 3, size=m)
            want = np.float64(-np.mean(log_probs[np.arange(m), targets])).tobytes()
            assert np.float64(mean_target_nll(log_probs, targets)).tobytes() == want


class TestRectifier:
    SPECIALS = [np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -5e-324,
                2.2250738585072014e-308, -1e-310, 1.5, -1.5]

    def test_matches_where_bit_for_bit_on_special_values(self):
        # every value at every position of short and longer rows: fmax
        # returns -0.0 for -0.0 on some lengths and +0.0 on others
        specials = np.array(self.SPECIALS)
        assert np.signbit(specials[1])  # -np.nan carries the sign bit
        for n in range(1, 3 * len(specials)):
            for shift in range(len(specials)):
                pre = np.resize(np.roll(specials, shift), (2, n))
                want_mask = pre > 0
                want = np.where(want_mask, pre, 0.0)
                assert rectify_in_place(pre) is None
                assert pre.tobytes() == want.tobytes()
                # the backward pass's mask is taken from the rectified values
                assert np.array_equal(pre > 0, want_mask)

    def test_forward_activations_match_where_reference(self):
        # one input at 0 and zero weights: the first layer's pre-activations
        # are the biases, special values included, except that the -0.0 bias
        # meets the matmul's +0.0 and reaches rectify_in_place as +0.0;
        # test_matches_where_bit_for_bit_on_special_values covers -0.0
        hidden = len(self.SPECIALS)
        model = MlpModel.init((1, hidden, 2), seed=0)
        model.weights[0][...] = 0.0
        model.biases[0][...] = self.SPECIALS
        with np.errstate(invalid="ignore"):  # the head multiplies inf by 0
            _, activations = model._forward_trace(np.zeros((2, 1)), model.params)
        pre = np.zeros((2, 1)) @ model.weights[0] + model.biases[0]
        negative_zero = 5
        assert np.signbit(self.SPECIALS[negative_zero]) and self.SPECIALS[negative_zero] == 0
        assert not np.signbit(pre[:, negative_zero]).any()
        assert activations[1].tobytes() == np.where(pre > 0, pre, 0.0).tobytes()
        assert np.array_equal(activations[1] > 0, pre > 0)

    @pytest.mark.parametrize("sizes", [(3, 64, 2), (3, 64, 64, 2)])
    def test_forward_allocates_one_activation_per_hidden_layer(self, sizes):
        # at the peak each hidden layer holds its activation; the head's
        # (rows, 2) arrays are small beside them
        rows = 2000
        model = MlpModel.init(sizes, seed=1)
        X = np.random.default_rng(2).standard_normal((rows, sizes[0]))
        model.forward(X)  # warm up
        activation = rows * sizes[1] * 8
        n_hidden = len(sizes) - 2
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            model.forward(X)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak < (n_hidden + 0.5) * activation


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

    @pytest.mark.parametrize("sizes", [(4, 3), (5, 6, 4), (3, 7, 5, 2)])
    def test_init_draws_each_layers_weights_then_biases(self, sizes):
        rng = np.random.default_rng(11)
        reference = []
        for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
            bound = 1.0 / np.sqrt(fan_in)
            reference.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)).ravel())
            reference.append(rng.uniform(-bound, bound, size=fan_out))
        theta = MlpModel.init(sizes, seed=11).param_vector()
        assert theta.tobytes() == np.concatenate(reference).tobytes()

    @pytest.mark.parametrize("sizes", [(4, 3), (5, 6, 4), (3, 7, 5, 2)])
    def test_sizes_alone_build_zeroed_views_in_param_vector_order(self, sizes):
        model = MlpModel(sizes)
        assert model.n_params == sum((a + 1) * b for a, b in zip(sizes[:-1], sizes[1:]))
        assert not np.any(model.param_vector())
        for w, b in zip(model.weights, model.biases):
            w[...] = np.arange(w.size).reshape(w.shape)
            b[...] = np.arange(b.size)
        expected = []
        for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
            expected += [np.arange(fan_in * fan_out), np.arange(fan_out)]
        assert model.param_vector().tobytes() == np.concatenate(expected).astype(float).tobytes()

    @pytest.mark.parametrize("build, message", [
        # a zero fan-in would divide by zero in the init bound
        (lambda: MlpModel.init((3, 0, 2), 1), r"all positive, got \(3, 0, 2\)"),
        (lambda: MlpModel.init((3,), 1), r"need input and output sizes"),
        (lambda: MlpModel((3, 0, 2)), r"^need input and output sizes, all positive, got \(3, 0"),
        (lambda: MlpModel([3]), r"^need input and output sizes, all positive, got \(3,\)$"),
        (lambda: MlpModel(()), r"^need input and output sizes, all positive, got \(\)$"),
    ], ids=["zero-width", "one-size", "sizes-zero-width", "sizes-one-size", "sizes-none"])
    def test_rejects_layer_lists_it_cannot_build(self, build, message):
        with pytest.raises(ValueError, match=message):
            build()

    def test_input_width_check(self):
        model = MlpModel.init((5, 6, 4), seed=3)
        with pytest.raises(ValueError, match="features"):
            model.forward(np.zeros((2, 7)))
        with pytest.raises(ValueError):
            model.set_param_vector(np.zeros(3))


def ref_log_softmax(x):
    shifted = x - np.max(x, axis=-1, keepdims=True)
    return shifted - np.log(np.sum(np.exp(shifted), axis=-1, keepdims=True))


def ref_nll(log_probs, targets):
    return float(-np.mean(log_probs[np.arange(len(targets)), targets]))


def reference_forward(model, X):
    """Logits, activations and rectifier masks composed from the model's
    weight and bias arrays with the expressions first written, sharing no
    code with MlpModel."""
    activations, masks = [X], []
    h = X
    for w, b in zip(model.weights[:-1], model.biases[:-1]):
        pre = h @ w + b
        mask = pre > 0
        h = np.where(mask, pre, 0.0)
        activations.append(h)
        masks.append(mask)
    return h @ model.weights[-1] + model.biases[-1], activations, masks


def reference_forward_backward(model, batch, loss):
    """The gradient as first composed: a separate loss pass, the exp of a
    second log-softmax, and per-layer arrays concatenated at the end.
    loss="nll" takes the value as the mean NLL of this function's own
    log-softmax, loss="xent" as that of the library's log_softmax, the
    cross entropy of the logits; the batch loss taken through forward
    must equal both."""
    logits, activations, masks = reference_forward(model, batch.images)
    if loss == "nll":
        value = ref_nll(ref_log_softmax(logits), batch.labels)
    else:
        value = ref_nll(log_softmax(logits), batch.labels)
    m = len(batch)
    delta = np.exp(ref_log_softmax(logits))
    delta[np.arange(m), batch.labels] -= 1.0
    delta /= m
    parts = []
    for layer in range(len(model.weights) - 1, -1, -1):
        parts = [(activations[layer].T @ delta).ravel(), delta.sum(axis=0)] + parts
        if layer > 0:
            delta = (delta @ model.weights[layer].T) * masks[layer - 1]
    return value, np.concatenate(parts)


# (5, 7, 6, 3) has two hidden layers, so the masked backward runs twice
SIZES = [(2, 32, 2), (784, 32, 10), (5, 7, 6, 3)]


def draw_batches(sizes):
    """Five (model, batch) pairs of random rows and scales per size."""
    rng = np.random.default_rng(sum(sizes))
    for seed in range(5):
        rows = int(rng.integers(1, 40))
        yield MlpModel.init(sizes, seed=seed), Batch(
            rng.standard_normal((rows, sizes[0])) * rng.uniform(0.5, 4.0),
            rng.integers(0, sizes[-1], size=rows),
        )


class TestForwardBackward:
    @pytest.mark.parametrize("loss", ["nll", "xent"])
    @pytest.mark.parametrize("sizes", SIZES)
    def test_bit_identical_to_reference_composition(self, sizes, loss):
        for model, batch in draw_batches(sizes):
            grad = forward_backward(model, batch)
            value = mean_target_nll(model.forward(batch.images), batch.labels)
            ref_value, ref_grad = reference_forward_backward(model, batch, loss)
            assert np.float64(value).tobytes() == np.float64(ref_value).tobytes()
            assert grad.dtype == ref_grad.dtype and grad.shape == ref_grad.shape
            assert grad.tobytes() == ref_grad.tobytes()

    @pytest.mark.parametrize("sizes", SIZES)
    def test_forward_bit_identical_to_reference(self, sizes):
        # the evaluation's log-probabilities feed the CSV's loss columns
        for model, batch in draw_batches(sizes):
            got = model.forward(batch.images)
            want = ref_log_softmax(reference_forward(model, batch.images)[0])
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    def test_zero_model_gives_uniform_predictions(self):
        model = MlpModel.init((3, 4, 5), seed=0)
        model.set_param_vector(np.zeros(model.n_params))
        rng = np.random.default_rng(5)
        batch = Batch(rng.standard_normal((8, 3)), rng.integers(0, 5, size=8))
        grad = forward_backward(model, batch)
        loss = mean_target_nll(model.forward(batch.images), batch.labels)
        assert loss == pytest.approx(math.log(5), rel=1e-12)
        # output-layer bias gradient: mean of (softmax - onehot) rows
        counts = np.bincount(batch.labels, minlength=5)
        expected_bias = 1.0 / 5.0 - counts / 8.0
        np.testing.assert_allclose(grad[-5:], expected_bias, atol=1e-12)

    def test_single_linear_layer_hand_trace(self):
        # identity weights, zero bias, one sample x = (1, 2), target 0
        model = MlpModel.init((2, 2), seed=0)
        model.weights[0][...] = np.eye(2)
        model.biases[0][...] = 0.0
        batch = Batch(np.array([[1.0, 2.0]]), np.array([0]))
        grad = forward_backward(model, batch)
        loss = mean_target_nll(model.forward(batch.images), batch.labels)
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
        grad = forward_backward(model, batch)
        theta = model.param_vector()

        def loss_at(t):
            model.set_param_vector(t)
            return mean_target_nll(model.forward(batch.images), batch.labels)

        fd = fd_gradient(loss_at, theta, 1e-5)
        model.set_param_vector(theta)
        err = np.max(np.abs(grad - fd)) / max(1.0, np.max(np.abs(fd)))
        assert err <= 1e-5

    def test_special_pre_activations_match_reference(self):
        # zero first-layer weights in the special columns make their
        # pre-activations the biases: NaN, -inf and +-subnormals exactly, and
        # for the -0.0 bias a zero whose sign the platform's matmul sums decide
        specials = [np.nan, -np.inf, 5e-324, -5e-324, -1e-310, -0.0]
        model = MlpModel.init((3, len(specials) + 4, 3), seed=4)
        model.weights[0][:, : len(specials)] = 0.0
        model.biases[0][: len(specials)] = specials
        rng = np.random.default_rng(6)
        batch = Batch(rng.standard_normal((7, 3)), rng.integers(0, 3, size=7))
        pre = (batch.images @ model.weights[0] + model.biases[0])[:, : len(specials)]
        assert np.all(np.isnan(pre[:, 0])) and np.all(pre[:, 1] == -np.inf)
        assert pre[:, 2:5].tobytes() == np.resize(specials[2:5], (7, 3)).tobytes()
        assert np.all(pre[:, 5] == 0.0)
        grad = forward_backward(model, batch)
        _, ref_grad = reference_forward_backward(model, batch, "nll")
        # every special rectifies to a finite value, so the gradient is finite
        assert np.all(np.isfinite(grad))
        assert grad.tobytes() == ref_grad.tobytes()

    def test_rejects_empty_batch_and_bad_targets(self):
        model = MlpModel.init((3, 4, 2), seed=0)
        with pytest.raises(ValueError, match="batch must be nonempty"):
            forward_backward(model, Batch(np.zeros((0, 3)), np.zeros(0, dtype=int)))
        with pytest.raises(ValueError, match="2 images vs 3 labels"):
            Batch(np.zeros((2, 3)), np.zeros(3, dtype=int))
        with pytest.raises(ValueError, match="class count"):
            forward_backward(model, Batch(np.zeros((1, 3)), np.array([2])))


class TestGradientAtABuffer:
    @settings(derandomize=True, deadline=None, database=None, max_examples=60)
    @given(
        sizes=st.lists(st.integers(1, 8), min_size=2, max_size=4).map(tuple),
        n_samples=st.integers(1, 30),
        batch_size=st.integers(1, 12),
        seed=st.integers(0, 2**32 - 1),
        scale=st.floats(0.1, 10.0),
    )
    def test_matches_setting_the_model_and_writes_only_its_own_buffer(
        self, sizes, n_samples, batch_size, seed, scale
    ):
        """The gradient at an evaluation buffer, through its layer views and
        into a gradient buffer of its own, is byte for byte the gradient of
        a model set to that buffer.  The buffer and the model's parameters
        are only read, and a second buffer's evaluation, on another batch,
        leaves the first gradient as it was."""
        rng = np.random.default_rng(seed)
        model = MlpModel.init(sizes, seed=seed % 1000)
        data = Batch(rng.standard_normal((n_samples, sizes[0])) * scale,
                     rng.integers(0, sizes[-1], size=n_samples))
        # a full batch and the epoch's last one, a remainder when
        # batch_size does not divide n_samples
        idx = epoch_batches(n_samples, batch_size, seed)
        batches = [data.rows(idx[0]), data.rows(idx[-1])]
        points = [rng.standard_normal(model.n_params) * scale for _ in batches]
        own, before = model.param_vector(), [p.copy() for p in points]
        views = [(model.layers(p), model.layers(np.empty(model.n_params))) for p in points]

        first = forward_backward(model, batches[0], *views[0])
        kept = first.copy()
        second = forward_backward(model, batches[1], *views[1])
        assert first is views[0][1].flat and second is views[1][1].flat
        assert first.tobytes() == kept.tobytes()
        assert model.param_vector().tobytes() == own.tobytes()
        for point, copy in zip(points, before):
            assert point.tobytes() == copy.tobytes()

        reference = MlpModel(sizes)
        for batch, point, grad in zip(batches, points, (first, second)):
            reference.set_param_vector(point)
            assert grad.tobytes() == forward_backward(reference, batch).tobytes()

    @pytest.mark.parametrize("flat", [
        np.zeros(3), np.zeros(2 * 26)[::2], np.zeros(26, dtype=np.float32),
        np.zeros((2, 13)), list(np.zeros(26)),
    ], ids=["size", "strided", "float32", "2-d", "list"])
    def test_layers_take_only_a_contiguous_float64_vector_of_the_layout(self, flat):
        # (3, 5, 1) holds 26 parameters; a copy would not share its memory
        with pytest.raises(ValueError, match=r"a parameter buffer is a contiguous float64 \(26,\)"):
            MlpModel((3, 5, 1)).layers(flat)


class TestTargetRange:
    @settings(derandomize=True, deadline=None, database=None, max_examples=80)
    @given(
        sizes=st.lists(st.integers(1, 8), min_size=2, max_size=4).map(tuple),
        rows=st.integers(1, 20),
        excess=st.one_of(st.just(0), st.integers(1, 2**62)),
        data=st.data(),
    )
    def test_out_of_range_target_is_a_value_error(self, sizes, rows, excess, data):
        """Exactly the class count, or far above it (up to 2**62 more), in
        one drawn row: forward_backward raises the class-count ValueError
        from the batch's n_classes, before it forms any flat index
        rows * C + t, so no IndexError is being handled when it raises.  A
        rows() subset skips the parent's checks and inherits its
        n_classes, so a subset holding the bad row fails the same way."""
        classes = sizes[-1]
        rng = np.random.default_rng(rows)
        targets = rng.integers(0, classes, size=rows)
        bad_row = data.draw(st.integers(0, rows - 1))
        targets[bad_row] = classes + excess
        batch = Batch(rng.standard_normal((rows, sizes[0])), targets)
        model = MlpModel.init(sizes, seed=rows)
        keep = data.draw(st.lists(st.integers(0, rows - 1), max_size=rows))
        subset = batch.rows(np.array(keep + [bad_row]))
        assert subset.n_classes == batch.n_classes == classes + excess + 1
        for checked in (batch, subset):
            with pytest.raises(ValueError, match="class count") as info:
                forward_backward(model, checked)
            assert info.value.__context__ is None
        # a negative target fails in Batch, before any model sees it
        targets[bad_row] = -1 - excess
        with pytest.raises(ValueError, match="nonnegative"):
            Batch(batch.images, targets)


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

    @settings(derandomize=True, deadline=None, database=None, max_examples=60)
    @given(n=st.integers(1, 500), batch_size=st.integers(1, 600),
           seed=st.integers(0, 2**32 - 1))
    def test_partition_of_range(self, n, batch_size, seed):
        # the batches concatenate to a permutation of range(n), and every
        # batch but the last holds exactly batch_size rows
        batches = epoch_batches(n, batch_size, seed)
        assert sorted(np.concatenate(batches).tolist()) == list(range(n))
        assert all(len(b) == batch_size for b in batches[:-1])
        assert 1 <= len(batches[-1]) <= batch_size

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

    @settings(derandomize=True, deadline=None, database=None, max_examples=200)
    @given(x=hnp.arrays(
        st.sampled_from([np.float16, np.float32, np.float64]),
        hnp.array_shapes(min_dims=1, max_dims=2, max_side=9),
        elements=st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True, width=16),
    ))
    def test_fresh_result_matches_subtract_then_divide_and_leaves_x(self, x):
        before = x.tobytes()
        reference = (np.asarray(x, float) - 0.1307) / 0.3081
        out = normalize(x)
        assert out.dtype == np.float64 and out.tobytes() == reference.tobytes()
        assert x.tobytes() == before

    @settings(derandomize=True, deadline=None, database=None, max_examples=200)
    @given(x=hnp.arrays(
        np.float64,
        hnp.array_shapes(min_dims=1, max_dims=2, max_side=9),
        elements=st.one_of(
            st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
            st.sampled_from([0.0, -0.0, 5e-324, -5e-324, np.inf, -np.inf, np.nan]),
        ),
    ))
    def test_in_place_matches_subtract_then_divide(self, x):
        reference = (np.asarray(x, float) - 0.1307) / 0.3081
        assert normalize(x).tobytes() == reference.tobytes()
        out = normalize(x, out=x)
        assert out is x and x.tobytes() == reference.tobytes()
