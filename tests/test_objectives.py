"""Unit tests for the differentiable test problems."""

import numpy as np
import pytest

from splitopt.objectives import (
    fd_gradient,
    logistic_regression,
    quadratic,
    rosenbrock,
)
from splitopt.optimizers import SGD_FIELDS, State, minibatch_sgd_step


def relative_error(got, want):
    return np.max(np.abs(got - want)) / max(1.0, np.max(np.abs(want)))


class TestQuadratic:
    def test_identity_quadratic(self):
        obj = quadratic(np.eye(2), np.zeros(2))
        u = np.array([3.0, -4.0])
        assert obj.value(u) == pytest.approx(12.5)
        np.testing.assert_allclose(obj.gradient(u), u)

    def test_lipschitz_is_largest_eigenvalue(self):
        obj = quadratic(np.diag([1.0, 10.0]), np.zeros(2))
        assert obj.L == pytest.approx(10.0)

    def test_minimizer_solves_linear_system(self):
        obj = quadratic(np.array([[2.0, 1.0], [1.0, 2.0]]), np.array([1.0, 1.0]))
        np.testing.assert_allclose(obj.minimizer, [1.0 / 3.0, 1.0 / 3.0])
        np.testing.assert_allclose(obj.gradient(obj.minimizer), 0.0, atol=1e-10)

    def test_rejects_bad_matrices(self):
        with pytest.raises(ValueError, match="symmetric"):
            quadratic(np.array([[1.0, 2.0], [0.0, 1.0]]), np.zeros(2))
        with pytest.raises(ValueError, match="positive definite"):
            quadratic(np.diag([1.0, -1.0]), np.zeros(2))
        with pytest.raises(ValueError):
            quadratic(np.eye(2), np.zeros(3))
        for Q in (np.ones((2, 3)), np.ones(2)):
            with pytest.raises(ValueError, match=r"Q must be square, got shape \("):
                quadratic(Q, np.zeros(2))


class TestRosenbrock:
    def test_global_minimizer(self):
        value, grad = rosenbrock(np.array([1.0, 1.0]))
        assert value == 0.0
        np.testing.assert_array_equal(grad, [0.0, 0.0])

    def test_origin(self):
        value, grad = rosenbrock(np.array([0.0, 0.0]))
        assert value == pytest.approx(1.0)
        np.testing.assert_allclose(grad, [-2.0, 0.0])

    def test_hand_differentiated_point(self):
        value, grad = rosenbrock(np.array([-1.0, 1.0]))
        assert value == pytest.approx(4.0)
        np.testing.assert_allclose(grad, [-4.0, 0.0])


class TestFdGradient:
    def test_exact_on_quadratic(self):
        obj = quadratic(np.eye(3), np.zeros(3))
        u = np.array([0.7, -1.2, 2.0])
        got = fd_gradient(obj.value, u, 1e-5)
        assert np.max(np.abs(got - obj.gradient(u))) <= 1e-9

    def test_rosenbrock_point(self):
        u = np.array([0.5, 0.5])
        _, analytic = rosenbrock(u)
        got = fd_gradient(lambda x: rosenbrock(x)[0], u, 1e-5)
        assert relative_error(got, analytic) <= 1e-6

    def test_constant_function(self):
        got = fd_gradient(lambda u: 3.0, np.zeros(4), 1e-5)
        np.testing.assert_array_equal(got, np.zeros(4))

    @pytest.mark.parametrize("step", [0.0, -1e-5, np.nan, np.inf, -np.inf])
    def test_rejects_a_step_that_is_not_positive_and_finite(self, step):
        with pytest.raises(ValueError, match=f"step must be positive and finite, got {step}$"):
            fd_gradient(lambda u: 0.0, np.zeros(2), step)


class TestLogisticRegression:
    @staticmethod
    def make_problem(seed=0, m=40, d=3):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((m, d))
        y = (X @ rng.standard_normal(d) + 0.1 * rng.standard_normal(m) > 0).astype(int)
        return logistic_regression(X, y)

    def test_gradient_matches_finite_differences(self):
        obj = self.make_problem()
        rng = np.random.default_rng(5)
        for _ in range(10):
            w = rng.standard_normal(obj.dim)
            fd = fd_gradient(obj.value, w, 1e-6)
            assert relative_error(obj.gradient(w), fd) <= 1e-6

    def test_lipschitz_positive(self):
        assert self.make_problem().L > 0

    def test_input_validation(self):
        with pytest.raises(ValueError):
            logistic_regression(np.zeros((4, 2)), np.zeros(3))


class TestGradientAgreementEverywhere:
    """Analytic vs central-difference gradients at 100 random points each."""

    def test_all_objectives(self):
        rng = np.random.default_rng(100)
        Q = np.array([[3.0, 1.0, 0.0], [1.0, 2.0, 0.5], [0.0, 0.5, 1.5]])
        quad = quadratic(Q, np.array([1.0, -1.0, 0.5]))
        logistic = TestLogisticRegression.make_problem(seed=7)
        problems = [
            (quad.value, quad.gradient, 3),
            (lambda u: rosenbrock(u)[0], lambda u: rosenbrock(u)[1], 2),
            (logistic.value, logistic.gradient, 3),
        ]
        for value, gradient, dim in problems:
            for _ in range(100):
                u = rng.uniform(-2.0, 2.0, size=dim)
                fd = fd_gradient(value, u, 1e-5)
                assert relative_error(gradient(u), fd) <= 1e-6


class TestDescentSanity:
    def test_gd_monotone_with_inverse_lipschitz_step(self):
        rng = np.random.default_rng(11)
        basis, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        Q = basis @ np.diag(np.linspace(0.5, 8.0, 6)) @ basis.T
        obj = quadratic((Q + Q.T) / 2, rng.standard_normal(6))
        state = State.start(rng.standard_normal(6) * 3, SGD_FIELDS)
        previous = obj.value(state.u)
        for _ in range(1000):
            minibatch_sgd_step(state, obj.gradient, 1.0 / obj.L)
            current = obj.value(state.u)
            assert current <= previous + 1e-12
            previous = current
