"""Unit tests for the non-adaptive step rules, byte-for-byte pins of every
step rule against its formula, and the in-place state contract that every
step rule keeps."""

import collections
import copy
import dataclasses
import inspect
import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import splitopt.adaptive as ad
import splitopt.optimizers as opt
from splitopt.objectives import quadratic


def make_quadratic(dim, lmin, lmax, seed):
    rng = np.random.default_rng(seed)
    basis, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    Q = basis @ np.diag(np.linspace(lmin, lmax, dim)) @ basis.T
    return quadratic((Q + Q.T) / 2, rng.standard_normal(dim))


SCH_N3 = opt.MomentumSchedule(opt.RATIO_N_OVER_N3)
SCH_NM1 = opt.MomentumSchedule(opt.RATIO_NM1_OVER_N2)
HALF = opt.MomentumSchedule.constant(0.5)
NAN = float("nan")


class TestMomentumSchedule:
    def test_examples(self):
        assert opt.momentum_coefficient(0, SCH_N3) == 0.0
        assert opt.momentum_coefficient(1, SCH_N3) == 0.25
        assert opt.momentum_coefficient(7, opt.MomentumSchedule.constant(0.5)) == 0.5

    def test_clamped_at_zero(self):
        # (n-1)/(n+2) would be negative at n = 0
        assert opt.momentum_coefficient(0, SCH_NM1) == 0.0
        assert opt.momentum_coefficient(1, SCH_NM1) == 0.0

    def test_ratio_kinds_bounded_and_nondecreasing(self):
        for sch in (SCH_N3, SCH_NM1):
            values = [opt.momentum_coefficient(n, sch) for n in range(2000)]
            assert all(0.0 <= b < 1.0 for b in values)
            assert all(b2 >= b1 for b1, b2 in zip(values, values[1:]))

    def test_identity_with_continuous_damping(self):
        # (1 - beta_n)/h == 3/(n h + 2 h): exact as rational arithmetic.
        from fractions import Fraction

        for h in (Fraction(1, 10), Fraction(1, 100)):
            for n in list(range(1, 200)) + [999, 5000, 10_000]:
                beta = Fraction(n - 1, n + 2)
                assert opt.momentum_coefficient(n, SCH_NM1) == float(beta)
                lhs = (1 - beta) / h
                rhs = 3 / (n * h + 2 * h)
                assert lhs == rhs

    def test_invalid(self):
        with pytest.raises(ValueError):
            opt.MomentumSchedule("something-else")
        with pytest.raises(ValueError, match=r"constant beta must lie in \[0, 1\], got 1.5"):
            opt.MomentumSchedule.constant(1.5)
        # a ratio kind takes no beta, which it would otherwise ignore
        with pytest.raises(ValueError, match=r"beta must lie in \[0, 0\], got 0.7"):
            opt.MomentumSchedule(opt.RATIO_N_OVER_N3, 0.7)
        with pytest.raises(ValueError):
            opt.momentum_coefficient(-1, SCH_N3)


class TestSplitStepChecks:
    @pytest.mark.parametrize("step", [opt.ssa1_step, opt.ssa2_step])
    def test_validation(self, step):
        # a bad value raises before the state check (this state lacks v) and
        # before the oracle (None) is called
        state = opt.State(u=np.zeros(2))
        for bad in ({"h": 0.0}, {"h": 0.1, "k": -1.0}, {"h": NAN}, {"h": 0.1, "k": NAN}):
            with pytest.raises(ValueError, match="must be"):
                step(state, None, schedule=SCH_N3, **bad)


def sgd(u, g, h):
    """The iterate after one minibatch_sgd_step from rest at u, with the
    constant gradient g as the oracle."""
    state = opt.State.start(u, opt.SGD_FIELDS)
    opt.minibatch_sgd_step(state, lambda _: g, h)
    return state.u


def split_state(u, v, n):
    """A state of SPLIT_FIELDS at iterate u, velocity v and step n."""
    state = opt.State.start(u, opt.SPLIT_FIELDS, n)
    state.v[...] = v
    return state


class TestGdAndSgd:
    def test_examples(self):
        assert sgd(np.array([1.0]), np.array([1.0]), 0.1) == pytest.approx(0.9)
        u = np.array([3.0, -1.0])
        assert np.array_equal(sgd(u, np.zeros(2), 0.5), u)
        np.testing.assert_allclose(
            sgd(np.array([2.0, -2.0]), np.array([1.0, -1.0]), 0.5),
            [1.5, -1.5],
        )

    def test_sgd(self):
        got = sgd(np.array([0.5]), np.array([1.0]), 0.01)
        assert got == pytest.approx(0.49)
        theta = np.array([1.0, 2.0])
        assert np.array_equal(sgd(theta, np.zeros(2), 0.1), theta)
        # zero step size freezes the parameters (a frozen run is allowed)
        assert np.array_equal(sgd(theta, np.ones(2), 0.0), theta)
        # u is the only array sgd carries
        state = opt.State.start(theta, opt.SGD_FIELDS, n=4)
        assert opt.minibatch_sgd_step(state, lambda _: np.ones(2), 0.1) is None
        assert state.v is None and state.u_prev is None and state.n == 5

    def test_errors(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            sgd(np.zeros(2), np.zeros(3), 0.1)
        with pytest.raises(ValueError):
            sgd(np.zeros(2), np.zeros(2), -0.1)
        with pytest.raises(ValueError, match="must be nonnegative"):
            sgd(np.zeros(2), np.zeros(2), NAN)


class TestPolyak:
    def test_reduces_to_gd_when_alpha_zero(self):
        state = opt.State.start(np.array([1.0]), opt.POLYAK_FIELDS)
        state.u_prev = np.array([0.3])  # irrelevant at alpha = 0
        opt.polyak_step(state, lambda _: np.array([1.0]), 0.1, opt.MomentumSchedule.constant(0.0))
        assert state.u == pytest.approx(0.9)
        assert state.n == 1

    def test_hand_trace(self):
        # f = u^2/2, gradient taken at u = 1
        state = opt.State(u=np.array([1.0]), u_prev=np.array([0.5]), work=np.zeros(1))
        opt.polyak_step(state, lambda _: np.array([1.0]), 0.1, HALF)
        # y = 1 + 0.5*(1 - 0.5) = 1.25; u' = 1.25 - 0.1
        assert state.u == pytest.approx(1.15)
        assert state.u_prev == pytest.approx(1.0)

    def test_zero_inertial_difference(self):
        u0 = np.array([2.0, -1.0])
        state = opt.State.start(u0, opt.POLYAK_FIELDS)
        g = np.array([0.5, 0.5])
        opt.polyak_step(state, lambda _: g, 0.2, opt.MomentumSchedule.constant(0.7))
        np.testing.assert_array_equal(state.u, sgd(u0, g, 0.2))

    @pytest.mark.parametrize("h", [0.0, NAN])
    def test_step_size_must_be_positive(self, h):
        state = opt.State.start(np.zeros(2), opt.POLYAK_FIELDS)
        with pytest.raises(ValueError, match="step size must be positive"):
            opt.polyak_step(state, lambda _: np.zeros(2), h, HALF)


class TestNesterov:
    def test_velocity_hand_trace(self):
        state = opt.State.start(np.array([1.0]), opt.NESTEROV_FIELDS)
        opt.nesterov_step(state, lambda u: u, 0.1, opt.MomentumSchedule.constant(0.25))
        assert state.v == pytest.approx(-0.1)
        assert state.u == pytest.approx(0.99)

    def test_gradient_free_coast(self):
        rng = np.random.default_rng(0)
        u, v = rng.standard_normal(3), rng.standard_normal(3)
        state = opt.State.start(u, opt.NESTEROV_FIELDS, n=5)
        state.v[...] = v
        sch = opt.MomentumSchedule.constant(0.8)
        opt.nesterov_step(state, lambda _: np.zeros(3), 0.1, sch)
        np.testing.assert_allclose(state.v, 0.8 * v)
        np.testing.assert_allclose(state.u, u + 0.1 * 0.8 * v)

    def test_two_sequence_matches_velocity_from_rest(self):
        # u = u_prev corresponds to v = 0; single steps coincide
        state = opt.State.start(np.array([1.0]), opt.NESTEROV_FIELDS)
        sch = opt.MomentumSchedule.constant(0.5)
        opt.nesterov_step(state, lambda u: u, 0.1, sch)
        (u_two_sequence,) = two_sequence_nesterov(np.array([1.0]), lambda u: u, 0.1, sch, 1)
        assert state.u == pytest.approx(0.99)
        assert u_two_sequence == pytest.approx(0.99)

    def test_form_equivalence_over_100_steps(self):
        objective = make_quadratic(10, 1.0, 10.0, seed=42)
        u0 = np.random.default_rng(7).standard_normal(10)
        state = opt.State.start(u0, opt.NESTEROV_FIELDS)
        worst = 0.0
        for u_two_sequence in two_sequence_nesterov(u0, objective.gradient, 0.1, SCH_NM1, 100):
            opt.nesterov_step(state, objective.gradient, 0.1, SCH_NM1)
            worst = max(worst, np.max(np.abs(state.u - u_two_sequence)))
        assert worst <= 1e-12

    def test_errors(self):
        # the look-ahead point is built in work, so a state without it is
        # rejected before the oracle runs
        state = opt.State(u=np.zeros(2), v=np.zeros(2))
        with pytest.raises(ValueError, match="^nesterov_step advances work, "):
            opt.nesterov_step(state, forbidden_oracle, 0.1, SCH_N3)
        with pytest.raises(ValueError, match="dimension mismatch"):
            opt.nesterov_step(opt.State.start(np.zeros(2), opt.NESTEROV_FIELDS),
                              lambda u: np.zeros(3), 0.1, SCH_N3)
        with pytest.raises(ValueError, match="step size must be positive"):
            opt.nesterov_step(state, lambda u: u, NAN, SCH_N3)


class TestSsa1:
    def test_hand_trace(self):
        state = split_state(np.array([1.0]), np.array([0.0]), n=1)
        opt.ssa1_step(state, lambda u: u, 0.1, SCH_N3, k=2.0)  # beta_1 = 0.25
        assert state.v == pytest.approx(-0.00625, abs=1e-12)
        assert state.u == pytest.approx(0.99, abs=1e-12)
        assert state.n == 2

    def test_zero_velocity_collapses_to_squared_step(self):
        rng = np.random.default_rng(3)
        u = rng.standard_normal(4)
        state = split_state(u, np.zeros(4), n=9)
        grad = rng.standard_normal(4)
        opt.ssa1_step(state, lambda _: grad, 0.2, SCH_N3, k=2.0)
        np.testing.assert_allclose(state.u, u - 0.2**2 * grad)

    def test_gradient_free_coast(self):
        rng = np.random.default_rng(4)
        u, v = rng.standard_normal(3), rng.standard_normal(3)
        state = split_state(u, v, n=2)
        beta = 2 / 5
        opt.ssa1_step(state, lambda _: np.zeros(3), 0.1, SCH_N3, k=2.0)
        np.testing.assert_allclose(state.v, beta**2 * (1 - 0.1 * beta) * v)
        np.testing.assert_allclose(state.u, u + 0.1 * beta**2 * (1 - 0.1 * beta) * v)


class TestSsa2:
    def test_zero_velocity_ignores_gradient(self):
        state = split_state(np.array([1.0]), np.array([0.0]), n=3)
        opt.ssa2_step(state, lambda _: np.array([123.0]), 0.1, SCH_N3, k=2.0)
        assert state.u == pytest.approx(1.0)

    def test_hand_trace(self):
        state = split_state(np.array([1.0]), np.array([1.0]), n=0)
        sch = opt.MomentumSchedule.constant(0.25)
        opt.ssa2_step(state, lambda u: u, 0.1, sch, k=2.0)
        # y = 1.025; v' = 0.0625*(0.975 - 0.1*1.025); u' = 1 + 0.1*0.975
        assert state.v == pytest.approx(0.0625 * (0.975 - 0.1025), abs=1e-12)
        assert state.u == pytest.approx(1.0975, abs=1e-12)

    def test_gradient_free_coast(self):
        rng = np.random.default_rng(6)
        u, v = rng.standard_normal(3), rng.standard_normal(3)
        state = split_state(u, v, n=2)
        beta = 2 / 5
        opt.ssa2_step(state, lambda _: np.zeros(3), 0.1, SCH_N3, k=2.0)
        np.testing.assert_allclose(state.v, beta**2 * (1 - 0.1 * beta) * v)
        np.testing.assert_allclose(state.u, u + 0.1 * (1 - 0.1 * beta) * v)

    def test_division_free_form_at_beta_zero(self):
        # n = 0 gives beta = 0 on the ratio schedules; the update must not blow up
        state = split_state(np.array([2.0]), np.array([1.0]), n=0)
        opt.ssa2_step(state, lambda u: u, 0.1, SCH_N3, k=2.0)
        assert np.all(np.isfinite(state.u)) and np.all(np.isfinite(state.v))
        assert state.u == pytest.approx(2.0 + 0.1 * 1.0)


def _trace(step_fn, state, objective, h, k, schedule, steps):
    """Iterate a splitting step recording (n, beta, u, y, grad(y)) per visit."""
    hist = []
    for _ in range(steps):
        beta = opt.momentum_coefficient(state.n, schedule)
        y = state.u + h * beta * state.v
        hist.append((state.n, beta, state.u.copy(), y, objective.gradient(y)))
        step_fn(state, objective.gradient, h, schedule, k=k)
    return hist


class TestMultiStepIdentities:
    """Recurrences linking y_n to (u_n, u_{n-1}, y_{n-1}) along trajectories."""

    @pytest.mark.parametrize("k", [0.0, 2.0])
    def test_ssa1(self, k):
        objective = make_quadratic(5, 1.0, 10.0, seed=3)
        h = 0.1
        u0 = np.random.default_rng(5).standard_normal(5)
        # start at n = 1: the recurrence divides by beta_{n-1}
        hist = _trace(
            opt.ssa1_step, opt.State.start(u0, opt.SPLIT_FIELDS, n=1), objective, h, k, SCH_N3, 51
        )
        for (_, bp, u_prev, y_prev, _), (_, bn, u_cur, y_cur, _) in zip(hist, hist[1:]):
            rhs = (
                u_cur
                + bn * bp**k * (u_cur - u_prev)
                + bn * bp ** (k - 1) * (1 - h * bp) * (1 - bp**2) * (y_prev - u_prev)
            )
            assert np.max(np.abs(y_cur - rhs)) <= 1e-10

    @pytest.mark.parametrize("k", [0.0, 2.0])
    def test_ssa2(self, k):
        objective = make_quadratic(5, 1.0, 10.0, seed=4)
        h = 0.1
        u0 = np.random.default_rng(6).standard_normal(5)
        hist = _trace(
            opt.ssa2_step, opt.State.start(u0, opt.SPLIT_FIELDS, n=1), objective, h, k, SCH_N3, 51
        )
        for (_, bp, u_prev, y_prev, g_prev), (_, bn, u_cur, y_cur, _) in zip(
            hist, hist[1:]
        ):
            rhs = u_cur + bn * bp**k * (u_cur - u_prev) - h * h * bn * bp**k * g_prev
            assert np.max(np.abs(y_cur - rhs)) <= 1e-10


class TestSplittingComposition:
    def test_substeps_reproduce_ssa1_without_boost(self):
        """Damping then perturbed-gradient substeps == ssa1 with k = 0."""
        objective = make_quadratic(3, 1.0, 5.0, seed=11)
        h = 0.1
        u = np.random.default_rng(12).standard_normal(3)
        v = np.random.default_rng(13).standard_normal(3)
        direct = split_state(u, v, n=1)
        n = 1
        worst = 0.0
        for _ in range(20):
            beta = opt.momentum_coefficient(n, SCH_N3)
            y = u + h * beta * v
            grad_y = objective.gradient(y)
            u_half, v_half = opt.damping_substep(u, v, h, beta)
            u, v = opt.gradient_substep_perturbed(u_half, v_half, grad_y, h, beta)
            n += 1
            opt.ssa1_step(direct, objective.gradient, h, SCH_N3, k=0.0)
            worst = max(
                worst, np.max(np.abs(u - direct.u)), np.max(np.abs(v - direct.v))
            )
        assert worst <= 1e-12

    @pytest.mark.parametrize("beta", [0.0, -0.5, NAN, np.inf, -np.inf])
    def test_perturbed_substep_rejects_a_beta_that_is_not_positive_and_finite(self, beta):
        with pytest.raises(ValueError, match=f"requires a finite beta > 0, got {beta}$"):
            opt.gradient_substep_perturbed(np.zeros(2), np.zeros(2), np.zeros(2), 0.1, beta)


class CountingGradient:
    def __init__(self, fn):
        self.fn = fn
        self.calls = 0

    def __call__(self, u):
        self.calls += 1
        return self.fn(u)


class TestStepDiscipline:
    def test_single_gradient_evaluation_per_step(self):
        objective = make_quadratic(4, 1.0, 4.0, seed=21)
        steps = {
            "nesterov": lambda s, g: opt.nesterov_step(s, g, 0.05, SCH_N3),
            "ssa1": lambda s, g: opt.ssa1_step(s, g, 0.05, SCH_N3, k=2.0),
            "ssa2": lambda s, g: opt.ssa2_step(s, g, 0.05, SCH_N3, k=2.0),
        }
        for name, step in steps.items():
            counter = CountingGradient(objective.gradient)
            fields = opt.NESTEROV_FIELDS if name == "nesterov" else opt.SPLIT_FIELDS
            state = opt.State.start(np.ones(4), fields)
            for _ in range(10):
                step(state, counter)
            assert counter.calls == 10, name

    def test_determinism(self):
        objective = make_quadratic(4, 1.0, 4.0, seed=22)

        def run():
            state = opt.State.start(np.ones(4), opt.SPLIT_FIELDS)
            for _ in range(25):
                opt.ssa1_step(state, objective.gradient, 0.05, SCH_N3, k=2.0)
            return state.u

        a, b = run(), run()
        assert np.array_equal(a, b)

    def test_counter_advances_by_one(self):
        state = opt.State.start(np.ones(2), opt.SPLIT_FIELDS, n=7)
        opt.ssa2_step(state, lambda u: u, 0.1, SCH_N3)
        assert state.n == 8


# --- randomized properties -----------------------------------------------------
#
# Derandomized with no deadline, so every run draws the same examples and a
# slow machine cannot fail a test by timing.
PROPERTY = settings(derandomize=True, deadline=None, database=None, max_examples=60)

SCHEDULES = st.one_of(
    st.sampled_from([SCH_N3, SCH_NM1]),
    st.floats(0.0, 1.0).map(opt.MomentumSchedule.constant),
)
STEP_SIZES = st.floats(1e-4, 0.5)


def vectors(dim, lo=-10.0, hi=10.0):
    return hnp.arrays(np.float64, dim, elements=st.floats(lo, hi))


@st.composite
def affine_gradients(draw, dim):
    """grad f(y) = a * y + b with a componentwise curvature in [0, 4], or
    grad f(y) = y returned as the very array it was given: a rule that
    overwrites its look-ahead buffer before its last read of the gradient
    computes a wrong step with it."""
    if draw(st.booleans()):
        return lambda y: y
    a, b = draw(vectors(dim, 0.0, 4.0)), draw(vectors(dim))
    return lambda y: a * y + b


@st.composite
def inertial_cases(draw):
    """A state holding u, v and u_prev, and the splitting rules' scratch
    fields poisoned with NaN, with an oracle, a step size and a schedule."""
    dim = draw(st.integers(1, 6))
    state = opt.State(
        u=draw(vectors(dim)), v=draw(vectors(dim)), n=draw(st.integers(0, 50)),
        u_prev=draw(vectors(dim)), work=np.full(dim, NAN), work2=np.full(dim, NAN),
    )
    return state, draw(affine_gradients(dim)), draw(STEP_SIZES), draw(SCHEDULES)


def same_bytes(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


# --- pinned formulas -------------------------------------------------------------
#
# Each rule's step written out in expression order, from the state before
# the step: the fields it advances but the scratch ones, as fresh arrays.

SCRATCH = ("work", "work2", "work3")


def grad_at(grad_fn, x):
    return np.asarray(grad_fn(x), dtype=float)


def running_average(acc, x, gamma):
    return gamma * acc + (1.0 - gamma) * x**2


def sgd_formula(s, grad_fn, h):
    return {"u": s.u - h * grad_at(grad_fn, s.u)}


def polyak_formula(s, grad_fn, h, schedule):
    alpha = opt.momentum_coefficient(s.n, schedule)
    y = s.u + alpha * (s.u - s.u_prev)
    return {"u": y - h * grad_at(grad_fn, s.u), "u_prev": s.u.copy()}


def nesterov_formula(s, grad_fn, h, schedule):
    beta = opt.momentum_coefficient(s.n, schedule)
    y = s.u + h * beta * s.v
    v_next = beta * s.v - h * grad_at(grad_fn, y)
    return {"u": s.u + h * v_next, "v": v_next}


def two_sequence_nesterov(u0, grad_fn, h, schedule, steps):
    """Yields the iterates u_1 .. u_steps of Nesterov's two-sequence form

        y = u + beta_n * (u - u_prev)
        u_next = y - h^2 * grad(y)

    started from u_prev = u0, which is the velocity form's start at rest."""
    u_prev, u = u0.copy(), u0.copy()
    for n in range(steps):
        beta = opt.momentum_coefficient(n, schedule)
        y = u + beta * (u - u_prev)
        u_prev, u = u, y - h * h * grad_at(grad_fn, y)
        yield u


def splitting_formula(s, grad_fn, h, schedule, kind, k):
    beta = opt.momentum_coefficient(s.n, schedule)
    y = s.u + h * beta * s.v
    grad_y = grad_at(grad_fn, y)
    v_next = beta**k * ((1.0 - h * beta) * s.v - h * grad_y)
    if kind == "ssa2":
        u_next = s.u + h * (1.0 - h * beta) * s.v
    else:
        u_next = s.u + beta * (1.0 - h * beta) * (y - s.u) - h * h * grad_y
    return {"u": u_next, "v": v_next}


def adagrad_formula(s, grad_fn, h, eps=ad.DEFAULT_EPS):
    grad = grad_at(grad_fn, s.u)
    acc_g = s.acc_grad_sq + grad * grad
    return {"u": s.u - h * grad / (np.sqrt(acc_g) + eps), "acc_grad_sq": acc_g}


def adadelta_formula(s, grad_fn, h, gamma=0.9, eps=ad.ADADELTA_EPS):
    grad = grad_at(grad_fn, s.u)
    acc_g = running_average(s.acc_grad_sq, grad, gamma)
    delta = -(np.sqrt(s.acc_update_sq + eps) / np.sqrt(acc_g + eps)) * grad
    return {"u": s.u + h * delta, "acc_grad_sq": acc_g,
            "acc_update_sq": running_average(s.acc_update_sq, delta, gamma)}


def rmsprop_formula(s, grad_fn, h, gamma=0.9, eps=ad.DEFAULT_EPS):
    grad = grad_at(grad_fn, s.u)
    acc_g = running_average(s.acc_grad_sq, grad, gamma)
    return {"u": s.u - h * grad / np.sqrt(acc_g + eps), "acc_grad_sq": acc_g}


def adam_formula(s, grad_fn, h, eps=ad.DEFAULT_EPS, beta1=0.9, beta2=0.999):
    grad = grad_at(grad_fn, s.u)
    t = s.n + 1
    mom = beta1 * s.mom + (1.0 - beta1) * grad
    acc_g = running_average(s.acc_grad_sq, grad, beta2)
    m_hat = mom / (1.0 - beta1**t)
    s_hat = acc_g / (1.0 - beta2**t)
    return {"u": s.u - h * m_hat / (np.sqrt(s_hat) + eps), "mom": mom, "acc_grad_sq": acc_g}


def ssa1_ada_formula(s, grad_fn, h, schedule, variant, k=2.0, gamma=0.9, eps=ad.ADADELTA_EPS):
    beta = opt.momentum_coefficient(s.n, schedule)
    z_next = s.u + h * beta * s.v
    if variant == "as-written":
        grad_acc = grad_at(grad_fn, s.z)
        grad_upd = grad_at(grad_fn, z_next)
    else:
        grad_acc = grad_at(grad_fn, z_next)
        grad_upd = grad_acc
    acc_g = running_average(s.acc_grad_sq, grad_acc, gamma)
    rms_grad = np.sqrt(acc_g + eps)
    rms_dz_prev = np.sqrt(s.acc_update_sq + eps)
    h_n = h * rms_dz_prev / rms_grad
    dz = -h_n * grad_acc
    v_next = beta**k * ((1.0 - h_n * beta) * s.v - h_n * grad_upd)
    u_next = s.u + beta * (1.0 - h_n * beta) * (z_next - s.u) - h_n**2 * grad_upd
    return {"u": u_next, "v": v_next, "z": z_next, "acc_grad_sq": acc_g,
            "acc_update_sq": running_average(s.acc_update_sq, dz, gamma)}


def assert_step_is_formula(step, state, grad_fn, formula):
    """One in-place step of state is formula's fields, byte for byte."""
    n, expected = state.n, formula(state, grad_fn)
    assert step(state, grad_fn) is None
    for field, want in expected.items():
        assert same_bytes(getattr(state, field), want), field
    assert state.n == n + 1


# a constant schedule below 1, as polyak_step takes
POLYAK_SCHEDULES = st.one_of(
    st.sampled_from([SCH_N3, SCH_NM1]),
    st.floats(0.0, 1.0, exclude_max=True).map(opt.MomentumSchedule.constant),
)
ADAPTIVE_RULES = {"adagrad": adagrad_formula, "adadelta": adadelta_formula,
                  "rmsprop": rmsprop_formula, "adam": adam_formula}


class TestPinnedFormulas:
    """Each rule against its formula written out here in expression order."""

    @PROPERTY
    @given(case=inertial_cases(), k=st.floats(0.0, 4.0),
           kind=st.sampled_from(["ssa1", "ssa2"]))
    def test_splitting_steps(self, case, k, kind):
        state, grad_fn, h, schedule = case
        step = opt.ssa2_step if kind == "ssa2" else opt.ssa1_step
        assert_step_is_formula(
            lambda s, g: step(s, g, h, schedule, k=k), state, grad_fn,
            lambda s, g: splitting_formula(s, g, h, schedule, kind, k),
        )

    @PROPERTY
    @given(case=inertial_cases())
    def test_nesterov_step(self, case):
        state, grad_fn, h, schedule = case
        assert_step_is_formula(
            lambda s, g: opt.nesterov_step(s, g, h, schedule), state, grad_fn,
            lambda s, g: nesterov_formula(s, g, h, schedule),
        )

    @PROPERTY
    @given(case=inertial_cases(), schedule=POLYAK_SCHEDULES, h=st.floats(0.0, 2.0))
    def test_sgd_and_polyak_steps(self, case, schedule, h):
        state, grad_fn, _, _ = case
        assert_step_is_formula(
            lambda s, g: opt.minibatch_sgd_step(s, g, h), copy.deepcopy(state), grad_fn,
            lambda s, g: sgd_formula(s, g, h),
        )
        if h > 0:
            assert_step_is_formula(
                lambda s, g: opt.polyak_step(s, g, h, schedule), state, grad_fn,
                lambda s, g: polyak_formula(s, g, h, schedule),
            )

    @pytest.mark.parametrize("name", sorted(ADAPTIVE_RULES))
    @PROPERTY
    @given(dim=st.integers(1, 6), data=st.data(), h=st.floats(1e-3, 2.0),
           gamma=st.floats(0.01, 0.99), eps=st.floats(1e-8, 1e-2),
           beta1=st.floats(0.01, 0.99), beta2=st.floats(0.01, 0.999))
    def test_adaptive_steps(self, name, dim, data, h, gamma, eps, beta1, beta2):
        rule, formula = getattr(ad, name + "_step"), ADAPTIVE_RULES[name]
        reads = inspect.signature(rule).parameters
        hyper = {key: value for key, value in
                 dict(gamma=gamma, eps=eps, beta1=beta1, beta2=beta2).items() if key in reads}
        state = draw_state(data, getattr(ad, name.upper() + "_FIELDS"), dim)
        assert_step_is_formula(
            lambda s, g: rule(s, g, h, **hyper), state, data.draw(affine_gradients(dim)),
            lambda s, g: formula(s, g, h, **hyper),
        )

    @PROPERTY
    @given(case=inertial_cases(), variant=st.sampled_from(ad.SSA1_ADA_VARIANTS),
           data=st.data(), h=st.floats(1e-3, 2.0), gamma=st.floats(0.01, 0.99),
           eps=st.floats(1e-8, 1e-2), k=st.floats(0.0, 4.0))
    def test_ssa1_ada_step(self, case, variant, data, h, gamma, eps, k):
        inertial, grad_fn, _, schedule = case
        dim = inertial.u.shape
        state = opt.State(
            u=inertial.u, acc_grad_sq=data.draw(vectors(dim, 0.0, 10.0)),
            acc_update_sq=data.draw(vectors(dim, 0.0, 10.0)),
            v=inertial.v, z=inertial.u_prev, n=inertial.n,
            work=inertial.work, work2=inertial.work2, work3=np.full(dim, NAN),
        )
        hyper = dict(k=k, gamma=gamma, eps=eps)
        assert_step_is_formula(
            lambda s, g: ad.ssa1_ada_step(s, g, h, schedule, variant, **hyper), state, grad_fn,
            lambda s, g: ssa1_ada_formula(s, g, h, schedule, variant, **hyper),
        )


class TestNesterovProperties:
    @PROPERTY
    @given(dim=st.integers(1, 6), data=st.data(), h=STEP_SIZES,
           schedule=SCHEDULES, steps=st.integers(1, 15))
    def test_forms_keep_h_v_equal_to_step_and_agree(self, dim, data, h, schedule, steps):
        u0 = data.draw(vectors(dim))
        grad_fn = data.draw(affine_gradients(dim))
        state = opt.State.start(u0, opt.NESTEROV_FIELDS)
        for u_two_sequence in two_sequence_nesterov(u0, grad_fn, h, schedule, steps):
            u = state.u.copy()
            opt.nesterov_step(state, grad_fn, h, schedule)
            # a few roundings of numbers no larger than the iterates
            scale = max(1.0, np.max(np.abs(state.u)), np.max(np.abs(u)))
            np.testing.assert_allclose(
                state.u - u, h * state.v, rtol=0, atol=8 * np.finfo(float).eps * scale
            )
        scale = max(1.0, np.max(np.abs(state.u)))
        np.testing.assert_allclose(state.u, u_two_sequence, rtol=0, atol=1e-9 * scale)


# --- the in-place state contract ---------------------------------------------------


RuleCase = collections.namedtuple("RuleCase", "rule fields step formula")


def rule_steps(h, schedule, k):
    """Every step rule and ssa1-ada variant, as name -> RuleCase: the
    rule's name, its declared fields, step(state, grad_fn) and its pinned
    formula(state, grad_fn), both with the rule's own defaults of the
    hyper-parameters."""
    steps = {
        "sgd": RuleCase("minibatch_sgd_step", opt.SGD_FIELDS,
                        lambda s, g: opt.minibatch_sgd_step(s, g, h),
                        lambda s, g: sgd_formula(s, g, h)),
        "polyak": RuleCase("polyak_step", opt.POLYAK_FIELDS,
                           lambda s, g: opt.polyak_step(s, g, h, SCH_N3),
                           lambda s, g: polyak_formula(s, g, h, SCH_N3)),
    }
    for kind in ("ssa1", "ssa2"):
        rule = getattr(opt, kind + "_step")
        steps[kind] = RuleCase(rule.__name__, opt.SPLIT_FIELDS,
                               lambda s, g, rule=rule: rule(s, g, h, schedule, k=k),
                               lambda s, g, kind=kind: splitting_formula(s, g, h, schedule, kind, k))
    steps["nesterov"] = RuleCase("nesterov_step", opt.NESTEROV_FIELDS,
                                 lambda s, g: opt.nesterov_step(s, g, h, schedule),
                                 lambda s, g: nesterov_formula(s, g, h, schedule))
    for name, formula in ADAPTIVE_RULES.items():
        rule = getattr(ad, name + "_step")
        steps[name] = RuleCase(rule.__name__, getattr(ad, name.upper() + "_FIELDS"),
                               lambda s, g, rule=rule: rule(s, g, h),
                               lambda s, g, formula=formula: formula(s, g, h))
    for variant in ad.SSA1_ADA_VARIANTS:
        steps[f"ssa1-ada-{variant}"] = RuleCase(
            "ssa1_ada_step", ad.SSA1_ADA_FIELDS,
            lambda s, g, variant=variant: ad.ssa1_ada_step(s, g, h, schedule, variant, k=k),
            lambda s, g, variant=variant: ssa1_ada_formula(s, g, h, schedule, variant, k=k),
        )
    return steps


RULE_NAMES = sorted(rule_steps(0.1, SCH_N3, 2.0))
ACCUMULATORS = ("acc_grad_sq", "acc_update_sq")


def draw_state(data, fields, dim):
    """A state holding exactly fields, the accumulators nonnegative."""
    return opt.State(n=data.draw(st.integers(0, 50)), **{
        name: data.draw(vectors(dim, 0.0, 10.0) if name in ACCUMULATORS else vectors(dim))
        for name in fields
    })


def arrays(state):
    """The names and arrays a state holds."""
    return {name: value for name, value in vars(state).items() if isinstance(value, np.ndarray)}


class TestInPlaceChain:
    @pytest.mark.parametrize("name", RULE_NAMES)
    @PROPERTY
    @given(dim=st.integers(1, 6), data=st.data(), h=STEP_SIZES, schedule=SCHEDULES,
           k=st.floats(0.0, 4.0), steps=st.integers(1, 8))
    def test_each_step_of_an_in_place_chain_is_the_pinned_formula(
        self, name, dim, data, h, schedule, k, steps
    ):
        # the oracle may be the identity, handing the rule its own buffer
        # back; scratch fields hold NaN before every step, so a rule that
        # reads one before writing it shows
        _, fields, step, formula = rule_steps(h, schedule, k)[name]
        grad_fn = data.draw(affine_gradients(dim))
        state = draw_state(data, fields, dim)
        held = {id(array) for array in arrays(state).values()}
        assert set(formula(state, grad_fn)) == set(fields) - set(SCRATCH)
        for _ in range(steps):
            for scratch in set(SCRATCH) & set(fields):
                getattr(state, scratch)[...] = np.nan
            assert_step_is_formula(step, state, grad_fn, formula)
            # polyak swaps u and u_prev; no rule trades an array for a
            # new one
            assert {id(array) for array in arrays(state).values()} == held
            for acc in set(ACCUMULATORS) & set(fields):
                assert np.all(getattr(state, acc) >= 0.0)


def forbidden_oracle(_):
    raise AssertionError("the oracle was called before the state contract was checked")


CONTRACT_CASES = [(name, field) for name, entry in sorted(rule_steps(0.1, HALF, 2.0).items())
                  for field in entry.fields]


class TestStateContract:
    """Each rule's declared fields are its whole contract, checked before
    the oracle is first called."""

    @pytest.mark.parametrize("name, field", CONTRACT_CASES)
    def test_a_missing_field_is_named_before_the_oracle_runs(self, name, field):
        # every declared field, scratch ones and those a variant does not
        # read included
        rule, fields, step, _ = rule_steps(0.1, HALF, 2.0)[name]
        lacking = opt.State.start(np.ones(3), fields, n=3)
        # set after construction: State would reject a None u by the others' shapes
        setattr(lacking, field, None)
        message = f"{rule} advances {field}, which the state lacks"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            step(lacking, forbidden_oracle)


STATE_ARRAYS = [f.name for f in dataclasses.fields(opt.State) if f.name not in ("u", "n")]


class TestState:
    @pytest.mark.parametrize("field", STATE_ARRAYS)
    def test_rejects_a_misshaped_array_in_every_field(self, field):
        with pytest.raises(ValueError, match=rf"{field} shape \(1,\) != iterate shape \(3,\)"):
            opt.State(u=np.zeros(3), **{field: np.zeros(1)})
        with pytest.raises(ValueError, match=rf"{field} shape \(3, 1\)"):
            opt.State(u=np.zeros(3), **{field: np.zeros((3, 1))})

    @pytest.mark.parametrize("found, array", [
        ("must be a float64 ndarray, got float32", np.zeros(3, np.float32)),
        ("must be a float64 ndarray, got int64", np.zeros(3, np.int64)),
        ("must be a float64 ndarray, got list", [0.0, 0.0, 0.0]),
        ("shape (2, 3) != iterate shape (3,)", np.zeros((2, 3))),
    ], ids=["float32", "int64", "list", "2x3"])
    @pytest.mark.parametrize("field", STATE_ARRAYS)
    def test_rejects_an_array_that_is_not_a_float64_iterate(self, field, found, array):
        # a rule would step it in single precision, fail in a numpy cast,
        # or broadcast the iterate to its shape
        with pytest.raises(ValueError, match=f"^{field} {re.escape(found)}$"):
            opt.State(u=np.zeros(3), **{field: array})

    def test_rejects_an_iterate_that_is_not_float64(self):
        for found, u in [("float32", np.zeros(3, np.float32)), ("int64", np.zeros(3, np.int64)),
                         ("list", [0.0, 0.0, 0.0])]:
            with pytest.raises(ValueError, match=f"^u must be a float64 ndarray, got {found}$"):
                opt.State(u=u)

    @pytest.mark.parametrize("first, second", list(itertools.combinations(["u", *STATE_ARRAYS], 2)))
    def test_rejects_two_fields_that_share_memory(self, first, second):
        # a step writing one would change the other
        held = np.zeros(6)
        for one, other in [(held, held), (held, held[::-1]), (held[:3], held[2:5])]:
            with pytest.raises(ValueError, match=f"^{first} and {second} share memory$"):
                opt.State(**{"u": np.zeros(one.shape), first: one, second: other})

    def test_rejects_a_negative_counter(self):
        with pytest.raises(ValueError, match="iteration counter must be nonnegative"):
            opt.State(u=np.zeros(2), n=-1)

    def test_start_holds_exactly_the_given_fields(self):
        u0 = np.array([1.0, -2.0])
        state = opt.State.start(u0, tuple(["u"] + STATE_ARRAYS), n=3)
        assert state.n == 3
        for name, value in arrays(state).items():
            expected = u0 if name in ("u", "u_prev", "z") else np.zeros(2)
            assert same_bytes(value, expected) and not np.shares_memory(value, u0), name
        assert set(arrays(opt.State.start(u0, opt.SPLIT_FIELDS))) == {"u", "v", "work", "work2"}
