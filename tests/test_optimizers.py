"""Unit tests for the non-adaptive step rules, byte-for-byte pins of the
splitting updates that the adaptive splitting step shares with them, and
the out= buffer contract of every step rule."""

import collections
import copy
import dataclasses
import re
from dataclasses import replace

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
    return opt.minibatch_sgd_step(opt.State.start(u, opt.SGD_FIELDS), lambda _: g, h).u


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
        out = opt.minibatch_sgd_step(state, lambda _: np.ones(2), 0.1)
        assert out.v is None and out.u_prev is None and out.n == 5

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
        out = opt.polyak_step(
            state, lambda _: np.array([1.0]), 0.1, opt.MomentumSchedule.constant(0.0)
        )
        assert out.u == pytest.approx(0.9)
        assert out.n == 1

    def test_hand_trace(self):
        # f = u^2/2, gradient taken at u = 1
        state = opt.State(
            u=np.array([1.0]), v=np.zeros(1), n=0, u_prev=np.array([0.5])
        )
        out = opt.polyak_step(state, lambda _: np.array([1.0]), 0.1, HALF)
        # y = 1 + 0.5*(1 - 0.5) = 1.25; u' = 1.25 - 0.1
        assert out.u == pytest.approx(1.15)
        assert out.u_prev == pytest.approx(1.0)

    def test_zero_inertial_difference(self):
        u0 = np.array([2.0, -1.0])
        state = opt.State.start(u0, opt.POLYAK_FIELDS)
        g = np.array([0.5, 0.5])
        out = opt.polyak_step(state, lambda _: g, 0.2, opt.MomentumSchedule.constant(0.7))
        np.testing.assert_array_equal(out.u, sgd(u0, g, 0.2))

    @pytest.mark.parametrize("h", [0.0, NAN])
    def test_step_size_must_be_positive(self, h):
        state = opt.State.start(np.zeros(2), opt.POLYAK_FIELDS)
        with pytest.raises(ValueError, match="step size must be positive"):
            opt.polyak_step(state, lambda _: np.zeros(2), h, HALF)


class TestNesterov:
    def test_velocity_hand_trace(self):
        state = opt.State(u=np.array([1.0]), v=np.array([0.0]), n=0)
        out = opt.nesterov_step(
            state, lambda u: u, 0.1, opt.MomentumSchedule.constant(0.25)
        )
        assert out.v == pytest.approx(-0.1)
        assert out.u == pytest.approx(0.99)

    def test_gradient_free_coast(self):
        rng = np.random.default_rng(0)
        u, v = rng.standard_normal(3), rng.standard_normal(3)
        state = opt.State(u=u.copy(), v=v.copy(), n=5)
        sch = opt.MomentumSchedule.constant(0.8)
        out = opt.nesterov_step(state, lambda _: np.zeros(3), 0.1, sch)
        np.testing.assert_allclose(out.v, 0.8 * v)
        np.testing.assert_allclose(out.u, u + 0.1 * 0.8 * v)

    def test_two_sequence_matches_velocity_from_rest(self):
        # u = u_prev corresponds to v = 0; single steps coincide
        state_a = opt.State.start(np.array([1.0]), opt.NESTEROV_FIELDS)
        state_b = opt.State.start(np.array([1.0]), opt.NESTEROV_FIELDS)
        sch = opt.MomentumSchedule.constant(0.5)
        a = opt.nesterov_step(state_a, lambda u: u, 0.1, sch, form="velocity")
        b = opt.nesterov_step(state_b, lambda u: u, 0.1, sch, form="two-sequence")
        assert a.u == pytest.approx(0.99)
        assert b.u == pytest.approx(0.99)

    def test_form_equivalence_over_100_steps(self):
        objective = make_quadratic(10, 1.0, 10.0, seed=42)
        u0 = np.random.default_rng(7).standard_normal(10)
        sv = opt.State.start(u0, opt.NESTEROV_FIELDS)
        st = opt.State.start(u0, opt.NESTEROV_FIELDS)
        worst = 0.0
        for _ in range(100):
            sv = opt.nesterov_step(sv, objective.gradient, 0.1, SCH_NM1, "velocity")
            st = opt.nesterov_step(st, objective.gradient, 0.1, SCH_NM1, "two-sequence")
            worst = max(worst, np.max(np.abs(sv.u - st.u)))
        assert worst <= 1e-12

    def test_errors(self):
        state = opt.State(u=np.zeros(2), v=np.zeros(2), n=0, u_prev=None)
        with pytest.raises(ValueError, match="u_prev"):
            opt.nesterov_step(state, lambda u: u, 0.1, SCH_N3, form="two-sequence")
        with pytest.raises(ValueError, match="form"):
            opt.nesterov_step(state, lambda u: u, 0.1, SCH_N3, form="magic")
        with pytest.raises(ValueError, match="dimension mismatch"):
            opt.nesterov_step(state, lambda u: np.zeros(3), 0.1, SCH_N3)
        with pytest.raises(ValueError, match="step size must be positive"):
            opt.nesterov_step(state, lambda u: u, NAN, SCH_N3)

    def test_unknown_form_is_checked_before_the_oracle(self):
        # the rule is the one check of a form: it names the choices and
        # raises before it calls the oracle
        def oracle(u):
            raise AssertionError("the oracle was called for an unknown form")

        state = opt.State.start(np.zeros(2), opt.NESTEROV_FIELDS)
        message = "unknown nesterov form 'bogus'; choose from ('velocity', 'two-sequence')"
        with pytest.raises(ValueError, match=re.escape(message)):
            opt.nesterov_step(state, oracle, 0.1, SCH_N3, form="bogus")


class TestSsa1:
    def test_hand_trace(self):
        state = opt.State(u=np.array([1.0]), v=np.array([0.0]), n=1)
        out = opt.ssa1_step(state, lambda u: u, 0.1, SCH_N3, k=2.0)  # beta_1 = 0.25
        assert out.v == pytest.approx(-0.00625, abs=1e-12)
        assert out.u == pytest.approx(0.99, abs=1e-12)
        assert out.n == 2

    def test_zero_velocity_collapses_to_squared_step(self):
        rng = np.random.default_rng(3)
        u = rng.standard_normal(4)
        state = opt.State(u=u.copy(), v=np.zeros(4), n=9)
        grad = rng.standard_normal(4)
        out = opt.ssa1_step(state, lambda _: grad, 0.2, SCH_N3, k=2.0)
        np.testing.assert_allclose(out.u, u - 0.2**2 * grad)

    def test_gradient_free_coast(self):
        rng = np.random.default_rng(4)
        u, v = rng.standard_normal(3), rng.standard_normal(3)
        state = opt.State(u=u.copy(), v=v.copy(), n=2)
        beta = 2 / 5
        out = opt.ssa1_step(state, lambda _: np.zeros(3), 0.1, SCH_N3, k=2.0)
        np.testing.assert_allclose(out.v, beta**2 * (1 - 0.1 * beta) * v)
        np.testing.assert_allclose(out.u, u + 0.1 * beta**2 * (1 - 0.1 * beta) * v)


class TestSsa2:
    def test_zero_velocity_ignores_gradient(self):
        state = opt.State(u=np.array([1.0]), v=np.array([0.0]), n=3)
        out = opt.ssa2_step(state, lambda _: np.array([123.0]), 0.1, SCH_N3, k=2.0)
        assert out.u == pytest.approx(1.0)

    def test_hand_trace(self):
        state = opt.State(u=np.array([1.0]), v=np.array([1.0]), n=0)
        sch = opt.MomentumSchedule.constant(0.25)
        out = opt.ssa2_step(state, lambda u: u, 0.1, sch, k=2.0)
        # y = 1.025; v' = 0.0625*(0.975 - 0.1*1.025); u' = 1 + 0.1*0.975
        assert out.v == pytest.approx(0.0625 * (0.975 - 0.1025), abs=1e-12)
        assert out.u == pytest.approx(1.0975, abs=1e-12)

    def test_gradient_free_coast(self):
        rng = np.random.default_rng(6)
        u, v = rng.standard_normal(3), rng.standard_normal(3)
        state = opt.State(u=u.copy(), v=v.copy(), n=2)
        beta = 2 / 5
        out = opt.ssa2_step(state, lambda _: np.zeros(3), 0.1, SCH_N3, k=2.0)
        np.testing.assert_allclose(out.v, beta**2 * (1 - 0.1 * beta) * v)
        np.testing.assert_allclose(out.u, u + 0.1 * (1 - 0.1 * beta) * v)

    def test_division_free_form_at_beta_zero(self):
        # n = 0 gives beta = 0 on the ratio schedules; the update must not blow up
        state = opt.State(u=np.array([2.0]), v=np.array([1.0]), n=0)
        out = opt.ssa2_step(state, lambda u: u, 0.1, SCH_N3, k=2.0)
        assert np.all(np.isfinite(out.u)) and np.all(np.isfinite(out.v))
        assert out.u == pytest.approx(2.0 + 0.1 * 1.0)


def _trace(step_fn, state, objective, h, k, schedule, steps):
    """Iterate a splitting step recording (n, beta, u, y, grad(y)) per visit."""
    hist = []
    for _ in range(steps):
        beta = opt.momentum_coefficient(state.n, schedule)
        y = state.u + h * beta * state.v
        hist.append((state.n, beta, state.u.copy(), y, objective.gradient(y)))
        state = step_fn(state, objective.gradient, h, schedule, k=k)
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
        direct = opt.State(u=u.copy(), v=v.copy(), n=1)
        n = 1
        worst = 0.0
        for _ in range(20):
            beta = opt.momentum_coefficient(n, SCH_N3)
            y = u + h * beta * v
            grad_y = objective.gradient(y)
            u_half, v_half = opt.damping_substep(u, v, h, beta)
            u, v = opt.gradient_substep_perturbed(u_half, v_half, grad_y, h, beta)
            n += 1
            direct = opt.ssa1_step(direct, objective.gradient, h, SCH_N3, k=0.0)
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
                state = step(state, counter)
            assert counter.calls == 10, name

    def test_determinism(self):
        objective = make_quadratic(4, 1.0, 4.0, seed=22)

        def run():
            state = opt.State.start(np.ones(4), opt.SPLIT_FIELDS)
            for _ in range(25):
                state = opt.ssa1_step(state, objective.gradient, 0.05, SCH_N3, k=2.0)
            return state.u

        a, b = run(), run()
        assert np.array_equal(a, b)

    def test_counter_advances_by_one(self):
        state = opt.State.start(np.ones(2), opt.SPLIT_FIELDS, n=7)
        out = opt.ssa2_step(state, lambda u: u, 0.1, SCH_N3)
        assert out.n == 8


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
    dim = draw(st.integers(1, 6))
    state = opt.State(
        u=draw(vectors(dim)), v=draw(vectors(dim)), n=draw(st.integers(0, 50)),
        u_prev=draw(vectors(dim)),
    )
    return state, draw(affine_gradients(dim)), draw(STEP_SIZES), draw(SCHEDULES)


def same_bytes(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestPinnedSplittingFormulas:
    """Each rule against its formula written out here in expression order."""

    @PROPERTY
    @given(case=inertial_cases(), k=st.floats(0.0, 4.0),
           kind=st.sampled_from(["ssa1", "ssa2"]))
    def test_splitting_steps(self, case, k, kind):
        state, grad_fn, h, schedule = case
        beta = opt.momentum_coefficient(state.n, schedule)
        y = state.u + h * beta * state.v
        grad_y = np.asarray(grad_fn(y), dtype=float)
        v_next = beta**k * ((1.0 - h * beta) * state.v - h * grad_y)
        if kind == "ssa2":
            u_next = state.u + h * (1.0 - h * beta) * state.v
        else:
            u_next = state.u + beta * (1.0 - h * beta) * (y - state.u) - h * h * grad_y

        step = opt.ssa2_step if kind == "ssa2" else opt.ssa1_step
        out = step(state, grad_fn, h, schedule, k=k)
        assert same_bytes(out.u, u_next) and same_bytes(out.v, v_next)
        assert out.n == state.n + 1

    @PROPERTY
    @given(case=inertial_cases(), form=st.sampled_from(opt.NESTEROV_FORMS))
    def test_nesterov_step(self, case, form):
        state, grad_fn, h, schedule = case
        beta = opt.momentum_coefficient(state.n, schedule)
        if form == "velocity":
            y = state.u + h * beta * state.v
            grad_y = np.asarray(grad_fn(y), dtype=float)
            v_next = beta * state.v - h * grad_y
            u_next = state.u + h * v_next
        else:
            y = state.u + beta * (state.u - state.u_prev)
            grad_y = np.asarray(grad_fn(y), dtype=float)
            u_next = y - h * h * grad_y
            v_next = (u_next - state.u) / h

        out = opt.nesterov_step(state, grad_fn, h, schedule, form)
        assert same_bytes(out.u, u_next) and same_bytes(out.v, v_next)
        assert same_bytes(out.u_prev, state.u) and out.n == state.n + 1

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
        )
        beta = opt.momentum_coefficient(state.n, schedule)
        z_next = state.u + h * beta * state.v
        if variant == "as-written":
            grad_acc = np.asarray(grad_fn(state.z), dtype=float)
            grad_upd = np.asarray(grad_fn(z_next), dtype=float)
        else:
            grad_acc = np.asarray(grad_fn(z_next), dtype=float)
            grad_upd = grad_acc
        acc_g = gamma * state.acc_grad_sq + (1.0 - gamma) * grad_acc**2
        rms_grad = np.sqrt(acc_g + eps)
        rms_dz_prev = np.sqrt(state.acc_update_sq + eps)
        h_n = h * rms_dz_prev / rms_grad
        dz = -h_n * grad_acc
        acc_d = gamma * state.acc_update_sq + (1.0 - gamma) * dz**2
        v_next = beta**k * ((1.0 - h_n * beta) * state.v - h_n * grad_upd)
        u_next = (
            state.u
            + beta * (1.0 - h_n * beta) * (z_next - state.u)
            - h_n**2 * grad_upd
        )

        out = ad.ssa1_ada_step(state, grad_fn, h, schedule, variant, k=k, gamma=gamma, eps=eps)
        for got, want in [(out.u, u_next), (out.v, v_next), (out.z, z_next),
                          (out.acc_grad_sq, acc_g), (out.acc_update_sq, acc_d)]:
            assert same_bytes(got, want)
        assert out.n == state.n + 1


class TestNesterovProperties:
    @PROPERTY
    @given(dim=st.integers(1, 6), data=st.data(), h=STEP_SIZES,
           schedule=SCHEDULES, steps=st.integers(1, 15))
    def test_forms_keep_h_v_equal_to_step_and_agree(self, dim, data, h, schedule, steps):
        u0 = data.draw(vectors(dim))
        grad_fn = data.draw(affine_gradients(dim))
        states = {form: opt.State.start(u0, opt.NESTEROV_FIELDS) for form in opt.NESTEROV_FORMS}
        for _ in range(steps):
            for form in opt.NESTEROV_FORMS:
                s = opt.nesterov_step(states[form], grad_fn, h, schedule, form)
                # a few roundings of numbers no larger than the iterates
                scale = max(1.0, np.max(np.abs(s.u)), np.max(np.abs(s.u_prev)))
                np.testing.assert_allclose(
                    h * s.v, s.u - s.u_prev, rtol=0, atol=8 * np.finfo(float).eps * scale
                )
                states[form] = s
        velocity, two_sequence = (states[form] for form in opt.NESTEROV_FORMS)
        scale = max(1.0, np.max(np.abs(velocity.u)))
        np.testing.assert_allclose(velocity.u, two_sequence.u, rtol=0, atol=1e-9 * scale)


# --- out= buffers ---------------------------------------------------------------


RuleCase = collections.namedtuple("RuleCase", "rule fields reads step")


def case(rule, fields, step, unread=()):
    """A RuleCase whose call reads fields but work and unread."""
    reads = tuple(f for f in fields if f != "work" and f not in unread)
    return RuleCase(rule.__name__, fields, reads, step)


def rule_steps(h, schedule, k):
    """Every step rule and form, as name -> RuleCase: the rule's name, its
    declared fields, the fields the call reads, and step(state, grad_fn, **out)."""
    steps = {
        "sgd": case(opt.minibatch_sgd_step, opt.SGD_FIELDS,
                    lambda s, g, **o: opt.minibatch_sgd_step(s, g, h, **o)),
        "polyak": case(opt.polyak_step, opt.POLYAK_FIELDS,
                       lambda s, g, **o: opt.polyak_step(s, g, h, SCH_N3, **o)),
        "ssa1": case(opt.ssa1_step, opt.SPLIT_FIELDS,
                     lambda s, g, **o: opt.ssa1_step(s, g, h, schedule, k=k, **o)),
        "ssa2": case(opt.ssa2_step, opt.SPLIT_FIELDS,
                     lambda s, g, **o: opt.ssa2_step(s, g, h, schedule, k=k, **o)),
    }
    for form, unread in zip(opt.NESTEROV_FORMS, [("u_prev",), ("v",)]):
        steps[f"nesterov-{form}"] = case(opt.nesterov_step, opt.NESTEROV_FIELDS, (
            lambda s, g, form=form, **o: opt.nesterov_step(s, g, h, schedule, form, **o)
        ), unread)
    for name in ("adagrad", "adadelta", "rmsprop", "adam"):
        rule = getattr(ad, name + "_step")
        fields = getattr(ad, name.upper() + "_FIELDS")
        steps[name] = case(rule, fields, lambda s, g, rule=rule, **o: rule(s, g, h, **o))
    for variant, unread in zip(ad.SSA1_ADA_VARIANTS, [(), ("z",)]):
        steps[f"ssa1-ada-{variant}"] = case(ad.ssa1_ada_step, ad.SSA1_ADA_FIELDS, (
            lambda s, g, variant=variant, **o: ad.ssa1_ada_step(s, g, h, schedule, variant, k=k, **o)
        ), unread)
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


def snapshot(state):
    """Every field of a state, arrays as bytes."""
    return {name: value.tobytes() if isinstance(value, np.ndarray) else value
            for name, value in vars(state).items()}


def poisoned(state):
    """A state of the same layout whose arrays hold NaN, so that an element
    a step leaves unwritten shows."""
    return replace(state, **{name: np.full_like(value, np.nan)
                             for name, value in arrays(state).items()})


class TestOutBuffers:
    @pytest.mark.parametrize("name", RULE_NAMES)
    @PROPERTY
    @given(dim=st.integers(1, 6), data=st.data(), h=STEP_SIZES, schedule=SCHEDULES,
           k=st.floats(0.0, 4.0), steps=st.integers(1, 8))
    def test_alternating_chain_equals_pure_chain(self, name, dim, data, h, schedule, k, steps):
        _, fields, _, step = rule_steps(h, schedule, k)[name]
        grad_fn = data.draw(affine_gradients(dim))
        pure = draw_state(data, fields, dim)
        state, spare = copy.deepcopy(pure), poisoned(pure)
        for _ in range(steps):
            before = snapshot(state)
            with pytest.raises(ValueError, match="out must not be the input"):
                step(state, grad_fn, out=state)
            pure = step(pure, grad_fn)
            state, spare = step(state, grad_fn, out=spare), state
            assert snapshot(spare) == before
            assert snapshot(state) == snapshot(pure)
            for acc in set(ACCUMULATORS) & set(fields):
                assert np.all(getattr(state, acc) >= 0.0)


class TestDeclaredFields:
    @pytest.mark.parametrize("name", RULE_NAMES)
    @PROPERTY
    @given(dim=st.integers(1, 6), data=st.data(), h=STEP_SIZES, schedule=SCHEDULES,
           k=st.floats(0.0, 4.0))
    def test_a_step_allocates_and_writes_exactly_the_declared_fields(
        self, name, dim, data, h, schedule, k
    ):
        _, fields, _, step = rule_steps(h, schedule, k)[name]
        grad_fn = data.draw(affine_gradients(dim))
        start = opt.State.start(data.draw(vectors(dim)), fields)
        if "work" in fields:
            start.work[...] = np.nan  # its contents mean nothing between steps
        fresh = step(start, grad_fn)
        assert set(arrays(fresh)) == set(fields)
        assert not any(np.shares_memory(a, b) for a in arrays(fresh).values()
                       for b in arrays(start).values())
        written = step(start, grad_fn, out=poisoned(start))
        for field in fields:
            assert not np.any(np.isnan(getattr(written, field))), field
        assert snapshot(written) == snapshot(fresh)


def forbidden_oracle(_):
    raise AssertionError("the oracle was called before the state contract was checked")


CONTRACT_CASES = [(name, field) for name, entry in sorted(rule_steps(0.1, HALF, 2.0).items())
                  for field in entry.fields]


class TestStateContract:
    """Each rule's declared fields are its whole contract, checked before
    the oracle is first called."""

    @pytest.mark.parametrize("name, field", CONTRACT_CASES)
    def test_a_missing_field_is_named_before_the_oracle_runs(self, name, field):
        rule, fields, reads, step = rule_steps(0.1, HALF, 2.0)[name]
        rng = np.random.default_rng(0)
        full = opt.State(n=3, **{f: rng.uniform(0.5, 2.0, 3) for f in fields})
        # set after construction: State would reject a None u by the others' shapes
        lacking, out = copy.deepcopy(full), opt.State.start(np.zeros(3), fields)
        setattr(lacking, field, None)
        setattr(out, field, None)
        if field in reads:
            with pytest.raises(ValueError, match=rf"^{rule} reads {field}, "):
                step(lacking, forbidden_oracle)
        else:
            grad_fn = lambda y: 1.5 * y - 0.25
            assert snapshot(step(lacking, grad_fn)) == snapshot(step(full, grad_fn))
        with pytest.raises(ValueError, match=rf"^{rule} writes {field}, "):
            step(full, forbidden_oracle, out=out)

    @pytest.mark.parametrize("name, field", CONTRACT_CASES)
    def test_an_out_field_that_is_not_a_float64_iterate_is_named_before_the_oracle_runs(
        self, name, field
    ):
        rule, fields, _, step = rule_steps(0.1, HALF, 2.0)[name]
        state = opt.State.start(np.ones(3), fields, n=3)
        misfits = {"float32 (3,)": np.zeros(3, np.float32), "int64 (3,)": np.zeros(3, np.int64),
                   "float64 (2, 3)": np.zeros((2, 3)), "list (3,)": [0.0, 0.0, 0.0]}
        for found, array in misfits.items():
            out = opt.State.start(np.zeros(3), fields)
            setattr(out, field, array)
            message = rf"^{rule} writes {field} as float64 \(3,\), but out's is {re.escape(found)}$"
            with pytest.raises(ValueError, match=message):
                step(state, forbidden_oracle, out=out)
        # an out of the wrong shape throughout would broadcast the iterate
        with pytest.raises(ValueError, match=rf"^{rule} writes {fields[0]} as float64 \(3,\)"):
            step(state, forbidden_oracle, out=opt.State.start(np.zeros((2, 3)), fields))


STATE_ARRAYS = [f.name for f in dataclasses.fields(opt.State) if f.name not in ("u", "n")]


class TestState:
    @pytest.mark.parametrize("field", STATE_ARRAYS)
    def test_rejects_a_misshaped_array_in_every_field(self, field):
        with pytest.raises(ValueError, match=rf"{field} shape \(1,\) != iterate shape \(3,\)"):
            opt.State(u=np.zeros(3), **{field: np.zeros(1)})
        with pytest.raises(ValueError, match=rf"{field} shape \(3, 1\)"):
            opt.State(u=np.zeros(3), **{field: np.zeros((3, 1))})

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
        assert set(arrays(opt.State.start(u0, opt.SPLIT_FIELDS))) == {"u", "v", "work"}
