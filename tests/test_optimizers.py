"""Unit tests for the non-adaptive step rules, and byte-for-byte pins of
the splitting updates that the adaptive splitting step shares with them."""

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


SCH_N3 = opt.MomentumSchedule.ratio_n_over_n_plus_3()
SCH_NM1 = opt.MomentumSchedule.ratio_n_minus_1_over_n_plus_2()
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
        with pytest.raises(ValueError):
            opt.MomentumSchedule.constant(1.5)
        with pytest.raises(ValueError):
            opt.momentum_coefficient(-1, SCH_N3)


class TestSplitHyperParams:
    def test_k_schedule(self):
        hp = opt.SplitHyperParams(h=0.1, k=2.0, k_schedule="exp-decay")
        assert hp.k_at(0) == 2.0
        assert hp.k_at(1) == pytest.approx(np.exp(-2.0))
        assert hp.k_at(4) == pytest.approx(np.exp(-0.5))
        const = opt.SplitHyperParams(h=0.1, k=2.0)
        assert const.k_at(17) == 2.0

    def test_validation(self):
        with pytest.raises(ValueError):
            opt.SplitHyperParams(h=0.0)
        with pytest.raises(ValueError):
            opt.SplitHyperParams(h=0.1, k=-1.0)
        with pytest.raises(ValueError):
            opt.SplitHyperParams(h=0.1, k_schedule="linear")
        for bad in ({"h": NAN}, {"h": 0.1, "k": NAN}):
            with pytest.raises(ValueError, match="must be"):
                opt.SplitHyperParams(**bad)


class TestGdAndSgd:
    def test_examples(self):
        assert opt.gd_step(np.array([1.0]), np.array([1.0]), 0.1) == pytest.approx(0.9)
        u = np.array([3.0, -1.0])
        assert np.array_equal(opt.gd_step(u, np.zeros(2), 0.5), u)
        np.testing.assert_allclose(
            opt.gd_step(np.array([2.0, -2.0]), np.array([1.0, -1.0]), 0.5),
            [1.5, -1.5],
        )

    def test_sgd(self):
        got = opt.minibatch_sgd_step(np.array([0.5]), np.array([1.0]), 0.01)
        assert got == pytest.approx(0.49)
        theta = np.array([1.0, 2.0])
        assert np.array_equal(opt.minibatch_sgd_step(theta, np.zeros(2), 0.1), theta)
        # zero step size freezes the parameters (allowed here, not in gd_step)
        assert np.array_equal(opt.minibatch_sgd_step(theta, np.ones(2), 0.0), theta)

    def test_full_batch_coincides_with_gd(self):
        u = np.array([1.0, -2.0, 0.5])
        g = np.array([0.3, 0.1, -0.8])
        a = opt.gd_step(u, g, 0.05)
        b = opt.minibatch_sgd_step(u, g, 0.05)
        assert np.array_equal(a, b)

    def test_errors(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            opt.gd_step(np.zeros(2), np.zeros(3), 0.1)
        with pytest.raises(ValueError):
            opt.gd_step(np.zeros(2), np.zeros(2), 0.0)
        with pytest.raises(ValueError):
            opt.minibatch_sgd_step(np.zeros(2), np.zeros(2), -0.1)
        with pytest.raises(ValueError, match="must be positive"):
            opt.gd_step(np.zeros(2), np.zeros(2), NAN)
        with pytest.raises(ValueError, match="must be nonnegative"):
            opt.minibatch_sgd_step(np.zeros(2), np.zeros(2), NAN)


class TestSunStepsize:
    def test_examples(self):
        assert opt.sun_stepsize(0.5, 0.5, 1.0) == pytest.approx(0.5)
        assert opt.sun_stepsize(0.0, 0.5, 2.0) == pytest.approx(0.5)
        assert opt.sun_stepsize(1.0 - 1e-12, 0.5, 1.0) == pytest.approx(0.0, abs=1e-11)

    def test_domain(self):
        with pytest.raises(ValueError):
            opt.sun_stepsize(1.0, 0.5, 1.0)
        with pytest.raises(ValueError):
            opt.sun_stepsize(0.5, 1.0, 1.0)
        with pytest.raises(ValueError):
            opt.sun_stepsize(0.5, 0.5, 0.0)


class TestPolyak:
    def test_reduces_to_gd_when_alpha_zero(self):
        state = opt.InertialState.at_rest(np.array([1.0]))
        state.u_prev = np.array([0.3])  # irrelevant at alpha = 0
        out = opt.polyak_step(state, np.array([1.0]), 0.0, 0.1)
        assert out.u == pytest.approx(0.9)
        assert out.n == 1

    def test_hand_trace(self):
        # f = u^2/2, gradient taken at u = 1
        state = opt.InertialState(
            u=np.array([1.0]), v=np.zeros(1), n=0, u_prev=np.array([0.5])
        )
        out = opt.polyak_step(state, np.array([1.0]), 0.5, 0.1)
        # y = 1 + 0.5*(1 - 0.5) = 1.25; u' = 1.25 - 0.1
        assert out.u == pytest.approx(1.15)
        assert out.u_prev == pytest.approx(1.0)

    def test_zero_inertial_difference(self):
        u0 = np.array([2.0, -1.0])
        state = opt.InertialState.at_rest(u0)
        g = np.array([0.5, 0.5])
        out = opt.polyak_step(state, g, 0.7, 0.2)
        np.testing.assert_array_equal(out.u, opt.gd_step(u0, g, 0.2))

    def test_requires_u_prev(self):
        state = opt.InertialState(u=np.zeros(2), v=np.zeros(2), n=0, u_prev=None)
        with pytest.raises(ValueError, match="u_prev"):
            opt.polyak_step(state, np.zeros(2), 0.5, 0.1)

    @pytest.mark.parametrize("beta_n", [0.0, NAN])
    def test_step_size_must_be_positive(self, beta_n):
        state = opt.InertialState.at_rest(np.zeros(2))
        with pytest.raises(ValueError, match="step size must be positive"):
            opt.polyak_step(state, np.zeros(2), 0.5, beta_n)


class TestNesterov:
    def test_velocity_hand_trace(self):
        state = opt.InertialState(u=np.array([1.0]), v=np.array([0.0]), n=0)
        out = opt.nesterov_step(
            state, lambda u: u, 0.1, opt.MomentumSchedule.constant(0.25)
        )
        assert out.v == pytest.approx(-0.1)
        assert out.u == pytest.approx(0.99)

    def test_gradient_free_coast(self):
        rng = np.random.default_rng(0)
        u, v = rng.standard_normal(3), rng.standard_normal(3)
        state = opt.InertialState(u=u.copy(), v=v.copy(), n=5)
        sch = opt.MomentumSchedule.constant(0.8)
        out = opt.nesterov_step(state, lambda _: np.zeros(3), 0.1, sch)
        np.testing.assert_allclose(out.v, 0.8 * v)
        np.testing.assert_allclose(out.u, u + 0.1 * 0.8 * v)

    def test_two_sequence_matches_velocity_from_rest(self):
        # u = u_prev corresponds to v = 0; single steps coincide
        state_a = opt.InertialState.at_rest(np.array([1.0]))
        state_b = opt.InertialState.at_rest(np.array([1.0]))
        sch = opt.MomentumSchedule.constant(0.5)
        a = opt.nesterov_step(state_a, lambda u: u, 0.1, sch, form="velocity")
        b = opt.nesterov_step(state_b, lambda u: u, 0.1, sch, form="two-sequence")
        assert a.u == pytest.approx(0.99)
        assert b.u == pytest.approx(0.99)

    def test_form_equivalence_over_100_steps(self):
        objective = make_quadratic(10, 1.0, 10.0, seed=42)
        u0 = np.random.default_rng(7).standard_normal(10)
        sv = opt.InertialState.at_rest(u0)
        st = opt.InertialState.at_rest(u0)
        worst = 0.0
        for _ in range(100):
            sv = opt.nesterov_step(sv, objective.gradient, 0.1, SCH_NM1, "velocity")
            st = opt.nesterov_step(st, objective.gradient, 0.1, SCH_NM1, "two-sequence")
            worst = max(worst, np.max(np.abs(sv.u - st.u)))
        assert worst <= 1e-12

    def test_errors(self):
        state = opt.InertialState(u=np.zeros(2), v=np.zeros(2), n=0, u_prev=None)
        with pytest.raises(ValueError, match="u_prev"):
            opt.nesterov_step(state, lambda u: u, 0.1, SCH_N3, form="two-sequence")
        with pytest.raises(ValueError, match="form"):
            opt.nesterov_step(state, lambda u: u, 0.1, SCH_N3, form="magic")
        with pytest.raises(ValueError, match="dimension mismatch"):
            opt.nesterov_step(state, lambda u: np.zeros(3), 0.1, SCH_N3)
        with pytest.raises(ValueError, match="step size must be positive"):
            opt.nesterov_step(state, lambda u: u, NAN, SCH_N3)


class TestSsa1:
    def test_hand_trace(self):
        state = opt.InertialState(u=np.array([1.0]), v=np.array([0.0]), n=1)
        hp = opt.SplitHyperParams(h=0.1, k=2.0)
        out = opt.ssa1_step(state, lambda u: u, hp, SCH_N3)  # beta_1 = 0.25
        assert out.v == pytest.approx(-0.00625, abs=1e-12)
        assert out.u == pytest.approx(0.99, abs=1e-12)
        assert out.n == 2

    def test_zero_velocity_collapses_to_squared_step(self):
        rng = np.random.default_rng(3)
        u = rng.standard_normal(4)
        state = opt.InertialState(u=u.copy(), v=np.zeros(4), n=9)
        hp = opt.SplitHyperParams(h=0.2, k=2.0)
        grad = rng.standard_normal(4)
        out = opt.ssa1_step(state, lambda _: grad, hp, SCH_N3)
        np.testing.assert_allclose(out.u, u - 0.2**2 * grad)

    def test_gradient_free_coast(self):
        rng = np.random.default_rng(4)
        u, v = rng.standard_normal(3), rng.standard_normal(3)
        state = opt.InertialState(u=u.copy(), v=v.copy(), n=2)
        hp = opt.SplitHyperParams(h=0.1, k=2.0)
        beta = 2 / 5
        out = opt.ssa1_step(state, lambda _: np.zeros(3), hp, SCH_N3)
        np.testing.assert_allclose(out.v, beta**2 * (1 - 0.1 * beta) * v)
        np.testing.assert_allclose(out.u, u + 0.1 * beta**2 * (1 - 0.1 * beta) * v)

    def test_plain_drift_variant(self):
        # the pseudocode form drops the beta^2 factor on the velocity carry
        rng = np.random.default_rng(5)
        u, v = rng.standard_normal(3), rng.standard_normal(3)
        grad = rng.standard_normal(3)
        state = opt.InertialState(u=u.copy(), v=v.copy(), n=2)
        hp = opt.SplitHyperParams(h=0.1, k=2.0)
        out = opt.ssa1_step(state, lambda _: grad, hp, SCH_N3, plain_drift=True)
        beta = 2 / 5
        np.testing.assert_allclose(out.u, u + 0.1 * (1 - 0.1 * beta) * v - 0.01 * grad)
        # velocity update unchanged between variants
        np.testing.assert_allclose(out.v, beta**2 * ((1 - 0.1 * beta) * v - 0.1 * grad))


class TestSsa2:
    def test_zero_velocity_ignores_gradient(self):
        state = opt.InertialState(u=np.array([1.0]), v=np.array([0.0]), n=3)
        hp = opt.SplitHyperParams(h=0.1, k=2.0)
        out = opt.ssa2_step(state, lambda _: np.array([123.0]), hp, SCH_N3)
        assert out.u == pytest.approx(1.0)

    def test_hand_trace(self):
        state = opt.InertialState(u=np.array([1.0]), v=np.array([1.0]), n=0)
        hp = opt.SplitHyperParams(h=0.1, k=2.0)
        sch = opt.MomentumSchedule.constant(0.25)
        out = opt.ssa2_step(state, lambda u: u, hp, sch)
        # y = 1.025; v' = 0.0625*(0.975 - 0.1*1.025); u' = 1 + 0.1*0.975
        assert out.v == pytest.approx(0.0625 * (0.975 - 0.1025), abs=1e-12)
        assert out.u == pytest.approx(1.0975, abs=1e-12)

    def test_gradient_free_coast(self):
        rng = np.random.default_rng(6)
        u, v = rng.standard_normal(3), rng.standard_normal(3)
        state = opt.InertialState(u=u.copy(), v=v.copy(), n=2)
        hp = opt.SplitHyperParams(h=0.1, k=2.0)
        beta = 2 / 5
        out = opt.ssa2_step(state, lambda _: np.zeros(3), hp, SCH_N3)
        np.testing.assert_allclose(out.v, beta**2 * (1 - 0.1 * beta) * v)
        np.testing.assert_allclose(out.u, u + 0.1 * (1 - 0.1 * beta) * v)

    def test_division_free_form_at_beta_zero(self):
        # n = 0 gives beta = 0 on the ratio schedules; the update must not blow up
        state = opt.InertialState(u=np.array([2.0]), v=np.array([1.0]), n=0)
        hp = opt.SplitHyperParams(h=0.1, k=2.0)
        out = opt.ssa2_step(state, lambda u: u, hp, SCH_N3)
        assert np.all(np.isfinite(out.u)) and np.all(np.isfinite(out.v))
        assert out.u == pytest.approx(2.0 + 0.1 * 1.0)


def _trace(step_fn, state, objective, hp, schedule, steps):
    """Iterate a splitting step recording (n, beta, u, y, grad(y)) per visit."""
    hist = []
    for _ in range(steps):
        beta = opt.momentum_coefficient(state.n, schedule)
        y = state.u + hp.h * beta * state.v
        hist.append((state.n, beta, state.u.copy(), y, objective.gradient(y)))
        state = step_fn(state, objective.gradient, hp, schedule)
    return hist


class TestMultiStepIdentities:
    """Recurrences linking y_n to (u_n, u_{n-1}, y_{n-1}) along trajectories."""

    @pytest.mark.parametrize("k", [0.0, 2.0])
    def test_ssa1(self, k):
        objective = make_quadratic(5, 1.0, 10.0, seed=3)
        hp = opt.SplitHyperParams(h=0.1, k=k)
        u0 = np.random.default_rng(5).standard_normal(5)
        # start at n = 1: the recurrence divides by beta_{n-1}
        hist = _trace(
            opt.ssa1_step, opt.InertialState.at_rest(u0, n=1), objective, hp, SCH_N3, 51
        )
        h = hp.h
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
        hp = opt.SplitHyperParams(h=0.1, k=k)
        u0 = np.random.default_rng(6).standard_normal(5)
        hist = _trace(
            opt.ssa2_step, opt.InertialState.at_rest(u0, n=1), objective, hp, SCH_N3, 51
        )
        h = hp.h
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
        hp = opt.SplitHyperParams(h=h, k=0.0)
        u = np.random.default_rng(12).standard_normal(3)
        v = np.random.default_rng(13).standard_normal(3)
        direct = opt.InertialState(u=u.copy(), v=v.copy(), n=1)
        n = 1
        worst = 0.0
        for _ in range(20):
            beta = opt.momentum_coefficient(n, SCH_N3)
            y = u + h * beta * v
            grad_y = objective.gradient(y)
            u_half, v_half = opt.damping_substep(u, v, h, beta)
            u, v = opt.gradient_substep_perturbed(u_half, v_half, grad_y, h, beta)
            n += 1
            direct = opt.ssa1_step(direct, objective.gradient, hp, SCH_N3)
            worst = max(
                worst, np.max(np.abs(u - direct.u)), np.max(np.abs(v - direct.v))
            )
        assert worst <= 1e-12

    def test_perturbed_substep_rejects_zero_beta(self):
        with pytest.raises(ValueError):
            opt.gradient_substep_perturbed(np.zeros(2), np.zeros(2), np.zeros(2), 0.1, 0.0)


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
        hp = opt.SplitHyperParams(h=0.05, k=2.0)
        steps = {
            "nesterov": lambda s, g: opt.nesterov_step(s, g, 0.05, SCH_N3),
            "ssa1": lambda s, g: opt.ssa1_step(s, g, hp, SCH_N3),
            "ssa2": lambda s, g: opt.ssa2_step(s, g, hp, SCH_N3),
        }
        for name, step in steps.items():
            counter = CountingGradient(objective.gradient)
            state = opt.InertialState.at_rest(np.ones(4))
            for _ in range(10):
                state = step(state, counter)
            assert counter.calls == 10, name

    def test_determinism(self):
        objective = make_quadratic(4, 1.0, 4.0, seed=22)
        hp = opt.SplitHyperParams(h=0.05, k=2.0)

        def run():
            state = opt.InertialState.at_rest(np.ones(4))
            for _ in range(25):
                state = opt.ssa1_step(state, objective.gradient, hp, SCH_N3)
            return state.u

        a, b = run(), run()
        assert np.array_equal(a, b)

    def test_counter_advances_by_one(self):
        state = opt.InertialState.at_rest(np.ones(2), n=7)
        hp = opt.SplitHyperParams(h=0.1)
        out = opt.ssa2_step(state, lambda u: u, hp, SCH_N3)
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
    """grad f(y) = a * y + b with a componentwise curvature in [0, 4]."""
    a, b = draw(vectors(dim, 0.0, 4.0)), draw(vectors(dim))
    return lambda y: a * y + b


@st.composite
def inertial_cases(draw):
    dim = draw(st.integers(1, 6))
    state = opt.InertialState(
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
           kind=st.sampled_from(["scaled", "plain", "ssa2"]))
    def test_splitting_steps(self, case, k, kind):
        state, grad_fn, h, schedule = case
        beta = opt.momentum_coefficient(state.n, schedule)
        y = state.u + h * beta * state.v
        grad_y = np.asarray(grad_fn(y), dtype=float)
        v_next = beta**k * ((1.0 - h * beta) * state.v - h * grad_y)
        if kind == "ssa2":
            u_next = state.u + h * (1.0 - h * beta) * state.v
        else:
            if kind == "plain":
                drift = h * (1.0 - h * beta) * state.v
            else:
                drift = beta * (1.0 - h * beta) * (y - state.u)
            u_next = state.u + drift - h * h * grad_y

        hp = opt.SplitHyperParams(h=h, k=k)
        if kind == "ssa2":
            out = opt.ssa2_step(state, grad_fn, hp, schedule)
        else:
            out = opt.ssa1_step(state, grad_fn, hp, schedule, plain_drift=kind == "plain")
        assert same_bytes(out.u, u_next) and same_bytes(out.v, v_next)
        assert same_bytes(out.u_prev, state.u) and out.n == state.n + 1

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
        state = ad.AdaptiveState(
            theta=inertial.u, acc_grad_sq=data.draw(vectors(dim, 0.0, 10.0)),
            acc_update_sq=data.draw(vectors(dim, 0.0, 10.0)), mom=np.zeros(dim),
            v=inertial.v, z=inertial.u_prev, n=inertial.n,
        )
        beta = opt.momentum_coefficient(state.n, schedule)
        z_next = state.theta + h * beta * state.v
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
        theta_next = (
            state.theta
            + beta * (1.0 - h_n * beta) * (z_next - state.theta)
            - h_n**2 * grad_upd
        )

        hp = ad.AdaptiveHyperParams(h=h, gamma=gamma, eps=eps, k=k)
        out = ad.ssa1_ada_step(state, grad_fn, hp, schedule, variant)
        for got, want in [(out.theta, theta_next), (out.v, v_next), (out.z, z_next),
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
        states = {form: opt.InertialState.at_rest(u0) for form in opt.NESTEROV_FORMS}
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
