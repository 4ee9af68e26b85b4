"""Unit tests for the adaptive step rules."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import splitopt.optimizers as opt
from splitopt.optimizers import State
from splitopt.adaptive import (
    ADADELTA_FIELDS,
    ADAGRAD_FIELDS,
    ADAM_FIELDS,
    RMSPROP_FIELDS,
    SSA1_ADA_FIELDS,
    adadelta_step,
    adagrad_step,
    adam_step,
    rmsprop_step,
    ssa1_ada_step,
)

SCH_N3 = opt.MomentumSchedule(opt.RATIO_N_OVER_N3)

# the hyper-parameters each adaptive rule reads, and for each an
# out-of-range value with the start of the message it raises
READS = {
    adagrad_step: ("h", "eps"),
    adadelta_step: ("h", "gamma", "eps"),
    rmsprop_step: ("h", "gamma", "eps"),
    adam_step: ("h", "eps", "beta1", "beta2"),
    ssa1_ada_step: ("h", "gamma", "eps", "k"),
}
BAD_VALUES = {
    "h": (0.0, "step size must be positive"),
    "gamma": (1.0, r"decay rate must lie in \(0, 1\)"),
    "eps": (0.0, "eps must be positive"),
    "beta1": (1.0, r"Adam decay rates must lie in \(0, 1\)"),
    "beta2": (1.0, r"Adam decay rates must lie in \(0, 1\)"),
    "k": (-1.0, "velocity exponent must be nonnegative"),
}


class TestAdagrad:
    def test_first_step(self):
        hp = dict(h=0.1, eps=1e-8)
        state = State.start(np.zeros(1), ADAGRAD_FIELDS)
        adagrad_step(state, lambda _: np.array([1.0]), **hp)
        assert state.u[0] == pytest.approx(-0.1 / (1.0 + 1e-8), rel=1e-12)

    def test_zero_gradient(self):
        hp = dict(h=0.1, eps=1e-8)
        state = State.start(np.array([2.0, -3.0]), ADAGRAD_FIELDS)
        adagrad_step(state, lambda _: np.zeros(2), **hp)
        np.testing.assert_array_equal(state.u, [2.0, -3.0])
        np.testing.assert_array_equal(state.acc_grad_sq, np.zeros(2))

    def test_second_step_accumulates(self):
        hp = dict(h=0.1, eps=1e-8)
        state = State.start(np.zeros(1), ADAGRAD_FIELDS)
        adagrad_step(state, lambda _: np.array([1.0]), **hp)
        before = state.u.copy()
        adagrad_step(state, lambda _: np.array([1.0]), **hp)
        assert state.acc_grad_sq[0] == pytest.approx(2.0)
        delta = state.u[0] - before[0]
        assert delta == pytest.approx(-0.1 / (math.sqrt(2.0) + 1e-8), rel=1e-12)


class TestAdadelta:
    def test_first_step_trace(self):
        hp = dict(h=1.0, gamma=0.9, eps=1e-6)
        state = State.start(np.zeros(1), ADADELTA_FIELDS)
        adadelta_step(state, lambda _: np.array([1.0]), **hp)
        acc_g = 0.1
        delta = -math.sqrt(1e-6) / math.sqrt(acc_g + 1e-6)
        assert state.acc_grad_sq[0] == pytest.approx(acc_g, rel=1e-15)
        assert state.u[0] == pytest.approx(delta, rel=1e-12)
        assert state.acc_update_sq[0] == pytest.approx(0.1 * delta**2, rel=1e-12)

    def test_zero_gradient_decays_accumulators(self):
        hp = dict(h=1.0, gamma=0.9, eps=1e-6)
        state = State.start(np.array([1.0]), ADADELTA_FIELDS)
        state.acc_grad_sq[:] = 0.4
        state.acc_update_sq[:] = 0.2
        adadelta_step(state, lambda _: np.zeros(1), **hp)
        assert state.u[0] == pytest.approx(1.0)
        assert state.acc_grad_sq[0] == pytest.approx(0.36)
        assert state.acc_update_sq[0] == pytest.approx(0.18)

    def test_step_scale_free_at_fixed_point(self):
        # after many identical gradients the step magnitude is nearly
        # independent of the gradient scale (up to eps effects)
        hp = dict(h=1.0, gamma=0.9, eps=1e-6)

        def final_step(c):
            state = State.start(np.zeros(1), ADADELTA_FIELDS)
            prev = state.u.copy()
            for _ in range(10_000):
                prev = state.u.copy()
                adadelta_step(state, lambda _: np.array([c]), **hp)
            return abs(state.u[0] - prev[0])

        ratio = final_step(1.0) / final_step(100.0)
        assert ratio == pytest.approx(1.0, rel=1e-2)


class TestRmsprop:
    def test_first_step(self):
        hp = dict(h=0.001, gamma=0.9, eps=1e-8)
        state = State.start(np.zeros(1), RMSPROP_FIELDS)
        rmsprop_step(state, lambda _: np.array([1.0]), **hp)
        assert state.u[0] == pytest.approx(-0.001 / math.sqrt(0.1 + 1e-8), rel=1e-12)

    def test_zero_gradient(self):
        hp = dict(h=0.001)
        state = State.start(np.array([5.0]), RMSPROP_FIELDS)
        rmsprop_step(state, lambda _: np.zeros(1), **hp)
        assert state.u[0] == pytest.approx(5.0)

    def test_memoryless_limit(self):
        # gamma -> 0 reduces to -h*g/sqrt(g^2 + eps), about -h*sign(g)
        hp = dict(h=0.01, gamma=1e-12, eps=1e-8)
        g = np.array([3.0, -0.5])
        state = State.start(np.zeros(2), RMSPROP_FIELDS)
        rmsprop_step(state, lambda _: g, **hp)
        expected = -0.01 * g / np.sqrt(g**2 + 1e-8)
        np.testing.assert_allclose(state.u, expected, rtol=1e-9)
        np.testing.assert_allclose(state.u, -0.01 * np.sign(g), rtol=1e-6)

    def test_matches_adadelta_recursion_with_fixed_numerator(self):
        # same E[g^2] recursion; replacing the adadelta numerator by h
        # reproduces the rmsprop step
        hp = dict(h=0.005, gamma=0.9, eps=1e-8)
        rng = np.random.default_rng(17)
        rms_state = State.start(np.zeros(4), RMSPROP_FIELDS)
        dd_state = State.start(np.zeros(4), ADADELTA_FIELDS)
        for _ in range(50):
            g = rng.standard_normal(4)
            theta_before = rms_state.u.copy()
            rmsprop_step(rms_state, lambda _: g, **hp)
            adadelta_step(dd_state, lambda _: g, **hp)
            np.testing.assert_allclose(
                rms_state.acc_grad_sq, dd_state.acc_grad_sq, rtol=0, atol=1e-17
            )
            manual = theta_before - hp["h"] * g / np.sqrt(dd_state.acc_grad_sq + hp["eps"])
            np.testing.assert_allclose(rms_state.u, manual, rtol=0, atol=1e-12)


class TestAdam:
    def test_first_step(self):
        hp = dict(h=0.001, eps=1e-8)
        state = State.start(np.zeros(1), ADAM_FIELDS)
        adam_step(state, lambda _: np.array([1.0]), **hp)
        assert state.n == 1
        assert state.u[0] == pytest.approx(-0.001 / (1.0 + 1e-8), rel=1e-12)

    def test_first_moment_correction_cancels(self):
        for beta1 in (0.5, 0.9, 0.99):
            hp = dict(h=0.001, beta1=beta1)
            g = np.array([0.37])
            state = State.start(np.zeros(1), ADAM_FIELDS)
            adam_step(state, lambda _: g, **hp)
            m_hat = state.mom / (1 - beta1)
            assert m_hat[0] == pytest.approx(g[0], rel=1e-15)

    def test_constant_gradient_keeps_corrected_moment(self):
        hp = dict(h=0.001)
        g = np.array([0.3, -1.7, 0.123456789])
        state = State.start(np.zeros(3), ADAM_FIELDS)
        for _ in range(100):
            adam_step(state, lambda _: g, **hp)
            m_hat = state.mom / (1 - 0.9**state.n)  # beta1 at its default
            np.testing.assert_allclose(m_hat, g, rtol=1e-14)

    def test_zero_gradient_from_zero_state(self):
        hp = dict(h=0.001)
        state = State.start(np.array([4.0]), ADAM_FIELDS)
        adam_step(state, lambda _: np.zeros(1), **hp)
        assert state.u[0] == pytest.approx(4.0)


class TestSsa1Ada:
    def test_gradient_free_trace(self):
        hp = dict(h=0.5, gamma=0.9, eps=1e-6, k=2.0)
        rng = np.random.default_rng(2)
        theta, v = rng.standard_normal(3), rng.standard_normal(3)
        state = State.start(theta, SSA1_ADA_FIELDS, n=4)
        state.v[...] = v
        beta = 4 / 7
        ssa1_ada_step(state, lambda _: np.zeros(3), schedule=SCH_N3, **hp)
        # zero accumulators keep h_n = h * sqrt(eps)/sqrt(eps) = h
        np.testing.assert_allclose(state.v, beta**2 * (1 - 0.5 * beta) * v)
        np.testing.assert_allclose(
            state.u, theta + 0.5 * beta**2 * (1 - 0.5 * beta) * v
        )

    def test_hand_trace_as_written(self):
        hp = dict(h=1.0, gamma=0.9, eps=1e-6, k=2.0)
        state = State.start(np.array([1.0]), SSA1_ADA_FIELDS, n=1)  # beta = 0.25
        ssa1_ada_step(state, lambda u: u, schedule=SCH_N3, variant="as-written", **hp)
        acc_g = 0.1
        h_n = 1.0 * math.sqrt(1e-6) / math.sqrt(acc_g + 1e-6)
        assert state.z[0] == pytest.approx(1.0)
        assert state.v[0] == pytest.approx(0.25**2 * (-h_n), rel=1e-12)
        assert state.u[0] == pytest.approx(1.0 - h_n**2, rel=1e-12)
        assert state.acc_update_sq[0] == pytest.approx(0.1 * h_n**2, rel=1e-12)

    def test_variants_coincide_when_velocity_zero(self):
        hp = dict(h=1.0, gamma=0.9, eps=1e-6, k=2.0)
        grad = lambda u: 2.0 * u
        outs = []
        for variant in ("as-written", "z-first"):
            state = State.start(np.array([0.7, -0.2]), SSA1_ADA_FIELDS, n=3)
            ssa1_ada_step(state, grad, schedule=SCH_N3, variant=variant, **hp)
            outs.append(state)
        np.testing.assert_array_equal(outs[0].u, outs[1].u)
        np.testing.assert_array_equal(outs[0].v, outs[1].v)
        np.testing.assert_array_equal(outs[0].z, outs[1].z)

    def test_gradient_evaluation_counts(self):
        hp = dict(h=1.0, gamma=0.9, eps=1e-6, k=2.0)
        for variant, expected in (("as-written", 2), ("z-first", 1)):
            calls = 0

            def grad(u):
                nonlocal calls
                calls += 1
                return u

            state = State.start(np.array([1.0, 2.0]), SSA1_ADA_FIELDS)
            state.v[:] = 0.3
            ssa1_ada_step(state, grad, schedule=SCH_N3, variant=variant, **hp)
            assert calls == expected, variant

    def test_degenerates_to_ssa1_when_rms_ratio_is_one(self):
        # force RMS[dz]_prev == RMS[grad]_n so h_n == h, then compare
        # against the non-adaptive splitting step at the same point
        h, gamma, eps = 0.1, 0.9, 1e-6
        hp = dict(h=h, gamma=gamma, eps=eps, k=2.0)
        rng = np.random.default_rng(9)
        theta, v = rng.standard_normal(4), rng.standard_normal(4)
        acc_g = rng.random(4)
        n = 5
        grad = lambda u: 3.0 * u - 1.0

        z_next = theta + h * opt.momentum_coefficient(n, SCH_N3) * v
        acc_after = gamma * acc_g + (1 - gamma) * grad(z_next) ** 2

        adaptive = State.start(theta, SSA1_ADA_FIELDS, n=n)
        adaptive.v[...] = v
        adaptive.acc_grad_sq[...] = acc_g
        adaptive.acc_update_sq[...] = acc_after  # matches the post-update E[g^2]
        ssa1_ada_step(adaptive, grad, schedule=SCH_N3, variant="z-first", **hp)

        plain = State.start(theta, opt.SPLIT_FIELDS, n=n)
        plain.v[...] = v
        opt.ssa1_step(plain, grad, h, SCH_N3, k=2.0)
        assert np.max(np.abs(adaptive.u - plain.u)) <= 1e-12
        assert np.max(np.abs(adaptive.v - plain.v)) <= 1e-12

    @settings(derandomize=True, deadline=None, database=None, max_examples=300)
    @given(
        size=st.integers(1, 6), data=st.data(), n=st.integers(0, 1000),
        h=st.floats(1e-4, 1.0), gamma=st.floats(0.01, 0.99),
        eps=st.floats(1e-10, 1e-2), k=st.floats(0.0, 4.0),
    )
    def test_z_first_is_ssa1_when_rms_ratio_is_one(self, size, data, n, h, gamma, eps, k):
        # Bounded states: 0 or a magnitude in [1e-6, 10], so nothing underflows.
        bounded = st.one_of(st.just(0.0), st.floats(1e-6, 10.0), st.floats(-10.0, -1e-6))
        u, v, slope, shift = (data.draw(hnp.arrays(np.float64, size, elements=bounded))
                              for _ in range(4))
        acc_g = data.draw(hnp.arrays(np.float64, size, elements=st.floats(0.0, 10.0)))
        grad = lambda x: slope * x - shift
        beta = opt.momentum_coefficient(n, SCH_N3)
        z = v * (h * beta)  # the look-ahead point as _look_ahead forms it
        z += u
        g = grad(z)
        # E[dz^2]_prev is the E[g^2] this step computes, built in
        # _running_average's own order, so both RMS values are one float s
        acc_d = g * g
        acc_d *= 1.0 - gamma
        acc_d += acc_g * gamma
        s = np.sqrt(acc_d + eps)
        h_n = s * h / s

        adaptive = State.start(u, SSA1_ADA_FIELDS, n=n)
        adaptive.v[...], adaptive.acc_grad_sq[...], adaptive.acc_update_sq[...] = v, acc_g, acc_d
        hp = dict(h=h, gamma=gamma, eps=eps, k=k)
        ssa1_ada_step(adaptive, grad, schedule=SCH_N3, variant="z-first", **hp)
        plain = State.start(u, opt.SPLIT_FIELDS, n=n)
        plain.v[...] = v
        opt.ssa1_step(plain, grad, h, SCH_N3, k=k)
        assert adaptive.acc_grad_sq.tobytes() == acc_d.tobytes()

        # Where h_n == h, the two rules run the same operations on the same
        # floats.
        same = h_n == h
        assert adaptive.u[same].tobytes() == plain.u[same].tobytes()
        assert adaptive.v[same].tobytes() == plain.v[same].tobytes()
        # Elsewhere the one remaining rounding, h_n = fl(fl(s*h)/s), leaves
        # |h_n - h| <= 2**-52 * h.  With h <= 1 and 0 <= beta < 1, that moves
        # the exact update by at most 2**-52 * h * (beta^2 |z-u| + 2h |g|) in
        # u and 2**-52 * h * beta^k (beta |v| + |g|) in v, and each rule's own
        # roundings stay within 2**-53 * (5 beta |z-u| + 2|u| + 3 h^2 |g|) and
        # 2**-53 * beta^k * (5|v| + 3h |g|).  Summed over both rules that is
        # under 16 units of 2**-53 of each term's magnitude:
        t = np.abs(z - u)
        assert np.all(np.abs(adaptive.u - plain.u)
                      <= 2.0**-49 * (np.abs(u) + beta * t + h * h * np.abs(g)))
        assert np.all(np.abs(adaptive.v - plain.v)
                      <= 2.0**-49 * beta**k * (np.abs(v) + h * np.abs(g)))


class TestStateDiscipline:
    def test_accumulators_stay_nonnegative(self):
        hp = dict(h=0.01, eps=1e-8)
        decay = dict(hp, gamma=0.9)
        rng = np.random.default_rng(33)
        steps = {
            "adagrad": (ADAGRAD_FIELDS, lambda s, g: adagrad_step(s, lambda _: g, **hp)),
            "adadelta": (ADADELTA_FIELDS, lambda s, g: adadelta_step(s, lambda _: g, **decay)),
            "rmsprop": (RMSPROP_FIELDS, lambda s, g: rmsprop_step(s, lambda _: g, **decay)),
            "adam": (ADAM_FIELDS, lambda s, g: adam_step(s, lambda _: g, **hp)),
            "ssa1-ada": (SSA1_ADA_FIELDS,
                         lambda s, g: ssa1_ada_step(s, lambda _: g, schedule=SCH_N3, k=2.0, **decay)),
        }
        for name, (fields, step) in steps.items():
            accumulators = [acc for acc in ("acc_grad_sq", "acc_update_sq") if acc in fields]
            state = State.start(np.zeros(3), fields)
            for _ in range(10_000):
                step(state, rng.standard_normal(3) * 10.0)
                for acc in accumulators:
                    assert np.all(getattr(state, acc) >= 0.0), (name, acc)

    def test_dimension_mismatch(self):
        hp = dict(h=0.01)
        for step, fields in ((adagrad_step, ADAGRAD_FIELDS), (adadelta_step, ADADELTA_FIELDS),
                             (rmsprop_step, RMSPROP_FIELDS), (adam_step, ADAM_FIELDS)):
            with pytest.raises(ValueError, match="dimension mismatch"):
                step(State.start(np.zeros(3), fields), lambda _: np.zeros(4), **hp)
        with pytest.raises(ValueError, match="dimension mismatch"):
            ssa1_ada_step(State.start(np.zeros(3), SSA1_ADA_FIELDS), lambda _: np.zeros(4),
                          schedule=SCH_N3, **hp)

    @pytest.mark.parametrize("step", list(READS), ids=lambda step: step.__name__)
    def test_hyperparameter_validation(self, step):
        # every value the rule reads, NaN included, raises before the state
        # check (this state lacks every accumulator) and before the oracle
        # (None) is called
        state = State(u=np.zeros(2))
        schedule = {"schedule": SCH_N3} if step is ssa1_ada_step else {}
        for name in READS[step]:
            bad, message = BAD_VALUES[name]
            for value in (bad, math.nan):
                with pytest.raises(ValueError, match=message):
                    step(state, None, **schedule, **{"h": 0.1, name: value})

    def test_unknown_variant(self):
        # the rule is the one check of a variant: it names the choices and
        # raises before it calls the oracle
        def oracle(u):
            raise AssertionError("the oracle was called for an unknown variant")

        message = "unknown variant 'bogus'; choose from ('as-written', 'z-first')"
        with pytest.raises(ValueError, match=re.escape(message)):
            ssa1_ada_step(
                State.start(np.zeros(2), SSA1_ADA_FIELDS), oracle, 0.1, SCH_N3, variant="bogus"
            )
