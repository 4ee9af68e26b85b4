"""Unit tests for the operator-splitting and ODE machinery."""

import re

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from splitopt.splitting import (
    DampingSchedule,
    DivergenceError,
    LinearSplitSystem,
    SecondOrderSystem,
    damping_delta,
    integrate_second_order,
    lie_split_step,
    matrix_exp,
    spectral_norm,
    splitting_defect,
    ssa1_damping_coefficient,
    strang_split_step,
)

NILPOTENT_A = np.array([[0.0, 1.0], [0.0, 0.0]])
NILPOTENT_B = np.array([[0.0, 0.0], [1.0, 0.0]])


class TestMatrixExp:
    def test_zero_matrix(self):
        np.testing.assert_array_equal(matrix_exp(np.zeros((3, 3))), np.eye(3))

    def test_diagonal(self):
        M = np.diag([1.5, -2.0])
        np.testing.assert_allclose(
            matrix_exp(M), np.diag(np.exp([1.5, -2.0])), rtol=1e-14
        )

    def test_nilpotent_series_terminates(self):
        np.testing.assert_array_equal(
            matrix_exp(NILPOTENT_A), np.eye(2) + NILPOTENT_A
        )

    def test_against_scipy_oracle(self):
        rng = np.random.default_rng(1)
        for dim in (2, 4, 7):
            for scale in (0.1, 1.0, 3.0):
                M = rng.standard_normal((dim, dim)) * scale
                if np.linalg.norm(M, 2) > 10:
                    M *= 10 / np.linalg.norm(M, 2)
                ours = matrix_exp(M)
                ref = scipy.linalg.expm(M)
                err = np.max(np.abs(ours - ref)) / np.max(np.abs(ref))
                assert err <= 1e-13

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            matrix_exp(np.zeros((2, 3)))
        with pytest.raises(ValueError):
            matrix_exp(np.array([[np.inf, 0.0], [0.0, 0.0]]))

    @pytest.mark.parametrize("shape", [(0, 0), (3, 0, 0)])
    def test_rejects_an_empty_matrix(self, shape):
        with pytest.raises(ValueError, match=rf"non-empty, got shape {re.escape(str(shape))}"):
            matrix_exp(np.zeros(shape))


class TestSpectralNorm:
    def test_matches_svd_norm(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            M = rng.standard_normal((rng.integers(2, 6), rng.integers(2, 6)))
            assert spectral_norm(M) == pytest.approx(np.linalg.norm(M, 2), rel=1e-10)

    def test_zero_matrix(self):
        assert spectral_norm(np.zeros((3, 3))) == 0.0

    def test_near_degenerate_defect_matrix(self):
        # the splitting study's defect at h = 0.0125: the top two singular
        # values agree to about 3e-5, where power iteration stalls
        h = 0.0125
        D = matrix_exp((NILPOTENT_A + NILPOTENT_B) * h) - matrix_exp(
            NILPOTENT_A * h
        ) @ matrix_exp(NILPOTENT_B * h)
        top = np.linalg.svd(D, compute_uv=False)[0]
        assert spectral_norm(D) == pytest.approx(top, rel=1e-12)


class TestFlows:
    @pytest.mark.parametrize("step", [lie_split_step, strang_split_step])
    def test_warmed_system_steps_like_a_fresh_one(self, step):
        warm = LinearSplitSystem(NILPOTENT_A, NILPOTENT_B)
        x = np.array([1.0, -0.5])
        for h in (0.1, 0.1, 0.025, 0.1, 0.025, 0.025, 0.3):
            fresh = step(LinearSplitSystem(NILPOTENT_A, NILPOTENT_B), x, h)
            assert step(warm, x, h).tobytes() == fresh.tobytes()

    def test_flows_and_matrices_are_read_only(self):
        sys_ = LinearSplitSystem(NILPOTENT_A, NILPOTENT_B)
        for array in (sys_.flow("A", 0.1), sys_.flow("B", 0.1), sys_.A, sys_.B):
            with pytest.raises(ValueError, match="read-only"):
                array[0, 0] = 2.0
        with pytest.raises(ValueError, match="operator"):
            sys_.flow("C", 0.1)

    def test_caller_changes_after_construction_do_not_reach_the_system(self):
        A, B = NILPOTENT_A.copy(), NILPOTENT_B.copy()
        sys_ = LinearSplitSystem(A, B)
        x = np.array([1.0, 0.5])
        before = lie_split_step(sys_, x, 0.2)
        A[0, 1], B[1, 0] = 5.0, -3.0
        assert lie_split_step(sys_, x, 0.2).tobytes() == before.tobytes()
        assert lie_split_step(sys_, x, 0.1).tobytes() == lie_split_step(
            LinearSplitSystem(NILPOTENT_A, NILPOTENT_B), x, 0.1
        ).tobytes()


class TestLieSplit:
    def test_zero_step_is_identity(self):
        sys_ = LinearSplitSystem(NILPOTENT_A, NILPOTENT_B)
        x = np.array([1.0, -2.0])
        np.testing.assert_allclose(lie_split_step(sys_, x, 0.0), x)

    def test_commuting_diagonal_pair_is_exact(self):
        sys_ = LinearSplitSystem(np.diag([1.0, -0.5]), np.diag([0.3, 2.0]))
        x = np.array([1.0, 1.0])
        for h in (0.1, 0.5, 1.0):
            exact = matrix_exp((sys_.A + sys_.B) * h) @ x
            np.testing.assert_allclose(lie_split_step(sys_, x, h), exact, rtol=1e-13)

    def test_noncommuting_pair_matches_dense_product(self):
        sys_ = LinearSplitSystem(NILPOTENT_A, NILPOTENT_B)
        x = np.array([1.0, 0.0])
        h = 0.1
        expected = scipy.linalg.expm(NILPOTENT_B * h) @ scipy.linalg.expm(
            NILPOTENT_A * h
        ) @ x
        np.testing.assert_allclose(lie_split_step(sys_, x, h), expected, rtol=1e-13)

    def test_shape_checks(self):
        sys_ = LinearSplitSystem(NILPOTENT_A, NILPOTENT_B)
        with pytest.raises(ValueError, match="dimension mismatch"):
            lie_split_step(sys_, np.zeros(3), 0.1)
        with pytest.raises(ValueError):
            LinearSplitSystem(np.zeros((2, 2)), np.zeros((3, 3)))
        with pytest.raises(ValueError):
            LinearSplitSystem(np.zeros((2, 3)), np.zeros((2, 3)))
        with pytest.raises(ValueError, match=r"A must be square and non-empty, got shape \(0, 0\)"):
            LinearSplitSystem(np.zeros((0, 0)), np.zeros((0, 0)))

    @pytest.mark.parametrize("step", [lie_split_step, strang_split_step])
    def test_steps_reject_bad_state_and_negative_step(self, step):
        sys_ = LinearSplitSystem(NILPOTENT_A, NILPOTENT_B)
        for state in (np.zeros(3), 1.0):
            with pytest.raises(ValueError, match="dimension mismatch"):
                step(sys_, state, 0.1)
        # matmul would read a third axis as a stack of matrices
        with pytest.raises(ValueError, match=r"vector or a matrix, got shape \(2, 2, 2\)"):
            step(sys_, np.zeros((2, 2, 2)), 0.1)
        for h in (-0.1, float("nan")):
            with pytest.raises(ValueError, match="time step must be nonnegative"):
                step(sys_, np.zeros(2), h)


class TestSplittingDefect:
    @pytest.mark.parametrize("h", [-0.1, float("nan")])
    def test_rejects_negative_or_nan_step(self, h):
        sys_ = LinearSplitSystem(NILPOTENT_A, NILPOTENT_B)
        with pytest.raises(ValueError, match="time step must be nonnegative"):
            splitting_defect(sys_, h)

    def test_commuting_pair_has_no_defect(self):
        sys_ = LinearSplitSystem(np.diag([1.0, 2.0]), np.diag([-0.5, 0.25]))
        for h in (0.05, 0.1, 0.5, 1.0):
            assert splitting_defect(sys_, h) <= 1e-12

    def test_zero_step(self):
        sys_ = LinearSplitSystem(NILPOTENT_A, NILPOTENT_B)
        assert splitting_defect(sys_, 0.0) == 0.0

    def test_leading_term_of_noncommuting_pair(self):
        # defect ~ (h^2/2) * norm([A, B]) with norm([A, B]) = 1 here
        sys_ = LinearSplitSystem(NILPOTENT_A, NILPOTENT_B)
        defect = splitting_defect(sys_, 0.1)
        assert defect == pytest.approx(5.0e-3, rel=2e-2)

    def test_global_order_one(self):
        sys_ = LinearSplitSystem(NILPOTENT_A, NILPOTENT_B)
        x0 = np.array([1.0, 0.0])
        exact = matrix_exp(sys_.A + sys_.B) @ x0
        errors = []
        for n_steps in (10, 20, 40, 80):
            x = x0.copy()
            for _ in range(n_steps):
                x = lie_split_step(sys_, x, 1.0 / n_steps)
            errors.append(np.linalg.norm(x - exact))
        orders = [np.log2(a / b) for a, b in zip(errors, errors[1:])]
        assert all(0.8 <= p <= 1.2 for p in orders)

    def test_strang_global_order_two(self):
        # supplementary symmetric variant; expected observed order ~ 2
        sys_ = LinearSplitSystem(NILPOTENT_A, NILPOTENT_B)
        x0 = np.array([1.0, 0.0])
        exact = matrix_exp(sys_.A + sys_.B) @ x0
        errors = []
        for n_steps in (10, 20, 40, 80):
            x = x0.copy()
            for _ in range(n_steps):
                x = strang_split_step(sys_, x, 1.0 / n_steps)
            errors.append(np.linalg.norm(x - exact))
        orders = [np.log2(a / b) for a, b in zip(errors, errors[1:])]
        assert all(1.8 <= p <= 2.2 for p in orders)


class TestNonFiniteInputs:
    # pytest's configuration raises warnings as errors, so a check that let
    # arithmetic run on inf or nan first would fail here with a warning
    @pytest.mark.parametrize("step", [lie_split_step, strang_split_step])
    @pytest.mark.parametrize("h, shown", [
        (np.inf, "got inf"), (-np.inf, "got -inf"), (np.nan, "got nan"),
        ([0.1, np.inf], "got inf at index 1"), ([np.nan, 0.2], "got nan at index 0"),
        ([0.1, -0.2], "got -0.2 at index 1"),
    ])
    def test_steps_and_defect_name_the_bad_step(self, step, h, shown):
        sys_ = LinearSplitSystem(NILPOTENT_A, NILPOTENT_B)
        for call in (lambda: step(sys_, np.eye(2), h),
                     lambda: splitting_defect(sys_, h, step=step)):
            with pytest.raises(ValueError, match="time step must be nonnegative") as exc:
                call()
            assert str(exc.value).endswith(shown)

    @pytest.mark.parametrize("t, shown", [
        (np.inf, "got inf"), (-np.inf, "got -inf"), (np.nan, "got nan"),
        ([0.1, -np.inf, 0.3], "got -inf at index 1"),
    ])
    def test_flow_names_the_bad_time(self, t, shown):
        sys_ = LinearSplitSystem(NILPOTENT_A, NILPOTENT_B)
        with pytest.raises(ValueError, match="flow time must be finite") as exc:
            sys_.flow("A", t)
        assert str(exc.value).endswith(shown)
        # a negative time is a valid flow, though not a valid step
        assert sys_.flow("A", -0.5).tobytes() == matrix_exp(NILPOTENT_A * -0.5).tobytes()

    def test_times_must_be_scalar_or_one_dimensional(self):
        sys_ = LinearSplitSystem(NILPOTENT_A, NILPOTENT_B)
        with pytest.raises(ValueError, match=r"got shape \(1, 1\)"):
            sys_.flow("B", [[0.1]])
        with pytest.raises(ValueError, match=r"got shape \(1, 1\)"):
            lie_split_step(sys_, np.eye(2), [[0.1]])

    @pytest.mark.parametrize("A, B, shown", [
        ([[np.nan]], [[0.0]], "A entries must be finite, got nan at (0, 0)"),
        (np.eye(2), [[0.0, np.inf], [0.0, 0.0]], "B entries must be finite, got inf at (0, 1)"),
    ])
    def test_system_rejects_non_finite_operators(self, A, B, shown):
        with pytest.raises(ValueError) as exc:
            LinearSplitSystem(A, B)
        assert str(exc.value) == shown


class TestMatrixExpRange:
    @pytest.mark.parametrize("M, shown", [
        ([[1e308]], "1-norm 1e+308 exceeds 2^1022"),
        ([[1e308, 0.0], [1e308, 0.0]], "1-norm inf exceeds 2^1022"),
        ([[800.0]], "e^M is not representable in float64: 1-norm 800.0"),
        ([[[0.1]], [[800.0]]],
         "e^M is not representable in float64: 1-norm 800.0 at stack index 1"),
        ([[[[0.1]], [[0.2]]], [[[0.3]], [[-1e308]]]], "1-norm 1e+308 at stack index (1, 1)"),
    ])
    def test_names_the_norm_and_index_of_an_unrepresentable_exponential(self, M, shown):
        with pytest.raises(ValueError) as exc:
            matrix_exp(M)
        assert shown in str(exc.value)

    def test_stack_of_mixed_squaring_counts_squares_each_its_own(self):
        # 0, 1 and 10 squarings in one stack; the largest result is finite
        stack = np.array([[[0.25]], [[0.75]], [[700.0]]])
        E = matrix_exp(stack)
        for M, e in zip(stack, E):
            assert e.tobytes() == matrix_exp(M).tobytes()
        assert matrix_exp([[-800.0]]) == 0.0  # e^-800 underflows to zero, in range

    def test_stack_index_of_a_non_finite_entry(self):
        with pytest.raises(ValueError, match="finite at stack index 2"):
            matrix_exp(np.array([np.eye(2), np.eye(2), [[0.0, np.nan], [0.0, 0.0]]]))


@st.composite
def matrix_stacks(draw, n, min_k=1):
    """k <= 8 n x n matrices with 1-norms from 0 to about 20, zero matrices
    and matrices whose 1-norm is exactly 0.5 among them."""
    k = draw(st.integers(min_k, 8))
    base = draw(hnp.arrays(float, (k, n, n), elements=st.floats(-1.0, 1.0, width=64)))
    norms = np.linalg.norm(base, 1, axis=(1, 2))
    kinds = draw(st.lists(st.sampled_from(["scaled", "zero", "half"]), min_size=k, max_size=k))
    targets = draw(st.lists(st.floats(0.0, 20.0), min_size=k, max_size=k))
    stack = np.empty((k, n, n))
    for i, (kind, target) in enumerate(zip(kinds, targets)):
        if kind == "zero" or norms[i] < 1e-6:
            stack[i] = 0.0
        elif kind == "half":
            stack[i] = 0.0
            stack[i].flat[draw(st.integers(0, n * n - 1))] = draw(st.sampled_from([0.5, -0.5]))
        else:
            stack[i] = base[i] * (target / norms[i])
    return stack


STACKED = settings(derandomize=True, deadline=None, database=None, max_examples=60)


class TestStackedCalls:
    @STACKED
    @given(data=st.data(), n=st.integers(1, 5))
    def test_stack_equals_single_calls(self, data, n):
        stack = data.draw(matrix_stacks(n))
        exps, norms = matrix_exp(stack), spectral_norm(stack)
        for i, M in enumerate(stack):
            assert exps[i].tobytes() == matrix_exp(M).tobytes()
            single = spectral_norm(M)
            assert type(single) is float and norms[i].tobytes() == np.float64(single).tobytes()

    @STACKED
    @given(data=st.data(), n=st.integers(1, 5))
    def test_steps_flows_and_defects_over_an_array_of_h(self, data, n):
        A, B = data.draw(matrix_stacks(n, min_k=2))[:2]
        hs = np.array(data.draw(st.lists(
            st.one_of(st.just(0.0), st.floats(0.0, 2.0)), min_size=1, max_size=8)))
        X = data.draw(st.sampled_from([np.ones(n), np.eye(n), np.arange(2.0 * n).reshape(n, 2)]))
        stacked, single = LinearSplitSystem(A, B), LinearSplitSystem(A, B)
        for op in ("A", "B"):
            flows = stacked.flow(op, hs)
            assert flows.shape == (len(hs), n, n)
            for h, F in zip(hs, flows):
                assert F.tobytes() == single.flow(op, h).tobytes()
        for step in (lie_split_step, strang_split_step):
            states, defects = step(stacked, X, hs), splitting_defect(stacked, hs, step=step)
            assert states.shape == (len(hs),) + X.shape and defects.shape == hs.shape
            for h, x, d in zip(hs, states, defects):
                assert x.tobytes() == step(single, X, float(h)).tobytes()
                scalar = splitting_defect(single, float(h), step=step)
                assert d.tobytes() == np.float64(scalar).tobytes()

    def test_scalar_and_length_one_times_are_remembered_apart(self):
        sys_ = LinearSplitSystem(NILPOTENT_A, NILPOTENT_B)
        scalar, stacked = sys_.flow("A", 0.1), sys_.flow("A", [0.1])
        assert scalar.shape == (2, 2) and stacked.shape == (1, 2, 2)
        assert sys_.flow("A", 0.1) is scalar and sys_.flow("A", np.array([0.1])) is stacked
        assert stacked[0].tobytes() == scalar.tobytes()

    def test_a_reused_time_array_changed_in_place_is_not_stale(self):
        sys_ = LinearSplitSystem(NILPOTENT_A, NILPOTENT_B)
        t = np.array([0.1, 0.2])
        sys_.flow("B", t)
        t[0] = 0.3
        assert sys_.flow("B", t)[0].tobytes() == matrix_exp(NILPOTENT_B * 0.3).tobytes()


class TestIntegrateSecondOrder:
    def test_harmonic_oscillator(self):
        sys_ = SecondOrderSystem(
            damping=lambda t: 0.0,
            grad=lambda u: u,
            u0=np.array([1.0]),
            v0=np.array([0.0]),
        )
        ts, us, _ = integrate_second_order(sys_, np.pi / 2, 1000)
        assert abs(us[-1, 0] - 0.0) <= 1e-8
        np.testing.assert_allclose(us[:, 0], np.cos(ts), atol=1e-8)

    def test_velocity_decay(self):
        sys_ = SecondOrderSystem(
            damping=lambda t: 1.0,
            grad=lambda u: np.zeros_like(u),
            u0=np.array([0.0]),
            v0=np.array([1.0]),
        )
        ts, _, vs = integrate_second_order(sys_, 3.0, 600)
        np.testing.assert_allclose(vs[:, 0], np.exp(-ts), atol=1e-8)

    def test_constant_trajectory(self):
        sys_ = SecondOrderSystem(
            damping=lambda t: 1.0,
            grad=lambda u: np.zeros_like(u),
            u0=np.array([2.5]),
            v0=np.array([0.0]),
        )
        _, us, vs = integrate_second_order(sys_, 1.0, 50)
        assert np.all(us == 2.5)
        assert np.all(vs == 0.0)

    def test_divergence_reports_time(self):
        # negative damping pumps energy until overflow
        sys_ = SecondOrderSystem(
            damping=lambda t: -5.0,
            grad=lambda u: np.zeros_like(u),
            u0=np.array([0.0]),
            v0=np.array([1.0]),
        )
        with pytest.raises(DivergenceError) as info:
            integrate_second_order(sys_, 400.0, 4000)
        assert 0.0 < info.value.time <= 400.0

    def test_validation(self):
        sys_ = SecondOrderSystem(
            damping=lambda t: 0.0,
            grad=lambda u: u,
            u0=np.array([1.0]),
            v0=np.array([0.0]),
            t0=1.0,
        )
        with pytest.raises(ValueError):
            integrate_second_order(sys_, 2.0, 0)
        with pytest.raises(ValueError):
            integrate_second_order(sys_, 0.5, 10)

    @pytest.mark.parametrize("T", [1.0, float("nan")])
    def test_horizon_must_exceed_start(self, T):
        # a NaN horizon is a usage error, not a diverged integration
        sys_ = SecondOrderSystem(
            damping=lambda t: 0.0, grad=lambda u: u, u0=np.array([1.0]), v0=np.array([0.0]),
            t0=1.0,
        )
        with pytest.raises(ValueError, match="must exceed start time"):
            integrate_second_order(sys_, T, 10)


class TestDamping:
    @pytest.mark.parametrize("offset", [-1.0, float("nan")])
    def test_offset_must_be_positive(self, offset):
        with pytest.raises(ValueError, match="offset must be positive"):
            DampingSchedule(offset=offset)

    @pytest.mark.parametrize("t", [-1.0, float("nan")])
    def test_time_must_be_nonnegative(self, t):
        schedule = DampingSchedule(offset=1.0)
        with pytest.raises(ValueError, match="time must be nonnegative"):
            damping_delta(t, schedule)
        with pytest.raises(ValueError, match="time must be nonnegative"):
            ssa1_damping_coefficient(t, schedule)

    def test_zero_at_offset(self):
        value, _ = damping_delta(1.0, DampingSchedule(offset=1.0))
        assert value == 0.0

    def test_matches_momentum_schedule_on_grid(self):
        from splitopt.optimizers import RATIO_NM1_OVER_N2, MomentumSchedule, momentum_coefficient

        sch = MomentumSchedule(RATIO_NM1_OVER_N2)
        # dyadic step: the grid values are bit-exact
        h = 0.5
        for n in range(1, 200):
            value, _ = damping_delta(n * h, DampingSchedule(offset=h))
            assert value == momentum_coefficient(n, sch)
        # non-dyadic step: exact up to roundoff
        h = 0.1
        for n in range(1, 200):
            value, _ = damping_delta(n * h, DampingSchedule(offset=h))
            assert value == pytest.approx(momentum_coefficient(n, sch), abs=1e-14)

    def test_point_values(self):
        value, slope = damping_delta(4.0, DampingSchedule(offset=1.0))
        assert value == pytest.approx(0.5)
        assert slope == pytest.approx(1.0 / 12.0)

    def test_slope_positive_and_limit_one(self):
        # delta(0) = -1/2 exactly; the open lower bound holds for t > 0
        schedule = DampingSchedule(offset=0.25)
        assert damping_delta(0.0, schedule)[0] == -0.5
        for t in (0.1, 1.0, 10.0, 1e6):
            value, slope = damping_delta(t, schedule)
            assert slope > 0.0
            assert -0.5 < value < 1.0
        value, _ = damping_delta(1e9, schedule)
        assert value == pytest.approx(1.0, abs=1e-8)


class TestSsa1DampingCoefficient:
    def test_point_value(self):
        got = ssa1_damping_coefficient(4.0, DampingSchedule(offset=1.0))
        assert got == pytest.approx(1.0 / 6.0)

    def test_asymptotic_limit(self):
        # both dynamical systems' damping coefficients approach 1
        schedule = DampingSchedule(offset=1.0)
        assert ssa1_damping_coefficient(1e6, schedule) == pytest.approx(1.0, abs=1e-5)
        value, _ = damping_delta(1e6, schedule)
        assert value == pytest.approx(1.0, abs=1e-5)

    def test_pole_blowup_just_past_offset(self):
        got = ssa1_damping_coefficient(1.0 + 1e-3, DampingSchedule(offset=1.0))
        assert abs(got) > 1e3
        # dominant term of the pole expansion: -6 d / ((t + 2d)(t - d))
        assert got == pytest.approx(-6.0 / (3.001 * 1e-3), rel=1e-2)

    def test_singularity_guard(self):
        schedule = DampingSchedule(offset=1.0)
        with pytest.raises(ValueError, match="singular"):
            ssa1_damping_coefficient(1.0 + 1e-10, schedule)
        with pytest.raises(ValueError):
            DampingSchedule(offset=0.0)
