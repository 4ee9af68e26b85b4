"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines.  Every tolerance and runtime bound is asserted, not just logged.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

import splitopt.adaptive as ada
import splitopt.optimizers as opt
from splitopt.bench import (
    ExperimentConfig,
    format_csv,
    METRICS_HEADER,
    run_experiment,
    timing_stats,
)
from splitopt.datasets import Batch
from splitopt.nn import MlpModel, forward_backward, mean_target_nll
from splitopt.objectives import fd_gradient, quadratic, rosenbrock
from splitopt.splitting import (
    LinearSplitSystem,
    SecondOrderSystem,
    integrate_second_order,
    lie_split_step,
    matrix_exp,
    splitting_defect,
)

SCH_N3 = opt.MomentumSchedule(opt.RATIO_N_OVER_N3)
SCH_NM1 = opt.MomentumSchedule(opt.RATIO_NM1_OVER_N2)


def report(number, description, passed):
    print(f"{'PASS' if passed else 'FAIL'} criterion {number:2d}: {description}")
    assert passed, f"criterion {number} failed: {description}"


def make_quadratic(dim, lmin, lmax, seed):
    rng = np.random.default_rng(seed)
    basis, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    Q = basis @ np.diag(np.linspace(lmin, lmax, dim)) @ basis.T
    return quadratic((Q + Q.T) / 2, rng.standard_normal(dim))


# --- criterion 8 / 12 shared training runs ------------------------------------

SUITE = [
    ("sgd", 0.1),
    ("nesterov", 0.1),
    ("ssa1", 0.1),
    ("ssa2", 0.1),
    ("ssa1-ada", None),
    ("adam", None),
    ("adadelta", None),
    ("rmsprop", None),
    ("adagrad", 0.01),
]
SUITE_DATASET = "synth:per_class=500,classes=2,dim=2,sep=6"


def run_suite():
    out = {}
    for name, lr in SUITE:
        config = ExperimentConfig(
            optimizer=name,
            lr=lr,
            epochs=50,
            batch_size=32,
            seed=1,
            dataset=SUITE_DATASET,
        )
        records = run_experiment(config)
        out[name] = (records, format_csv(METRICS_HEADER, (vars(r).values() for r in records)))
    return out


@pytest.fixture(scope="module")
def training_runs():
    tic = time.perf_counter()
    first = run_suite()
    first_elapsed = time.perf_counter() - tic
    second = run_suite()
    return first, second, first_elapsed


# --- criteria ------------------------------------------------------------------


def test_criterion_01_schedule_identity():
    tic = time.perf_counter()
    ok = True
    for h in (Fraction(1, 10), Fraction(1, 100)):
        for n in range(1, 10_001):
            beta = Fraction(n - 1, n + 2)
            # the implementation returns the correctly rounded ratio
            if opt.momentum_coefficient(n, SCH_NM1) != float(beta):
                ok = False
            # |(1-beta)/h - 3/(n h + 2 h)| <= 1e-15 * 3/(n h + 2 h), exactly
            lhs = (1 - beta) / h
            rhs = 3 / (n * h + 2 * h)
            if abs(lhs - rhs) > rhs / 10**15:
                ok = False
    elapsed = time.perf_counter() - tic
    report(1, f"schedule identity (exact rational check, {elapsed:.2f}s)", ok and elapsed < 1.0)


def test_criterion_02_nesterov_form_equivalence():
    tic = time.perf_counter()
    objective = make_quadratic(10, 1.0, 10.0, seed=42)
    u0 = np.random.default_rng(7).standard_normal(10)
    velocity = opt.State.start(u0, opt.NESTEROV_FIELDS)
    two_seq = opt.State.start(u0, opt.NESTEROV_FIELDS)
    worst = 0.0
    for _ in range(100):
        velocity = opt.nesterov_step(velocity, objective.gradient, 0.1, SCH_NM1, "velocity")
        two_seq = opt.nesterov_step(two_seq, objective.gradient, 0.1, SCH_NM1, "two-sequence")
        worst = max(worst, float(np.max(np.abs(velocity.u - two_seq.u))))
    elapsed = time.perf_counter() - tic
    report(2, f"nesterov form equivalence (max divergence {worst:.2e})",
           worst <= 1e-12 and elapsed < 1.0)


def test_criterion_03_multistep_identities():
    tic = time.perf_counter()
    h = 0.1
    worst = 0.0
    for k in (0.0, 2.0):
        for which, step_fn, seed in (("ssa1", opt.ssa1_step, 3), ("ssa2", opt.ssa2_step, 4)):
            objective = make_quadratic(5, 1.0, 10.0, seed=seed)
            state = opt.State.start(
                np.random.default_rng(seed + 10).standard_normal(5), opt.SPLIT_FIELDS, n=1
            )
            hist = []
            for _ in range(51):
                beta = opt.momentum_coefficient(state.n, SCH_N3)
                y = state.u + h * beta * state.v
                hist.append((beta, state.u.copy(), y, objective.gradient(y)))
                state = step_fn(state, objective.gradient, h, SCH_N3, k=k)
            for (bp, u_prev, y_prev, g_prev), (bn, u_cur, y_cur, _) in zip(hist, hist[1:]):
                if which == "ssa1":
                    rhs = (
                        u_cur
                        + bn * bp**k * (u_cur - u_prev)
                        + bn * bp ** (k - 1) * (1 - h * bp) * (1 - bp**2) * (y_prev - u_prev)
                    )
                else:
                    rhs = u_cur + bn * bp**k * (u_cur - u_prev) - h * h * bn * bp**k * g_prev
                worst = max(worst, float(np.max(np.abs(y_cur - rhs))))
    elapsed = time.perf_counter() - tic
    report(3, f"multi-step identities (worst residual {worst:.2e})",
           worst <= 1e-10 and elapsed < 1.0)


def test_criterion_04_splitting_composition():
    tic = time.perf_counter()
    objective = make_quadratic(3, 1.0, 5.0, seed=11)
    h = 0.1
    u = np.random.default_rng(12).standard_normal(3)
    v = np.random.default_rng(13).standard_normal(3)
    direct = opt.State(u=u.copy(), v=v.copy(), n=1)
    n = 1
    worst = 0.0
    for _ in range(20):
        beta = opt.momentum_coefficient(n, SCH_N3)
        grad_y = objective.gradient(u + h * beta * v)
        u_half, v_half = opt.damping_substep(u, v, h, beta)
        u, v = opt.gradient_substep_perturbed(u_half, v_half, grad_y, h, beta)
        n += 1
        direct = opt.ssa1_step(direct, objective.gradient, h, SCH_N3, k=0.0)
        worst = max(
            worst,
            float(np.max(np.abs(u - direct.u))),
            float(np.max(np.abs(v - direct.v))),
        )
    elapsed = time.perf_counter() - tic
    report(4, f"splitting-composition consistency (worst {worst:.2e})",
           worst <= 1e-12 and elapsed < 1.0)


def test_criterion_05_lie_splitting_order():
    tic = time.perf_counter()
    noncommuting = LinearSplitSystem(
        np.array([[0.0, 1.0], [0.0, 0.0]]), np.array([[0.0, 0.0], [1.0, 0.0]])
    )
    x0 = np.array([1.0, 0.0])
    exact = matrix_exp(noncommuting.A + noncommuting.B) @ x0
    errors = []
    for n_steps in (10, 20, 40, 80):
        x = x0.copy()
        for _ in range(n_steps):
            x = lie_split_step(noncommuting, x, 1.0 / n_steps)
        errors.append(float(np.linalg.norm(x - exact)))
    orders = [math.log2(a / b) for a, b in zip(errors, errors[1:])]
    orders_ok = all(0.8 <= p <= 1.2 for p in orders)

    commuting = LinearSplitSystem(np.diag([1.0, -0.5]), np.diag([0.3, 2.0]))
    defects_ok = all(
        splitting_defect(commuting, 1.0 / n) <= 1e-12 for n in (10, 20, 40, 80)
    )
    elapsed = time.perf_counter() - tic
    report(5, f"lie splitting order (orders {[round(p, 3) for p in orders]})",
           orders_ok and defects_ok and elapsed < 1.0)


def test_criterion_06_gradient_checks():
    tic = time.perf_counter()
    rng = np.random.default_rng(606)
    worst_mlp = 0.0
    for _ in range(20):
        d = int(rng.integers(2, 7))
        hidden = int(rng.integers(4, 9))
        classes = int(rng.integers(2, 5))
        m = int(rng.integers(1, 9))
        model = MlpModel.init((d, hidden, classes), seed=int(rng.integers(1_000_000)))
        batch = Batch(rng.standard_normal((m, d)), rng.integers(0, classes, size=m))
        grad = forward_backward(model, batch)
        theta = model.param_vector()

        def loss_at(t, model=model, batch=batch):
            model.set_param_vector(t)
            return mean_target_nll(model.forward(batch.images), batch.labels)

        fd = fd_gradient(loss_at, theta, 1e-5)
        model.set_param_vector(theta)
        rel = float(np.max(np.abs(grad - fd)) / max(1.0, np.max(np.abs(fd))))
        worst_mlp = max(worst_mlp, rel)

    worst_analytic = 0.0
    objective = make_quadratic(4, 1.0, 6.0, seed=21)
    for _ in range(100):
        u = rng.uniform(-2.0, 2.0, size=4)
        fd = fd_gradient(objective.value, u, 1e-5)
        rel = float(np.max(np.abs(objective.gradient(u) - fd)) / max(1.0, np.max(np.abs(fd))))
        worst_analytic = max(worst_analytic, rel)
    for _ in range(100):
        u = rng.uniform(-2.0, 2.0, size=2)
        _, analytic = rosenbrock(u)
        fd = fd_gradient(lambda x: rosenbrock(x)[0], u, 1e-5)
        rel = float(np.max(np.abs(analytic - fd)) / max(1.0, np.max(np.abs(fd))))
        worst_analytic = max(worst_analytic, rel)

    elapsed = time.perf_counter() - tic
    report(
        6,
        f"gradient checks (mlp {worst_mlp:.2e}, analytic {worst_analytic:.2e}, {elapsed:.1f}s)",
        worst_mlp <= 1e-5 and worst_analytic <= 1e-6 and elapsed < 10.0,
    )


def test_criterion_07_convex_convergence():
    tic = time.perf_counter()
    objective = make_quadratic(10, 1.0, 10.0, seed=42)
    f_star = objective.value(objective.minimizer)
    h = 0.1
    gaps = {}

    state = opt.State.start(np.zeros(10), opt.SGD_FIELDS)
    values = [objective.value(state.u)]
    for _ in range(5000):
        state = opt.minibatch_sgd_step(state, objective.gradient, 1.0 / objective.L)
        values.append(objective.value(state.u))
    monotone = all(b <= a + 1e-12 for a, b in zip(values, values[1:]))
    gaps["gd"] = values[-1] - f_star

    state = opt.State.start(np.zeros(10), opt.NESTEROV_FIELDS)
    for _ in range(5000):
        state = opt.nesterov_step(state, objective.gradient, h, SCH_NM1)
    gaps["nesterov"] = objective.value(state.u) - f_star

    for name, step_fn in (("ssa1", opt.ssa1_step), ("ssa2", opt.ssa2_step)):
        state = opt.State.start(np.zeros(10), opt.SPLIT_FIELDS)
        for _ in range(5000):
            state = step_fn(state, objective.gradient, h, SCH_N3, k=2.0)
        gaps[name] = objective.value(state.u) - f_star

    elapsed = time.perf_counter() - tic
    converged = all(gap <= 1e-6 for gap in gaps.values())
    report(
        7,
        f"convex convergence (worst gap {max(gaps.values()):.2e}, monotone GD {monotone}, {elapsed:.1f}s)",
        converged and monotone and elapsed < 5.0,
    )


def test_criterion_08_desk_scale_training(training_runs):
    first, _, elapsed = training_runs
    results = {}
    ok = True
    for name, _ in SUITE:
        records, _ = first[name]
        finite = all(
            np.isfinite(r.train_loss) and np.isfinite(r.test_loss) for r in records
        )
        results[name] = records[-1].train_acc
        ok = ok and finite and records[-1].train_acc >= 0.95
    worst = min(results.values())
    report(
        8,
        f"desk-scale training (worst train acc {worst:.3f}, suite {elapsed:.1f}s)",
        ok and elapsed < 60.0,
    )


def test_criterion_09_hand_oracle_single_steps():
    tic = time.perf_counter()
    checks = []

    # ssa1: u=1, v=0, h=0.1, n=1 (beta 0.25), k=2, f=u^2/2
    out = opt.ssa1_step(
        opt.State(u=np.array([1.0]), v=np.array([0.0]), n=1),
        lambda u: u,
        0.1,
        SCH_N3,
        k=2.0,
    )
    checks.append(abs(out.v[0] - 0.25**2 * (-0.1)) <= 1e-9)          # -0.00625
    checks.append(abs(out.u[0] - (1.0 - 0.01)) <= 1e-9)              # 0.99

    # ssa2: u=1, v=1, h=0.1, beta=0.25, k=2, f=u^2/2
    out = opt.ssa2_step(
        opt.State(u=np.array([1.0]), v=np.array([1.0]), n=0),
        lambda u: u,
        0.1,
        opt.MomentumSchedule.constant(0.25),
        k=2.0,
    )
    v_expected = 0.0625 * (0.975 * 1.0 - 0.1 * 1.025)
    checks.append(abs(out.v[0] - v_expected) <= 1e-9)
    checks.append(abs(out.u[0] - 1.0975) <= 1e-9)

    # adam: zero state, g=1, h=0.001, eps=1e-8; bias correction cancels
    out = ada.adam_step(
        opt.State.start(np.zeros(1), ada.ADAM_FIELDS),
        lambda _: np.array([1.0]),
        0.001,
        eps=1e-8,
    )
    checks.append(abs(out.u[0] - (-0.001 / (1.0 + 1e-8))) <= 1e-9)

    # adadelta: zero accumulators, gamma=0.9, eps=1e-6, g=1, h=1
    out = ada.adadelta_step(
        opt.State.start(np.zeros(1), ada.ADADELTA_FIELDS),
        lambda _: np.array([1.0]),
        1.0,
        gamma=0.9,
        eps=1e-6,
    )
    delta = -math.sqrt(1e-6) / math.sqrt(0.1 + 1e-6)
    checks.append(abs(out.u[0] - delta) <= 1e-9)
    checks.append(abs(out.acc_update_sq[0] - 0.1 * delta**2) <= 1e-9)

    # rmsprop: zero accumulator, gamma=0.9, g=1, h=0.001, eps=1e-8
    out = ada.rmsprop_step(
        opt.State.start(np.zeros(1), ada.RMSPROP_FIELDS),
        lambda _: np.array([1.0]),
        0.001,
        gamma=0.9,
        eps=1e-8,
    )
    checks.append(abs(out.u[0] - (-0.001 / math.sqrt(0.1 + 1e-8))) <= 1e-9)

    # adagrad: two steps with g=1, h=0.1, eps=1e-8
    state = opt.State.start(np.zeros(1), ada.ADAGRAD_FIELDS)
    hp = dict(h=0.1, eps=1e-8)
    state = ada.adagrad_step(state, lambda _: np.array([1.0]), **hp)
    checks.append(abs(state.u[0] - (-0.1 / (1.0 + 1e-8))) <= 1e-9)
    first_u = state.u[0]
    state = ada.adagrad_step(state, lambda _: np.array([1.0]), **hp)
    checks.append(
        abs((state.u[0] - first_u) - (-0.1 / (math.sqrt(2.0) + 1e-8))) <= 1e-9
    )

    # ssa1-ada as written: u=1, v=0, z=1, n=1, beta=0.25, k=2, h=1,
    # rho=0.9, eps=1e-6, f=u^2/2
    st = opt.State.start(np.array([1.0]), ada.SSA1_ADA_FIELDS, n=1)
    out = ada.ssa1_ada_step(
        st,
        lambda u: u,
        1.0,
        SCH_N3,
        variant="as-written",
        k=2.0,
        gamma=0.9,
        eps=1e-6,
    )
    h_n = math.sqrt(1e-6) / math.sqrt(0.1 + 1e-6)
    checks.append(abs(out.v[0] - (0.0625 * -h_n)) <= 1e-9)
    checks.append(abs(out.u[0] - (1.0 - h_n**2)) <= 1e-9)

    elapsed = time.perf_counter() - tic
    report(9, f"hand-oracle single steps ({sum(checks)}/{len(checks)} values)",
           all(checks) and elapsed < 1.0)


def test_criterion_10_timing_table():
    tic = time.perf_counter()
    stats = timing_stats([1.0, 2.0, 3.0, 4.0])
    expected = {
        "mean": 2.5,
        "std": math.sqrt(5.0 / 3.0),
        "min": 1.0,
        "q25": 1.75,
        "q50": 2.5,
        "q75": 3.25,
        "max": 4.0,
        "sum": 10.0,
    }
    hand_ok = all(abs(getattr(stats, k) - v) <= 1e-9 for k, v in expected.items())

    rng = np.random.default_rng(10)
    invariants_ok = True
    for _ in range(1000):
        samples = rng.random(int(rng.integers(1, 50))) * float(rng.integers(1, 1000))
        s = timing_stats(samples)
        if not (s.min <= s.q25 <= s.q50 <= s.q75 <= s.max):
            invariants_ok = False
        if abs(s.sum - s.mean * len(samples)) > 1e-9 * max(s.sum, 1e-300):
            invariants_ok = False
    elapsed = time.perf_counter() - tic
    report(10, "timing table statistics", hand_ok and invariants_ok and elapsed < 1.0)


def test_criterion_11_ode_tracking():
    tic = time.perf_counter()
    system = SecondOrderSystem(
        damping=lambda t: 1.0,
        grad=lambda u: u,
        u0=np.array([1.0]),
        v0=np.array([0.0]),
    )
    h_ref = 0.00125
    _, us_ref, _ = integrate_second_order(system, 5.0, round(5.0 / h_ref))

    schedule = opt.MomentumSchedule.constant(1.0)
    errors = []
    for h in (0.05, 0.025, 0.0125):
        state = opt.State(u=np.array([1.0]), v=np.array([0.0]), n=0)
        stride = round(h / h_ref)
        sup = 0.0
        for n in range(1, round(5.0 / h) + 1):
            state = opt.ssa2_step(state, lambda u: u, h, schedule, k=0.0)
            sup = max(sup, abs(state.u[0] - us_ref[n * stride, 0]))
        errors.append(sup)
    orders = [math.log2(a / b) for a, b in zip(errors, errors[1:])]
    elapsed = time.perf_counter() - tic
    report(
        11,
        f"ode tracking (orders {[round(p, 3) for p in orders]}, {elapsed:.1f}s)",
        all(p >= 0.8 for p in orders) and all(np.diff(errors) < 0) and elapsed < 5.0,
    )


def test_criterion_12_determinism(training_runs):
    first, second, _ = training_runs

    def strip_timing(csv_text):
        return "\n".join(
            line.rsplit(",", 1)[0] for line in csv_text.strip().split("\n")
        )

    ok = True
    for name, _ in SUITE:
        if strip_timing(first[name][1]) != strip_timing(second[name][1]):
            ok = False
    report(12, "determinism of training metrics modulo timing", ok)
