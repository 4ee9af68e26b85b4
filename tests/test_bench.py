"""Unit tests for the experiment runner, timing statistics, and CLI."""

import dataclasses
import inspect
import itertools
import math
import pathlib
import re
import struct
import tracemalloc
import warnings

import numpy as np
import pytest

from splitopt import bench
from splitopt.bench import (
    ExperimentConfig,
    OPTIMIZERS,
    METRICS_HEADER,
    TrainingDivergedError,
    emit_metrics,
    format_csv,
    load_dataset_spec,
    make_stepper,
    MetricsRecord,
    parse_momentum,
    read_timing_column,
    run_experiment,
    splitting_study,
    timing_stats,
    _evaluate,
)
from splitopt import adaptive as ad
from splitopt import optimizers as opt
from splitopt import splitting
from splitopt.cli import _build_parser, _load_config_file, main
from splitopt import datasets
from splitopt.datasets import Batch, synth_blobs
from splitopt.nn import MlpModel, forward_backward, mean_target_nll

from idx_fixtures import dataset_to_idx

TINY = "synth:per_class=40,classes=2,dim=2,sep=6"
# loading it exits 4, so a run that exits 2 with it has loaded no data
MISSING_IDX = "idx:nope1,nope2,nope3,nope4"
OPTIMIZER_DEFAULT_LR = {name: row[0] for name, row in OPTIMIZERS.items()}


class TestTimingStats:
    def test_hand_values(self):
        stats = timing_stats([1.0, 2.0, 3.0, 4.0])
        assert stats.mean == pytest.approx(2.5)
        assert stats.std == pytest.approx(math.sqrt(5.0 / 3.0), abs=1e-9)
        assert stats.min == 1.0
        assert stats.q25 == pytest.approx(1.75)
        assert stats.q50 == pytest.approx(2.5)
        assert stats.q75 == pytest.approx(3.25)
        assert stats.max == 4.0
        assert stats.sum == pytest.approx(10.0)

    def test_singleton(self):
        stats = timing_stats([5.0])
        assert stats.mean == 5.0 and stats.std == 0.0 and stats.sum == 5.0
        assert stats.q25 == stats.q50 == stats.q75 == 5.0

    def test_constant_sequence(self):
        stats = timing_stats([0.7] * 13)
        assert stats.std == 0.0
        assert stats.q25 == stats.q50 == stats.q75 == 0.7
        assert stats.sum == pytest.approx(13 * 0.7)

    def test_invariants_on_random_samples(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            samples = rng.random(rng.integers(1, 40)) * rng.integers(1, 100)
            s = timing_stats(samples)
            assert s.min <= s.q25 <= s.q50 <= s.q75 <= s.max
            assert abs(s.sum - s.mean * len(samples)) <= 1e-9 * max(s.sum, 1e-300)

    def test_empty_input(self):
        with pytest.raises(ValueError):
            timing_stats([])


def write_metrics(records, path):
    emit_metrics(METRICS_HEADER, (vars(r).values() for r in records), str(path))


class TestEmitMetrics:
    def test_empty_records_header_only(self, tmp_path):
        path = tmp_path / "m.csv"
        write_metrics([], path)
        assert path.read_text() == (
            "epoch,train_loss,train_acc,test_loss,test_acc,epoch_time_s\n"
        )

    def test_line_count(self):
        records = [
            MetricsRecord(0, 1.0, 0.5, 1.1, 0.4, 0.01),
            MetricsRecord(1, 0.9, 0.6, 1.0, 0.5, 0.02),
        ]
        text = format_csv(METRICS_HEADER, (vars(r).values() for r in records))
        assert len(text.strip().split("\n")) == 3

    def test_cells(self):
        # a float (numpy's included) in 6 significant digits, an int whole,
        # None empty, and a trailing newline
        rows = [(1234567, 0.1234567891, np.float64(2e-300), None), (0, 1.0, 7.0e20, float("nan"))]
        assert format_csv(("a", "b", "c", "d"), rows) == (
            "a,b,c,d\n1234567,0.123457,2e-300,\n0,1,7e+20,nan\n"
        )

    def test_round_trip_within_six_significant_digits(self, tmp_path):
        record = MetricsRecord(3, 0.123456789, 0.98765432, 1.23456789e-4, 1.0, 7.5)
        path = tmp_path / "m.csv"
        write_metrics([record], path)
        fields = path.read_text().strip().split("\n")[1].split(",")
        back = [float(x) for x in fields]
        originals = [3, 0.123456789, 0.98765432, 1.23456789e-4, 1.0, 7.5]
        for got, want in zip(back, originals):
            assert got == pytest.approx(want, rel=1e-5)


@pytest.mark.parametrize("make", [
    lambda: opt.State(np.zeros(2)),
    lambda: Batch(np.zeros((2, 1)), [0, 1]),
    lambda: splitting.LinearSplitSystem(np.eye(2), np.eye(2)),
    lambda: splitting.SecondOrderSystem(lambda t: 0.0, np.negative, np.zeros(2), np.zeros(2)),
], ids=["State", "Batch", "LinearSplitSystem", "SecondOrderSystem"])
def test_array_holders_compare_and_hash_by_identity(make):
    # field-wise == would ask numpy for the truth value of an array
    a, b = make(), make()
    assert a == a and a != b and hash(a) == hash(a)
    assert len({a, b}) == 2


class TestRegistry:
    def test_exact_optimizer_set(self):
        assert set(OPTIMIZER_DEFAULT_LR) == {
            "sgd",
            "polyak",
            "nesterov",
            "ssa1",
            "ssa2",
            "ssa1-const",
            "ssa2-const",
            "adagrad",
            "adadelta",
            "rmsprop",
            "adam",
            "ssa1-ada",
        }

    def test_adaptive_family_defaults(self):
        assert OPTIMIZER_DEFAULT_LR["adadelta"] == 1.0
        assert OPTIMIZER_DEFAULT_LR["ssa1-ada"] == 1.0
        assert OPTIMIZER_DEFAULT_LR["adam"] == 1e-3

    def test_parse_momentum(self):
        assert parse_momentum("0.5").beta == 0.5
        assert parse_momentum("ratio-n-over-n-plus-3").kind == "ratio-n-over-n-plus-3"
        for bad in ("sideways", "constant", ""):
            with pytest.raises(ValueError, match="neither a float"):
                parse_momentum(bad)
        with pytest.raises(ValueError):
            parse_momentum("1.5")

    def test_every_optimizer_steps(self):
        rng = np.random.default_rng(1)
        theta0 = rng.standard_normal(6)
        grad = lambda t: 2.0 * t
        for name in OPTIMIZER_DEFAULT_LR:
            config = ExperimentConfig(optimizer=name, epochs=1)
            stepper = make_stepper(config, theta0)
            theta = theta0
            for _ in range(3):
                theta = stepper(grad)
            assert theta.shape == theta0.shape
            assert np.all(np.isfinite(theta)), name

    def test_variant_wiring(self):
        grad = lambda t: 2.0 * t
        theta0 = np.ones(4)
        configs = [
            ExperimentConfig(
                optimizer="nesterov",
                momentum="ratio-n-minus-1-over-n-plus-2",
                epochs=1,
            ),
            ExperimentConfig(optimizer="ssa1-ada", variant="z-first", epochs=1),
            ExperimentConfig(optimizer="ssa2-const", momentum="0.9", epochs=1),
        ]
        for config in configs:
            stepper = make_stepper(config, theta0)
            theta = stepper(grad)
            assert np.all(np.isfinite(theta))


@pytest.mark.parametrize("name", sorted(OPTIMIZERS))
def test_steps_allocate_no_state(name):
    # with a gradient oracle that allocates nothing, every rule writes into
    # the stepper's two states, work buffers included, so 5 steps hold less
    # than half a parameter vector of traced memory above their start
    n_params = 1000
    grad = np.linspace(-1.0, 1.0, n_params)
    oracle = lambda _: grad
    stepper = make_stepper(ExperimentConfig(optimizer=name), np.linspace(0.5, -0.5, n_params))
    tracemalloc.start()
    try:
        for _ in range(3):
            stepper(oracle)
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        for _ in range(5):
            stepper(oracle)
        vectors = (tracemalloc.get_traced_memory()[1] - start) / grad.nbytes
    finally:
        tracemalloc.stop()
    assert vectors < 0.5


@pytest.mark.parametrize("name", sorted(OPTIMIZERS))
def test_stepper_looks_its_rule_up_by_name_when_built(monkeypatch, name):
    # a tracer replaces each step rule by name in its module before a run
    # starts, so a stepper must call what the module holds when it is built
    module, rule = OPTIMIZERS[name][2:4]
    calls, real = [], getattr(module, rule)

    def counting(*args, **kwargs):
        calls.append(args[0].n)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, rule, counting)
    stepper = make_stepper(ExperimentConfig(optimizer=name), np.ones(3))
    for _ in range(3):
        stepper(lambda t: 2.0 * t)
    # the config's one check step, then the stepper's three
    assert calls == [0, 0, 1, 2]


HALF = opt.MomentumSchedule.constant(0.5)
RATIO = opt.MomentumSchedule(opt.RATIO_N_OVER_N3)
# optimizer -> (state fields, one step): direct calls of each step rule with
# the defaults the README documents
DIRECT = {
    "sgd": (opt.SGD_FIELDS, lambda s, g: opt.minibatch_sgd_step(s, g, 1e-3)),
    "polyak": (opt.POLYAK_FIELDS, lambda s, g: opt.polyak_step(s, g, 1e-2, HALF)),
    "nesterov": (
        opt.NESTEROV_FIELDS, lambda s, g: opt.nesterov_step(s, g, 1e-3, HALF, form="velocity")
    ),
    "ssa1": (opt.SPLIT_FIELDS, lambda s, g: opt.ssa1_step(s, g, 1e-3, RATIO, k=2.0)),
    "ssa2": (opt.SPLIT_FIELDS, lambda s, g: opt.ssa2_step(s, g, 1e-3, RATIO, k=2.0)),
    "ssa1-const": (opt.SPLIT_FIELDS, lambda s, g: opt.ssa1_step(s, g, 1e-3, HALF, k=2.0)),
    "ssa2-const": (opt.SPLIT_FIELDS, lambda s, g: opt.ssa2_step(s, g, 1e-3, HALF, k=2.0)),
    "adagrad": (ad.ADAGRAD_FIELDS, lambda s, g: ad.adagrad_step(s, g, 1e-3, eps=1e-8)),
    "adadelta": (
        ad.ADADELTA_FIELDS, lambda s, g: ad.adadelta_step(s, g, 1.0, gamma=0.9, eps=1e-6)
    ),
    "rmsprop": (
        ad.RMSPROP_FIELDS, lambda s, g: ad.rmsprop_step(s, g, 1e-3, gamma=0.9, eps=1e-8)
    ),
    "adam": (ad.ADAM_FIELDS, lambda s, g: ad.adam_step(s, g, 1e-3, eps=1e-8)),
    "ssa1-ada": (
        ad.SSA1_ADA_FIELDS,
        lambda s, g: ad.ssa1_ada_step(
            s, g, 1.0, RATIO, variant="as-written", k=2.0, gamma=0.9, eps=1e-6,
        ),
    ),
}


def test_table_defaults_match_direct_rule_calls():
    assert set(DIRECT) == set(OPTIMIZERS)
    grad = lambda t: np.array([1.0, 4.0, 9.0]) * t - 1.0
    theta0 = np.array([1.0, -2.0, 0.5])
    for name, (fields, advance) in DIRECT.items():
        stepper = make_stepper(ExperimentConfig(optimizer=name), theta0)
        state = opt.State.start(theta0, fields)
        for _ in range(5):
            state = advance(state, grad)
            assert stepper(grad).tobytes() == state.u.tobytes(), name


# each rule's defaults of the hyper-parameters it reads, the values that
# `bench run` passes it: the Adadelta family guards with 1e-6, the rest 1e-8
HYPER_DEFAULTS = {
    "ssa1_step": {"k": 2.0}, "ssa2_step": {"k": 2.0}, "adagrad_step": {"eps": 1e-8},
    "adadelta_step": {"gamma": 0.9, "eps": 1e-6}, "rmsprop_step": {"gamma": 0.9, "eps": 1e-8},
    "adam_step": {"eps": 1e-8}, "ssa1_ada_step": {"k": 2.0, "gamma": 0.9, "eps": 1e-6},
}
# a hyper-parameter of the family that each rule does not read
UNREAD = {
    "minibatch_sgd_step": "eps", "polyak_step": "k", "nesterov_step": "gamma",
    "ssa1_step": "eps", "ssa2_step": "gamma", "adagrad_step": "gamma",
    "adadelta_step": "k", "rmsprop_step": "beta1", "adam_step": "k", "ssa1_ada_step": "beta1",
}


@pytest.mark.parametrize("name", sorted(OPTIMIZERS))
def test_rules_take_the_hyper_parameters_they_read_as_keywords(name):
    _, options, module, rule, fields = OPTIMIZERS[name]
    advance = getattr(module, rule)
    parameters = inspect.signature(advance).parameters
    assert list(parameters)[:3] == ["state", "grad_fn", "h"]
    for key in ("k", "gamma", "eps"):
        if key in options:
            assert parameters[key].kind is inspect.Parameter.KEYWORD_ONLY, key
            assert parameters[key].default == HYPER_DEFAULTS[rule][key] == options[key], key
        else:
            assert key not in parameters, key
    # a hyper-parameter the rule does not read is a TypeError, not ignored
    positional = [parse_momentum(options["momentum"])] if "momentum" in options else []
    with pytest.raises(TypeError, match=UNREAD[rule]):
        advance(opt.State.start(np.zeros(2), fields), np.zeros_like, 0.1, *positional,
                **{UNREAD[rule]: 0.5})


README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def readme_field_table():
    """{rule name: (its module, its field tuple's name, the fields listed)}
    from the README's table of each rule's fields."""
    lines = README.read_text().splitlines()
    start = lines.index("| rule | field tuple | fields |") + 2
    table = {}
    for line in itertools.takewhile(lambda line: line.startswith("|"), lines[start:]):
        rules, constant, fields = (cell.strip() for cell in line.strip("|").split("|"))
        module, name = constant.strip("`").split(".")
        for rule in rules.split(", "):
            table[rule.strip("`")] = (module, name, tuple(f.strip("`") for f in fields.split(", ")))
    return table


def test_readme_field_table_matches_the_declared_fields():
    table = readme_field_table()
    modules = {"optimizers": opt, "adaptive": ad}
    for rule, (module, name, fields) in table.items():
        assert hasattr(modules[module], rule), rule
        assert getattr(modules[module], name) == fields, rule
    # every registry row's rule and fields are the table's
    for optimizer, row in OPTIMIZERS.items():
        module, rule, fields = row[2], row[3], row[4]
        assert getattr(module, table[rule][1]) is fields, optimizer


def readme_option_table():
    """{optimizer: {option: its cell}} from the README's table of each
    optimizer's option defaults, the cells without their backticks."""
    lines = README.read_text().splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("| optimizer | `--lr`"))
    header = [cell.strip().strip("`").lstrip("-").replace("-", "_")
              for cell in lines[start].strip("|").split("|")]
    table = {}
    for line in itertools.takewhile(lambda line: line.startswith("|"), lines[start + 2:]):
        names, *cells = (cell.strip().strip("`") for cell in line.strip("|").split("|"))
        for name in names.split("`, `"):
            assert name not in table, name
            table[name] = dict(zip(header[1:], cells))
    return table


def test_readme_option_table_matches_the_registry():
    table = readme_option_table()
    assert set(table) == set(OPTIMIZERS)
    for name, (lr, defaults, *_) in OPTIMIZERS.items():
        row = table[name]
        assert set(row) == {"lr", *bench.OPTION_FIELDS}, name
        assert float(row["lr"]) == lr, name
        for option in bench.OPTION_FIELDS:
            if option not in defaults:
                assert row[option] == "—", (name, option)
            elif isinstance(defaults[option], str):
                assert row[option] == defaults[option], (name, option)
            else:
                assert float(row[option]) == defaults[option], (name, option)


def test_readme_states_the_study_sweep():
    text = " ".join(README.read_text().split())
    sweep = ", ".join(str(n) for n in bench.STUDY_STEP_COUNTS)
    assert f"h = 1/N over N = {sweep} (`bench.STUDY_STEP_COUNTS`)" in text


# three overlapping classes, small enough to train every optimizer with
# each of its options in well under a second all told
EFFECT_SPEC = "synth:per_class=40,classes=3,dim=4,sep=3"
# values besides every optimizer's default for --lr and each option
OTHER_VALUES = {
    "lr": [0.05], "k": [0.0, 1.0], "momentum": ["0.9", opt.RATIO_NM1_OVER_N2],
    "gamma": [0.5, 0.99], "eps": [1e-7, 1e-4], "variant": ["z-first"],
}


@pytest.mark.parametrize("name", sorted(OPTIMIZERS))
def test_every_option_changes_the_run(name):
    # an option the CLI accepts must change the run: its records, at full
    # precision and wall time aside, differ from the defaults' run
    assert set(OTHER_VALUES) == {"lr", *bench.OPTION_FIELDS}
    lr, defaults = OPTIMIZERS[name][:2]

    def records(**option):
        config = ExperimentConfig(optimizer=name, epochs=2, batch_size=8, dataset=EFFECT_SPEC,
                                  **option)
        return [dataclasses.replace(r, epoch_time_s=0.0) for r in run_experiment(config)]

    base = records()
    for option in ["lr", *defaults]:
        for value in OTHER_VALUES[option]:
            assert value != {"lr": lr, **defaults}[option]
            assert records(**{option: value}) != base, (option, value)


class TestPolyakSchedule:
    def test_ratio_momentum_matches_a_hand_rolled_heavy_ball(self):
        h, grad = 0.01, lambda t: 2.0 * t
        theta0 = np.array([1.0, -2.0, 0.5])
        config = ExperimentConfig(optimizer="polyak", lr=h, momentum="ratio-n-over-n-plus-3")
        stepper = make_stepper(config, theta0)
        u, u_prev = theta0.copy(), theta0.copy()
        for n in range(20):
            y = u + n / (n + 3) * (u - u_prev)
            u, u_prev = y - h * grad(u), u
            assert stepper(grad).tobytes() == u.tobytes()

    def test_ratio_momentum_is_not_sgd(self):
        common = dict(lr=0.01, epochs=3, dataset=TINY)
        polyak = run_experiment(
            ExperimentConfig(optimizer="polyak", momentum="ratio-n-over-n-plus-3", **common)
        )
        sgd = run_experiment(ExperimentConfig(optimizer="sgd", **common))
        assert [r.train_loss for r in polyak] != [r.train_loss for r in sgd]


class TestConfig:
    def test_unknown_optimizer(self):
        with pytest.raises(ValueError, match="unknown optimizer"):
            ExperimentConfig(optimizer="sgdx")

    def test_bad_counts(self):
        with pytest.raises(ValueError):
            ExperimentConfig(epochs=0)
        with pytest.raises(ValueError):
            ExperimentConfig(batch_size=0)

    def test_default_lr_resolution(self):
        for name, lr in OPTIMIZER_DEFAULT_LR.items():
            assert ExperimentConfig(optimizer=name).lr == lr, name
            assert ExperimentConfig(optimizer=name, lr=0.3).lr == 0.3, name


class TestDataSpecs:
    def test_synth_spec_parses(self):
        train, test = load_dataset_spec("synth:per_class=30,classes=3,dim=4,sep=5", 1)
        assert len(train) == 90 and train.images.shape[1] == 4
        assert len(test) == 18  # one fifth of the per-class count, derived seed

    def test_synth_defaults(self):
        train, _ = load_dataset_spec("synth", 1)
        assert len(train) == 1000

    def test_unknown_key(self):
        with pytest.raises(ValueError, match="unknown synth parameter"):
            load_dataset_spec("synth:blobs=3", 1)

    def test_idx_spec(self, tmp_path):
        ds = synth_blobs(12, 2, 3, 6.0, seed=4)
        img, lbl = dataset_to_idx(ds)
        paths = []
        for name, payload in (
            ("tri", img), ("trl", lbl), ("tei", img), ("tel", lbl)
        ):
            p = tmp_path / name
            p.write_bytes(payload)
            paths.append(str(p))
        train, test = load_dataset_spec("idx:" + ",".join(paths), 1)
        assert len(train) == 24 and len(test) == 24

    def test_run_ingestion_holds_one_float_matrix_per_set(self, tmp_path, monkeypatch):
        # a run's ingestion: load both sets and normalize them in place,
        # measured up to the model build, which stops the run
        rng = np.random.default_rng(5)
        shapes, paths = {"train": (600, 28, 28), "test": (150, 28, 28)}, []
        for name, (n, rows, cols) in shapes.items():
            for suffix, payload in (
                ("images", struct.pack(">IIII", 0x803, n, rows, cols)
                 + rng.integers(0, 256, n * rows * cols, dtype=np.uint8).tobytes()),
                ("labels", struct.pack(">II", 0x801, n) + bytes(rng.integers(0, 10, n).tolist())),
            ):
                paths.append(tmp_path / f"{name}-{suffix}")
                paths[-1].write_bytes(payload)
        config = ExperimentConfig(epochs=1, dataset="idx:" + ",".join(map(str, paths)))
        built = []

        class ModelBuild(Exception):
            pass

        def stop(cls, sizes, seed):
            built.append(sizes)
            raise ModelBuild

        monkeypatch.setattr(MlpModel, "init", classmethod(stop))
        # what the two sets keep (float64 pixels, int64 labels) plus the
        # file bytes, which parse_idx reads in place
        kept = sum(8 * n * rows * cols + 8 * n for n, rows, cols in shapes.values())
        budget = kept + sum(p.stat().st_size for p in paths)
        tracemalloc.start()
        try:
            with pytest.raises(ModelBuild):
                run_experiment(config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert built == [(784, bench.HIDDEN_UNITS, 10)]
        assert peak <= budget, f"peak {peak} B over {budget} B"

    def test_idx_spec_path_count(self):
        with pytest.raises(ValueError, match="4 comma-separated"):
            load_dataset_spec("idx:a,b", 1)

    def test_unknown_scheme(self):
        with pytest.raises(ValueError, match="unknown dataset spec"):
            load_dataset_spec("csv:things", 1)


class TestRunExperiment:
    def test_zero_learning_rate_freezes_model(self):
        config = ExperimentConfig(optimizer="sgd", lr=0.0, epochs=2, dataset=TINY)
        records = run_experiment(config)
        assert records[0].train_loss == records[1].train_loss
        assert records[0].train_acc == records[1].train_acc
        assert records[0].test_loss == records[1].test_loss

    def test_deterministic_given_seed(self):
        config = ExperimentConfig(optimizer="ssa1", lr=0.1, epochs=3, dataset=TINY)
        a = run_experiment(config)
        b = run_experiment(config)
        for ra, rb in zip(a, b):
            assert ra.train_loss == rb.train_loss
            assert ra.train_acc == rb.train_acc
            assert ra.test_loss == rb.test_loss
            assert ra.test_acc == rb.test_acc

    def test_learning_happens_quickly_on_easy_blobs(self):
        config = ExperimentConfig(optimizer="adam", lr=0.1, epochs=10, dataset=TINY)
        records = run_experiment(config)
        assert records[-1].train_acc >= 0.9

    def test_sets_are_checked_once_per_run(self, monkeypatch):
        # the loaders build the two checked sets, and every step gathers its
        # rows from the training set; the runner builds none
        built = {"datasets": [], "bench": []}

        def counting(where):
            def build(*args, **kwargs):
                batch = Batch(*args, **kwargs)
                built[where].append(len(batch))
                return batch
            return build

        monkeypatch.setattr(datasets, "Batch", counting("datasets"))
        monkeypatch.setattr(bench, "Batch", counting("bench"))
        run_experiment(ExperimentConfig(optimizer="sgd", epochs=2, batch_size=8, dataset=TINY))
        assert built == {"datasets": [80, 16], "bench": []}

    @pytest.mark.parametrize("name", sorted(OPTIMIZERS))
    def test_gradient_oracle_is_called_once_per_step(self, monkeypatch, name):
        # a wrapper of bench.forward_backward, as a tracer installs, sees
        # every gradient of the run with the model and batch leading
        seen = []

        def counting(*args):
            seen.append(args[:2])
            return forward_backward(*args)

        monkeypatch.setattr(bench, "forward_backward", counting)
        run_experiment(ExperimentConfig(optimizer=name, epochs=2, batch_size=8, dataset=TINY))
        steps = 2 * math.ceil(80 / 8)
        # as-written ssa1-ada evaluates the gradient twice per step
        assert len(seen) == steps * (2 if name == "ssa1-ada" else 1)
        assert all(type(m) is MlpModel and type(b) is Batch for m, b in seen)

    def test_oracle_keeps_one_gradient_per_evaluation_buffer(self, monkeypatch):
        # the oracle takes the gradient at the buffer a rule hands it, into
        # a gradient buffer kept for it; the model's own parameters are set
        # only for the evaluation after each epoch
        epochs, set_param_vector = 2, MlpModel.set_param_vector
        for name in sorted(OPTIMIZERS):
            set_calls, grads = [], {}

            def counting_set(model, theta):
                set_calls.append(theta)
                set_param_vector(model, theta)

            def keeping(model, batch, params, grad):
                returned = forward_backward(model, batch, params, grad)
                grads.setdefault(id(params.flat), (params.flat, []))[1].append(returned)
                return returned

            with monkeypatch.context() as patch:
                patch.setattr(MlpModel, "set_param_vector", counting_set)
                patch.setattr(bench, "forward_backward", keeping)
                run_experiment(ExperimentConfig(optimizer=name, epochs=epochs))  # desk scale
            assert len(set_calls) <= epochs, name
            # the two states' evaluation buffers, each with its own gradient
            assert len(grads) == 2, name
            kept = [returned[0] for _, returned in grads.values()]
            for point, returned in grads.values():
                assert len(returned) >= 32 and all(g is returned[0] for g in returned), name
                assert not any(np.shares_memory(point, g) for g in kept), name
            assert not np.shares_memory(kept[0], kept[1]), name

    @pytest.mark.parametrize("normalize", [True, False])
    def test_run_normalizes_the_loaded_sets_in_place(self, monkeypatch, normalize):
        loaded = []

        def keeping(spec, seed):
            loaded.extend(load_dataset_spec(spec, seed))
            return tuple(loaded)

        monkeypatch.setattr(bench, "load_dataset_spec", keeping)
        run_experiment(ExperimentConfig(epochs=1, dataset=TINY, normalize=normalize))
        for ds, fresh in zip(loaded, load_dataset_spec(TINY, 1)):
            expected = (fresh.images - 0.1307) / 0.3081 if normalize else fresh.images
            assert ds.images.tobytes() == expected.tobytes()

    def test_evaluate_on_a_checked_set(self):
        rng = np.random.default_rng(4)
        model = MlpModel.init((2, 5, 3), seed=1)
        X, y = rng.standard_normal((40, 2)), rng.integers(0, 3, size=40)
        log_probs = model.forward(X)
        loss, acc = _evaluate(model, Batch(X, y))
        assert loss == mean_target_nll(log_probs, y)
        assert acc == np.mean(np.argmax(log_probs, axis=1) == y)
        y[7] = 3  # at the class count: the pick fails
        with pytest.raises(ValueError, match="class count"):
            _evaluate(model, Batch(X, y))

    def test_divergence_aborts_with_partial_records(self):
        config = ExperimentConfig(optimizer="sgd", lr=1e160, epochs=4, dataset=TINY)
        with pytest.raises(TrainingDivergedError) as info:
            run_experiment(config)
        assert info.value.epoch <= 3
        assert isinstance(info.value.records, list)


def stepwise_study(step_counts, step):
    """The study as n checked steps per step size: the state goes through
    every flow of every step, and each defect is taken after its h."""
    sys = splitting.LinearSplitSystem(bench.STUDY_A, bench.STUDY_B)
    x0 = np.array([1.0, 0.0])
    exact = splitting.matrix_exp(bench.STUDY_A + bench.STUDY_B) @ x0
    errors, defects = [], []
    for n in step_counts:
        h = 1.0 / n
        x = x0.copy()
        for _ in range(n):
            x = step(sys, x, h)
        errors.append(float(np.linalg.norm(x - exact)))
        defects.append(splitting.splitting_defect(sys, h, step=step))
    orders = [
        float(np.log(errors[i] / errors[i + 1]) / np.log((1.0 / a) / (1.0 / b)))
        for i, (a, b) in enumerate(zip(step_counts, step_counts[1:]))
    ]
    return [(1.0 / n, d, o) for n, d, o in zip(step_counts, defects, orders + [None])]


STUDY_STEPS = {"lie": splitting.lie_split_step, "strang": splitting.strang_split_step}


class TestSplittingStudy:
    def test_lie_rows(self):
        rows = splitting_study(method="lie")
        assert len(rows) == len(bench.STUDY_STEP_COUNTS)
        for h, defect, order in rows[:-1]:
            assert defect > 0.0
            assert 0.8 <= order <= 1.2
        assert rows[-1][2] is None

    @pytest.mark.parametrize("method", ["lie", "strang"])
    def test_one_row_per_step_count(self, method):
        # the sweep is strictly increasing positive integers, so each
        # consecutive pair has an observed order and only the last row lacks one
        counts = bench.STUDY_STEP_COUNTS
        assert all(type(n) is int and n > 0 for n in counts)
        assert all(a < b for a, b in zip(counts, counts[1:]))
        rows = splitting_study(method=method)
        assert [h for h, _, _ in rows] == [1.0 / n for n in counts]
        assert all(defect > 0.0 for _, defect, _ in rows)
        assert [order is None for _, _, order in rows] == [False] * (len(counts) - 1) + [True]

    def test_strang_orders(self):
        rows = splitting_study(method="strang")
        for _, _, order in rows[:-1]:
            assert 1.8 <= order <= 2.2

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            splitting_study(method="leapfrog")

    @pytest.mark.parametrize("method", ["lie", "strang"])
    def test_one_exponential_per_operator_and_step_size(self, monkeypatch, method):
        # the exact solution at T = 1, then one stacked call each for the
        # A flows, the B flows and the defect's exact exponentials, each
        # holding every step size of the sweep
        calls, real = [], splitting.matrix_exp

        def counting(M):
            calls.append(M.shape)
            return real(M)

        monkeypatch.setattr("splitopt.splitting.matrix_exp", counting)
        monkeypatch.setattr("splitopt.bench.matrix_exp", counting)
        splitting_study(method=method)
        assert calls == [(2, 2)] + [(5, 2, 2)] * 3

    @pytest.mark.parametrize("method", ["lie", "strang"])
    def test_two_step_calls_per_study(self, monkeypatch, method):
        # one builds every propagator, the other is the defect's; each
        # takes the whole array of step sizes
        calls, name = [], f"{method}_split_step"
        real = getattr(splitting, name)

        def counting(sys, X, h):
            calls.append(np.array(h))
            return real(sys, X, h)

        monkeypatch.setattr(f"splitopt.bench.{name}", counting)
        splitting_study(method=method)
        expected = [1.0 / n for n in bench.STUDY_STEP_COUNTS]
        assert [h.tolist() for h in calls] == [expected, expected]

    def test_spectral_norm_runs_once_per_step_size(self, monkeypatch):
        calls, real = [], splitting.spectral_norm

        def counting(M):
            calls.append(np.shape(M))
            return real(M)

        monkeypatch.setattr("splitopt.splitting.spectral_norm", counting)
        splitting_study(method="strang")
        assert calls == [(2, 2)] * 5

    @pytest.mark.parametrize("method, defect_80, order_80", [
        ("lie", 7.812669543404026e-05, 1.0007313366154795),
        ("strang", 3.2552549576281606e-07, 1.9999654945137806),
    ])
    def test_returned_floats_are_pinned(self, method, defect_80, order_80):
        # the values from one step-size-at-a-time calls; the stacked calls
        # must reproduce them bit for bit
        rows = splitting_study(method=method)
        assert rows[3] == (0.0125, defect_80, order_80)
        assert all(type(v) is float for row in rows for v in row[:2])

    @pytest.mark.parametrize("method", ["lie", "strang"])
    def test_printed_rows_equal_the_stepwise_reference(self, capsys, method):
        rows = splitting_study(method=method)
        reference = stepwise_study((10, 20, 40, 80, 160), STUDY_STEPS[method])
        # h and the defect are computed as before, bit for bit
        assert [r[:2] for r in rows] == [r[:2] for r in reference]
        assert main(["splitting-study", "--method", method]) == 0
        expected = "h,defect,observed_order\n" + "".join(
            f"{h:.6g},{d:.6g}," + (f"{o:.6g}" if o is not None else "") + "\n"
            for h, d, o in reference
        )
        assert capsys.readouterr().out == expected

    @pytest.mark.parametrize("method", ["lie", "strang"])
    @pytest.mark.parametrize("n", [10, 20, 40, 80, 160])
    def test_propagated_state_stays_within_rounding_of_the_stepped_one(self, method, n):
        # A, B and x0 are entrywise nonnegative, so are the computed flows
        # (Taylor terms and squarings of a nonnegative matrix), every
        # product and every state: no sum cancels.  Each rounded 2x2
        # product then moves each entry by a factor within (1 +- u)^2, so
        # after K rounded products an entry lies within gamma_K =
        # K u / (1 - K u) of the same product taken exactly.  A step of m
        # factors is m rounded products, 2 m n factors over n steps.  The
        # propagator takes at most m products once, and each step applies
        # it once more, so x = P^n x0 carries at most 2 (m + 1) n.  Both
        # lie within their gamma of the exact e, and e <= x_step / (1 -
        # gamma_step), which bounds their distance by ||x_step||.
        assert (bench.STUDY_A >= 0).all() and (bench.STUDY_B >= 0).all()
        step = STUDY_STEPS[method]
        m = {"lie": 2, "strang": 3}[method]
        sys = splitting.LinearSplitSystem(bench.STUDY_A, bench.STUDY_B)
        h, x0 = 1.0 / n, np.array([1.0, 0.0])
        propagator = step(sys, np.eye(2), h)
        stepped, propagated = x0, x0
        for _ in range(n):
            stepped = step(sys, stepped, h)
            propagated = propagator @ propagated
        u = 2.0**-53

        def gamma(k):
            return k * u / (1 - k * u)

        bound = (gamma(2 * m * n) + gamma(2 * (m + 1) * n)) / (1 - gamma(2 * m * n))
        gap = np.max(np.abs(propagated - stepped))
        assert gap <= bound * np.max(np.abs(stepped)), (gap, bound)

    def test_strang_defect_is_strangs_own(self):
        lie = splitting_study(method="lie")
        strang = splitting_study(method="strang")
        assert all(s[1] < l[1] for l, s in zip(lie, strang))
        # local error O(h^3): the defect falls about 8x per halving of h
        ratios = [a[1] / b[1] for a, b in zip(strang, strang[1:])]
        assert all(7.5 <= r <= 8.5 for r in ratios), ratios


class TestCli:
    def test_run_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "metrics.csv"
        code = main(
            [
                "run", "--optimizer", "adam", "--epochs", "2",
                "--dataset", TINY, "--out", str(out), "--seed", "3",
            ]
        )
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0].startswith("epoch,train_loss")
        assert len(lines) == 3

    def test_run_stdout_when_no_out(self, capsys):
        code = main(["run", "--optimizer", "sgd", "--epochs", "1", "--dataset", TINY])
        assert code == 0
        assert capsys.readouterr().out.startswith("epoch,train_loss")

    def test_timing_subcommand(self, tmp_path, capsys):
        metrics = tmp_path / "metrics.csv"
        write_metrics(
            [MetricsRecord(i, 0.5, 0.9, 0.5, 0.9, float(i + 1)) for i in range(4)], metrics
        )
        code = main(["timing", "--in", str(metrics)])
        assert code == 0
        out = capsys.readouterr().out.strip().split("\n")
        assert out[0] == "mean,std,min,q25,q50,q75,max,sum"
        values = dict(zip(out[0].split(","), map(float, out[1].split(","))))
        assert values["mean"] == pytest.approx(2.5)
        assert values["sum"] == pytest.approx(10.0)

    def test_timing_reads_column(self, tmp_path):
        metrics = tmp_path / "metrics.csv"
        write_metrics([MetricsRecord(0, 1, 1, 1, 1, 0.25)], metrics)
        assert read_timing_column(str(metrics)) == [0.25]

    def test_timing_out_matches_stdout(self, tmp_path, capsys):
        metrics, table = tmp_path / "metrics.csv", tmp_path / "table.csv"
        write_metrics([MetricsRecord(i, 0.5, 0.9, 0.5, 0.9, float(i + 1)) for i in range(4)],
                      metrics)
        assert main(["timing", "--in", str(metrics)]) == 0
        printed = capsys.readouterr().out
        assert main(["timing", "--in", str(metrics), "--out", str(table)]) == 0
        assert capsys.readouterr().out == ""
        assert table.read_text() == printed
        assert printed.startswith("mean,std,min,q25,q50,q75,max,sum\n2.5,")

    def test_splitting_study_subcommand(self, tmp_path):
        out = tmp_path / "study.csv"
        assert main(["splitting-study", "--out", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "h,defect,observed_order"
        assert len(lines) >= 4

    @pytest.mark.parametrize("method", ["lie", "strang"])
    def test_splitting_study_stdout_matches_out(self, tmp_path, capsys, method):
        out = tmp_path / "study.csv"
        assert main(["splitting-study", "--method", method]) == 0
        printed = capsys.readouterr().out
        assert main(["splitting-study", "--method", method, "--out", str(out)]) == 0
        assert out.read_text() == printed
        assert printed.count("\n") == 6 and printed.startswith("h,defect,observed_order\n0.1,")

    @pytest.mark.parametrize("sep", ["nan", "inf"])
    def test_non_finite_separation_exits_2(self, sep, capsys):
        code = main(
            ["run", "--optimizer", "sgd", "--epochs", "1",
             "--dataset", f"synth:per_class=40,classes=2,dim=2,sep={sep}"]
        )
        assert code == 2
        assert "separation must be positive and finite" in capsys.readouterr().err

    def test_loss_is_not_an_option(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--loss", "nll", "--epochs", "1", "--dataset", TINY])
        assert exc.value.code == 2
        config = tmp_path / "run.conf"
        config.write_text(f"dataset = {TINY}\nloss = nll\n")
        assert main(["run", "--config", str(config)]) == 2
        assert "bad config line" in capsys.readouterr().err

    def test_missing_idx_file_exits_4(self, capsys):
        code = main(
            ["run", "--optimizer", "sgd", "--epochs", "1",
             "--dataset", "idx:nope1,nope2,nope3,nope4"]
        )
        assert code == 4

    def test_idx_images_without_pixels_exit_4(self, tmp_path, capsys):
        images, labels = tmp_path / "images", tmp_path / "labels"
        # images of 0x28 pixels, then a well-formed pair that holds no images
        for count, rows, cols in [(2, 0, 28), (0, 28, 28)]:
            images.write_bytes(struct.pack(">IIII", 0x00000803, count, rows, cols))
            labels.write_bytes(struct.pack(">II", 0x00000801, count) + bytes(range(count)))
            spec = f"idx:{images},{labels},{images},{labels}"
            assert main(["run", "--optimizer", "sgd", "--epochs", "1", "--dataset", spec]) == 4
            assert "no pixels" in capsys.readouterr().err

    def test_idx_pair_of_different_image_sizes_exits_4_before_training(
        self, tmp_path, capsys, monkeypatch
    ):
        # 28x28 train images against 20x20 test images
        paths = []
        for name, side in (("train", 28), ("test", 20)):
            images, labels = tmp_path / f"{name}-images", tmp_path / f"{name}-labels"
            images.write_bytes(
                struct.pack(">IIII", 0x00000803, 4, side, side) + bytes(4 * side * side)
            )
            labels.write_bytes(struct.pack(">II", 0x00000801, 4) + bytes([0, 1, 0, 1]))
            paths += [str(images), str(labels)]

        def no_model(*args, **kwargs):
            raise AssertionError("a model was built for a mismatched pair")

        monkeypatch.setattr("splitopt.bench.MlpModel.init", no_model)
        out = tmp_path / "metrics.csv"
        code = main(["run", "--optimizer", "sgd", "--epochs", "1",
                     "--dataset", "idx:" + ",".join(paths), "--out", str(out)])
        assert code == 4
        err = capsys.readouterr().err
        assert "784" in err and "400" in err
        assert not out.exists()

    @pytest.mark.parametrize("row, shown", [
        ("1,0.5,0.9,0.5,0.9,nan", "nan"), ("1,0.5,0.9,0.5,0.9,-3", "-3.0"),
        ("1,0.5,0.9,0.5,0.9,inf", "inf"), ("1,0.5", "'1,0.5'"),
        ("1,0.5,0.9,0.5,0.9,abc", "'abc' is not a number"),
    ])
    def test_timing_rejects_invalid_times(self, tmp_path, capsys, row, shown):
        metrics = tmp_path / "metrics.csv"
        metrics.write_text(
            f"epoch,train_loss,train_acc,test_loss,test_acc,epoch_time_s\n"
            f"0,0.5,0.9,0.5,0.9,0.25\n{row}\n"
        )
        assert main(["timing", "--in", str(metrics)]) == 2
        err = capsys.readouterr().err
        assert str(metrics) in err and shown in err

    def test_timing_of_a_header_only_file_names_it(self, tmp_path, capsys):
        metrics = tmp_path / "metrics.csv"
        write_metrics([], metrics)
        assert main(["timing", "--in", str(metrics)]) == 2
        err = capsys.readouterr().err
        assert str(metrics) in err and "no epoch_time_s values" in err

    def test_timing_without_the_column_names_the_file(self, tmp_path, capsys):
        metrics = tmp_path / "metrics.csv"
        metrics.write_text("epoch,train_loss\n0,0.5\n")
        assert main(["timing", "--in", str(metrics)]) == 2
        err = capsys.readouterr().err
        assert str(metrics) in err and "no epoch_time_s column" in err

    def test_divergence_exits_3_and_flushes(self, tmp_path, capsys):
        out = tmp_path / "partial.csv"
        code = main(
            ["run", "--optimizer", "sgd", "--lr", "1e160", "--epochs", "3",
             "--dataset", TINY, "--out", str(out)]
        )
        assert code == 3
        assert out.exists()

    # ssa2 at this step size overflows in its fourth epoch
    DIVERGED = ["run", "--optimizer", "ssa2", "--lr", "3162277660.1683793", "--epochs", "4",
                "--dataset", TINY]

    @pytest.mark.parametrize("argv", [["run", "--epochs", "300"], DIVERGED],
                             ids=["run", "diverged-run"])
    def test_unwritable_out_exits_4_before_data_loads(self, tmp_path, capsys, monkeypatch, argv):
        def no_data(*args, **kwargs):
            raise AssertionError("data was loaded for an unwritable --out")

        monkeypatch.setattr("splitopt.bench.load_dataset_spec", no_data)
        assert main([*argv, "--out", str(tmp_path / "nodir" / "m.csv")]) == 4
        assert "nodir" in capsys.readouterr().err
        assert main([*argv, "--out", str(tmp_path)]) == 4  # a directory
        assert list(tmp_path.iterdir()) == []

    def test_diverged_run_with_a_writable_out_exits_3_and_writes_its_epochs(
        self, tmp_path, capsys
    ):
        out = tmp_path / "m.csv"
        assert main([*self.DIVERGED, "--out", str(out)]) == 3
        lines = out.read_text().splitlines()
        assert lines[0] == ",".join(METRICS_HEADER)
        assert [line.split(",")[0] for line in lines[1:]] == ["0", "1", "2"]
        assert capsys.readouterr().out == ""

    def test_diverged_run_without_out_prints_its_records(self, capsys):
        assert main(self.DIVERGED) == 3
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        assert lines[0] == "epoch,train_loss,train_acc,test_loss,test_acc,epoch_time_s"
        assert [line.split(",")[0] for line in lines[1:]] == ["0", "1", "2"]
        assert "(3 epochs flushed)" in captured.err

    @pytest.mark.parametrize("argv, code, n_lines", [
        (["run", "--epochs", "2", "--dataset", TINY], 0, 3),
        (DIVERGED, 3, 4),
        (["timing", "--in", "METRICS"], 0, 2),
        (["splitting-study", "--method", "lie"], 0, 6),
        (["splitting-study", "--method", "strang"], 0, 6),
    ], ids=["run", "diverged-run", "timing", "study-lie", "study-strang"])
    def test_every_subcommand_writes_once_through_emit_metrics(
        self, tmp_path, capsys, monkeypatch, argv, code, n_lines
    ):
        calls = []

        def counted(*args):
            calls.append(args)
            emit_metrics(*args)

        metrics, out = tmp_path / "metrics.csv", tmp_path / "out.csv"
        write_metrics([MetricsRecord(i, 0.5, 0.9, 0.5, 0.9, i + 0.5) for i in range(3)], metrics)
        argv = [str(metrics) if arg == "METRICS" else arg for arg in argv]
        monkeypatch.setattr("splitopt.cli.emit_metrics", counted)
        assert main(argv) == code and len(calls) == 1
        printed = capsys.readouterr().out
        assert main([*argv, "--out", str(out)]) == code and len(calls) == 2
        assert capsys.readouterr().out == ""

        def without_times(text):  # a run's wall-time column differs between runs
            lines = text.splitlines(keepends=True)
            return [line.rsplit(",", 1)[0] for line in lines] if argv[0] == "run" else lines

        assert len(printed.splitlines()) == n_lines
        assert without_times(out.read_text()) == without_times(printed)

    def test_config_file_defaults_and_flag_override(self, tmp_path, capsys):
        config = tmp_path / "run.conf"
        config.write_text(
            "optimizer = adam\n"
            "epochs = 1\n"
            f"dataset = {TINY}\n"
            "# a comment line\n"
            "lr = 0.5\n"
        )
        out = tmp_path / "m.csv"
        code = main(
            ["run", "--config", str(config), "--lr", "0.001", "--out", str(out)]
        )
        assert code == 0
        assert out.exists()

    @pytest.mark.parametrize(
        "line, message",
        [
            ("nesterov_form = bogus", "bad config line 'nesterov_form = bogus'"),
            ("optimizer = ssa1-ada\nvariant = bogus", "unknown variant"),
            ("momentum = sideways", "neither a float"),
            ("momentum = 1.5", "constant beta"),
            ("optimizer = sgd\nmomentum = 0.9", "sgd takes no momentum option"),
            ("optimizer = sgd\nvariant = z-first", "sgd takes no variant option"),
            ("optimizer = adam\ngamma = 0.5", "adam takes no gamma option"),
            ("optimizer = adam\neps = -1", "eps must be positive"),
            ("optimizer = polyak\nmomentum = 1", "alpha must lie in [0, 1)"),
            ("optimizer = ssa1\nlr = 0", "step size must be positive"),
            ("optimizer = ssa1\nk = -1", "velocity exponent must be nonnegative"),
            ("optimizer = adadelta\ngamma = 1.5", "decay rate must lie in (0, 1)"),
            ("lr = 0", "step size must be positive"),
            ("normalize = ture", "normalize: expected one of true/false/yes/no/1/0"),
            ("optimizer = ssa1\nlr = nan", "step size must be positive"),
            ("optimizer = sgd\nlr = nan", "step size must be nonnegative"),
            ("optimizer = adam\neps = nan", "eps must be positive"),
            ("optimizer = ssa1\nk = nan", "velocity exponent must be nonnegative"),
            ("seed = -1", "seed must be nonnegative"),
        ],
    )
    def test_bad_config_value_exits_2_before_data_loads(
        self, tmp_path, capsys, line, message
    ):
        # the missing idx files would exit 4 if the dataset were touched; a
        # line that names no optimizer is read for nesterov
        config = tmp_path / "run.conf"
        default = "" if line.startswith("optimizer") else "optimizer = nesterov\n"
        config.write_text(f"{default}dataset = idx:nope1,nope2,nope3,nope4\n{line}\n")
        assert main(["run", "--config", str(config)]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("flags, message", [
        (["--optimizer", "bogus"], "unknown optimizer 'bogus'; choose from ['adadelta',"),
        (["--optimizer", "ssa1-ada", "--variant", "bogus"],
         "unknown variant 'bogus'; choose from ('as-written', 'z-first')"),
    ], ids=["optimizer", "variant"])
    def test_bad_flag_value_exits_2_before_data_loads(self, capsys, flags, message):
        # argparse has no choices to check: main returns 2 from the one check
        # each value meets, as it does for a config line
        assert main(["run", *flags, "--dataset", MISSING_IDX]) == 2
        assert message in capsys.readouterr().err

    # values that each optimizer option's type accepts; a text option also
    # takes one that no step rule knows
    UNTAKEN_VALUES = {
        "k": ["1"], "momentum": ["0.5", "bogus"], "gamma": ["0.5"], "eps": ["1e-8"],
        "variant": ["z-first", "bogus"],
    }

    @pytest.mark.parametrize(
        "optimizer, option",
        [(name, option) for name, row in OPTIMIZERS.items()
         for option in bench.OPTION_FIELDS if option not in row[1]],
        ids=lambda value: value,
    )
    def test_every_option_an_optimizer_does_not_take_exits_2(
        self, tmp_path, capsys, optimizer, option
    ):
        assert main(["run", "--optimizer", optimizer, "--dataset", MISSING_IDX]) == 4
        capsys.readouterr()
        message = f"{optimizer} takes no {option} option"
        config = tmp_path / "run.conf"
        for value in self.UNTAKEN_VALUES[option]:
            flag = ["--" + option.replace("_", "-"), value]
            assert main(["run", "--optimizer", optimizer, *flag, "--dataset", MISSING_IDX]) == 2
            assert message in capsys.readouterr().err
            config.write_text(
                f"optimizer = {optimizer}\ndataset = {MISSING_IDX}\n{option} = {value}\n"
            )
            assert main(["run", "--config", str(config)]) == 2
            assert message in capsys.readouterr().err

    @pytest.mark.parametrize("columns", ["80", "200"])
    def test_run_help_names_every_choice(self, capsys, monkeypatch, columns):
        # the usage line shows no choices, so the help text must name them,
        # each whole: the help wraps at whitespace, never at a name's hyphen
        monkeypatch.setenv("COLUMNS", columns)
        with pytest.raises(SystemExit) as exc:
            main(["run", "--help"])
        assert exc.value.code == 0
        words = set(re.split(r"[\s,()]+", capsys.readouterr().out))
        optimizers = ["sgd", "polyak", "nesterov", "ssa1", "ssa2", "ssa1-const", "ssa2-const",
                      "adagrad", "adadelta", "rmsprop", "adam", "ssa1-ada"]
        assert sorted(optimizers) == sorted(OPTIMIZERS)
        for name in optimizers + ["as-written", "z-first", *bench.MOMENTUM_KINDS]:
            assert name in words

    @pytest.mark.parametrize("value", ["velocity", "two-sequence"])
    def test_nesterov_form_is_no_run_option(self, tmp_path, capsys, value):
        # both forms give the same iterates, so the option is gone: a flag is
        # an argparse usage error and a config line a bad one, before data loads
        flags = ["run", "--optimizer", "nesterov", "--dataset", MISSING_IDX]
        with pytest.raises(SystemExit) as exc:
            main([*flags, "--nesterov-form", value])
        assert exc.value.code == 2
        assert "unrecognized arguments: --nesterov-form" in capsys.readouterr().err
        config = tmp_path / "run.conf"
        config.write_text(f"nesterov_form = {value}\n")
        assert main([*flags, "--config", str(config)]) == 2
        assert f"bad config line 'nesterov_form = {value}'" in capsys.readouterr().err

    def test_config_comments_start_at_a_line_or_after_whitespace(self, tmp_path, capsys):
        out = tmp_path / "a#1.csv"
        config = tmp_path / "run.conf"
        config.write_text(
            "# a comment line\n"
            "  # an indented one\n"
            "optimizer = sgd\n"
            "epochs = 1\n"
            f"dataset = {TINY}\n"
            "lr = 0.5  # note\n"
            "seed = 3\t# after a tab\n"
            f"out = {out}\n"
        )
        values = _load_config_file(str(config))
        assert values["lr"] == 0.5 and values["seed"] == 3 and values["out"] == str(out)
        assert main(["run", "--config", str(config)]) == 0
        assert out.read_text().startswith("epoch,train_loss")
        assert not (tmp_path / "a").exists()
        # a '#' glued to a value is part of it
        config.write_text("lr = 0.5#note\n")
        assert main(["run", "--config", str(config)]) == 2
        assert "lr: could not convert string to float: '0.5#note'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags", [["--optimizer", "sgd", "--lr", "0"], ["--optimizer", "ssa1-ada", "--momentum", "1"]]
    )
    def test_boundary_values_still_run(self, flags, capsys):
        assert main(["run", *flags, "--epochs", "1", "--dataset", TINY]) == 0

    def test_normalize_false_in_config_matches_no_normalize_flag(self, tmp_path, capsys):
        def metrics(*args):
            out = tmp_path / "m.csv"
            flags = ["--optimizer", "sgd", "--lr", "0.1", "--epochs", "2", "--dataset", TINY]
            assert main(["run", *flags, "--out", str(out), *args]) == 0
            # every column but the wall time is deterministic
            return [line.rsplit(",", 1)[0] for line in out.read_text().splitlines()]

        config = tmp_path / "run.conf"
        config.write_text("normalize = false\n")
        from_config = metrics("--config", str(config))
        assert from_config == metrics("--no-normalize")
        assert from_config != metrics()

    def test_every_config_field_is_a_flag_and_a_config_key(self, tmp_path):
        names = {f.name for f in dataclasses.fields(ExperimentConfig)}
        flags = vars(_build_parser().parse_args(["run"]))
        assert names == set(flags) - {"command", "config"}
        config = tmp_path / "run.conf"
        config.write_text("".join(f"{name} = 1\n" for name in names))
        assert set(_load_config_file(str(config))) == names

    @pytest.mark.parametrize("spec, message", [
        ("synth:dim=2,dim=3", "synth parameter 'dim' is given twice"),
        ("synth:dim", "synth parameter 'dim': invalid literal"),
        ("synth:sep=", "synth parameter 'sep': could not convert"),
    ])
    def test_bad_synth_spec_exits_2_before_data_loads(self, capsys, monkeypatch, spec, message):
        def no_data(*args, **kwargs):
            raise AssertionError("synth data was drawn for a bad spec")

        monkeypatch.setattr("splitopt.bench.synth_blobs", no_data)
        assert main(["run", "--optimizer", "sgd", "--epochs", "1", "--dataset", spec]) == 2
        assert message in capsys.readouterr().err

    def test_synth_class_means_beyond_float64_exit_2_without_warnings(self, capsys):
        # four classes 1e308 apart in two dimensions: the last mean overflows
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["run", "--optimizer", "sgd", "--epochs", "1",
                         "--dataset", "synth:classes=4,sep=1e308"])
        assert code == 2
        assert "separation 1e+308 over 4 classes overflows float64" in capsys.readouterr().err

    @pytest.mark.parametrize("lines", [
        "batch-size = 8\nbatch_size = 16\n", "lr = 0.1\nepochs = 1\nlr = 0.2\n",
    ])
    def test_repeated_config_key_exits_2_before_data_loads(self, tmp_path, capsys, lines):
        config = tmp_path / "run.conf"
        config.write_text(f"dataset = {MISSING_IDX}\n{lines}")
        assert main(["run", "--config", str(config)]) == 2
        key = lines.split(" ")[0].replace("-", "_")
        line = len(lines.splitlines()) + 1
        assert f"{config}:{line}: {key} is given twice" in capsys.readouterr().err

    def test_bad_config_line(self, tmp_path, capsys):
        config = tmp_path / "run.conf"
        config.write_text("nonsense == = yes\n")
        assert main(["run", "--config", str(config)]) == 2
