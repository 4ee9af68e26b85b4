"""Unit tests for the experiment runner, timing statistics, and CLI."""

import dataclasses
import math

import numpy as np
import pytest

from splitopt.bench import (
    ExperimentConfig,
    OPTIMIZERS,
    TrainingDivergedError,
    emit_metrics,
    format_metrics,
    load_dataset_spec,
    make_stepper,
    MetricsRecord,
    parse_momentum,
    read_timing_column,
    run_experiment,
    splitting_study,
    timing_stats,
)
from splitopt import adaptive as ad
from splitopt import optimizers as opt
from splitopt.cli import _build_parser, _load_config_file, main
from splitopt.datasets import dataset_to_idx, synth_blobs

TINY = "synth:per_class=40,classes=2,dim=2,sep=6"
OPTIMIZER_DEFAULT_LR = {name: lr for name, (lr, _) in OPTIMIZERS.items()}


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


class TestEmitMetrics:
    def test_empty_records_header_only(self, tmp_path):
        path = tmp_path / "m.csv"
        emit_metrics([], str(path))
        assert path.read_text() == (
            "epoch,train_loss,train_acc,test_loss,test_acc,epoch_time_s\n"
        )

    def test_line_count(self):
        records = [
            MetricsRecord(0, 1.0, 0.5, 1.1, 0.4, 0.01),
            MetricsRecord(1, 0.9, 0.6, 1.0, 0.5, 0.02),
        ]
        assert len(format_metrics(records).strip().split("\n")) == 3

    def test_round_trip_within_six_significant_digits(self, tmp_path):
        record = MetricsRecord(3, 0.123456789, 0.98765432, 1.23456789e-4, 1.0, 7.5)
        path = tmp_path / "m.csv"
        emit_metrics([record], str(path))
        fields = path.read_text().strip().split("\n")[1].split(",")
        back = [float(x) for x in fields]
        originals = [3, 0.123456789, 0.98765432, 1.23456789e-4, 1.0, 7.5]
        for got, want in zip(back, originals):
            assert got == pytest.approx(want, rel=1e-5)


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
                nesterov_form="two-sequence",
                epochs=1,
            ),
            ExperimentConfig(optimizer="ssa1-ada", variant="z-first", epochs=1),
            ExperimentConfig(optimizer="ssa2-const", momentum="0.9", epochs=1),
        ]
        for config in configs:
            stepper = make_stepper(config, theta0)
            theta = stepper(grad)
            assert np.all(np.isfinite(theta))


HALF = opt.MomentumSchedule.constant(0.5)
RATIO = opt.MomentumSchedule.ratio_n_over_n_plus_3()
SPLIT = opt.SplitHyperParams(h=1e-3, k=2.0)
U, THETA = (lambda s: s.u), (lambda s: s.theta)
# optimizer -> (initial state, one step, parameter vector of a state): direct
# calls of each step rule with the defaults the README documents
DIRECT = {
    "sgd": (np.copy, lambda s, g: opt.minibatch_sgd_step(s, g(s), 1e-3), lambda s: s),
    "polyak": (opt.InertialState.at_rest, lambda s, g: opt.polyak_step(s, g(s.u), 0.5, 1e-2), U),
    "nesterov": (
        opt.InertialState.at_rest,
        lambda s, g: opt.nesterov_step(s, g, 1e-3, HALF, form="velocity"),
        U,
    ),
    "ssa1": (opt.InertialState.at_rest, lambda s, g: opt.ssa1_step(s, g, SPLIT, RATIO), U),
    "ssa2": (opt.InertialState.at_rest, lambda s, g: opt.ssa2_step(s, g, SPLIT, RATIO), U),
    "ssa1-const": (opt.InertialState.at_rest, lambda s, g: opt.ssa1_step(s, g, SPLIT, HALF), U),
    "ssa2-const": (opt.InertialState.at_rest, lambda s, g: opt.ssa2_step(s, g, SPLIT, HALF), U),
    "adagrad": (
        ad.AdaptiveState.fresh,
        lambda s, g: ad.adagrad_step(s, g(s.theta), ad.AdaptiveHyperParams(h=1e-3, eps=1e-8)),
        THETA,
    ),
    "adadelta": (
        ad.AdaptiveState.fresh,
        lambda s, g: ad.adadelta_step(
            s, g(s.theta), ad.AdaptiveHyperParams(h=1.0, gamma=0.9, eps=1e-6)
        ),
        THETA,
    ),
    "rmsprop": (
        ad.AdaptiveState.fresh,
        lambda s, g: ad.rmsprop_step(
            s, g(s.theta), ad.AdaptiveHyperParams(h=1e-3, gamma=0.9, eps=1e-8)
        ),
        THETA,
    ),
    "adam": (
        ad.AdaptiveState.fresh,
        lambda s, g: ad.adam_step(s, g(s.theta), ad.AdaptiveHyperParams(h=1e-3, eps=1e-8)),
        THETA,
    ),
    "ssa1-ada": (
        ad.AdaptiveState.fresh,
        lambda s, g: ad.ssa1_ada_step(
            s, g, ad.AdaptiveHyperParams(h=1.0, gamma=0.9, eps=1e-6, k=2.0), RATIO,
            variant="as-written",
        ),
        THETA,
    ),
}


def test_table_defaults_match_direct_rule_calls():
    assert set(DIRECT) == set(OPTIMIZERS)
    grad = lambda t: np.array([1.0, 4.0, 9.0]) * t - 1.0
    theta0 = np.array([1.0, -2.0, 0.5])
    for name, (init, advance, params) in DIRECT.items():
        stepper = make_stepper(ExperimentConfig(optimizer=name), theta0)
        state = init(theta0)
        for _ in range(5):
            state = advance(state, grad)
            assert stepper(grad).tobytes() == params(state).tobytes(), name


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
        assert ExperimentConfig(optimizer="adadelta").resolved_lr == 1.0
        assert ExperimentConfig(optimizer="adadelta", lr=0.3).resolved_lr == 0.3


class TestDatasetSpecs:
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

    def test_divergence_aborts_with_partial_records(self):
        config = ExperimentConfig(optimizer="sgd", lr=1e160, epochs=4, dataset=TINY)
        with pytest.raises(TrainingDivergedError) as info:
            run_experiment(config)
        assert info.value.epoch <= 3
        assert isinstance(info.value.records, list)


class TestSplittingStudy:
    def test_lie_rows(self):
        rows = splitting_study(step_counts=(10, 20, 40, 80), method="lie")
        assert len(rows) == 4
        for h, defect, order in rows[:-1]:
            assert defect > 0.0
            assert 0.8 <= order <= 1.2
        assert rows[-1][2] is None

    def test_strang_orders(self):
        rows = splitting_study(step_counts=(10, 20, 40), method="strang")
        for _, _, order in rows[:-1]:
            assert 1.8 <= order <= 2.2

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            splitting_study(method="leapfrog")

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
        emit_metrics(
            [MetricsRecord(i, 0.5, 0.9, 0.5, 0.9, float(i + 1)) for i in range(4)],
            str(metrics),
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
        emit_metrics([MetricsRecord(0, 1, 1, 1, 1, 0.25)], str(metrics))
        assert read_timing_column(str(metrics)) == [0.25]

    def test_timing_out_matches_stdout(self, tmp_path, capsys):
        metrics, table = tmp_path / "metrics.csv", tmp_path / "table.csv"
        emit_metrics([MetricsRecord(i, 0.5, 0.9, 0.5, 0.9, float(i + 1)) for i in range(4)],
                     str(metrics))
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

    def test_divergence_exits_3_and_flushes(self, tmp_path, capsys):
        out = tmp_path / "partial.csv"
        code = main(
            ["run", "--optimizer", "sgd", "--lr", "1e160", "--epochs", "3",
             "--dataset", TINY, "--out", str(out)]
        )
        assert code == 3
        assert out.exists()

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
            ("nesterov_form = bogus", "unknown nesterov form"),
            ("variant = bogus", "unknown variant"),
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
        # the missing idx files would exit 4 if the dataset were touched
        config = tmp_path / "run.conf"
        config.write_text(
            f"optimizer = nesterov\ndataset = idx:nope1,nope2,nope3,nope4\n{line}\n"
        )
        assert main(["run", "--config", str(config)]) == 2
        assert message in capsys.readouterr().err

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

    def test_bad_config_line(self, tmp_path, capsys):
        config = tmp_path / "run.conf"
        config.write_text("nonsense == = yes\n")
        assert main(["run", "--config", str(config)]) == 2
