"""Experiment runner and measurement utilities.

Wires the datasets, the MLP, and the optimizer step functions into the
epoch/mini-batch training protocol: seeded shuffling, one optimizer step
per batch, frozen full-set evaluation after every epoch, and CSV metric
emission.  Also provides the wall-time summary statistics and the
splitting defect/order sweep backing the CLI subcommands.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from . import adaptive as ad
from . import optimizers as opt
from .datasets import Dataset, load_idx, synth_blobs
from .nn import Batch, MlpModel, epoch_batches, forward_backward, nll_loss, normalize
from .splitting import LinearSplitSystem, lie_split_step, matrix_exp, splitting_defect, strang_split_step

HIDDEN_UNITS = 32  # fixed desk-scale architecture: input -> 32 rectified -> classes


class TrainingDivergedError(RuntimeError):
    """Non-finite loss during training; carries the records completed so far."""

    def __init__(self, epoch: int, records: List["MetricsRecord"]):
        super().__init__(f"non-finite loss at epoch {epoch}")
        self.epoch = epoch
        self.records = records


@dataclass
class ExperimentConfig:
    optimizer: str = "sgd"
    lr: Optional[float] = None          # None -> registry default
    k: float = 2.0
    momentum: Optional[str] = None      # float literal or schedule kind
    gamma: float = 0.9
    eps: Optional[float] = None         # None -> per-optimizer default
    variant: str = "as-written"
    nesterov_form: str = "velocity"
    epochs: int = 10
    batch_size: int = 32
    seed: int = 1
    dataset: str = "synth:per_class=500,classes=2,dim=2,sep=6"
    loss: str = "nll"
    out: Optional[str] = None
    normalize: bool = True

    def __post_init__(self):
        if self.optimizer not in OPTIMIZER_DEFAULT_LR:
            raise ValueError(
                f"unknown optimizer {self.optimizer!r}; "
                f"choose from {sorted(OPTIMIZER_DEFAULT_LR)}"
            )
        if self.epochs < 1:
            raise ValueError(f"epochs must be at least 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch size must be at least 1, got {self.batch_size}")
        if self.loss not in ("nll", "xent"):
            raise ValueError(f"unknown loss {self.loss!r}")
        if self.nesterov_form not in opt.NESTEROV_FORMS:
            raise ValueError(
                f"unknown nesterov form {self.nesterov_form!r}; "
                f"choose from {opt.NESTEROV_FORMS}"
            )
        if self.variant not in ad.SSA1_ADA_VARIANTS:
            raise ValueError(
                f"unknown variant {self.variant!r}; choose from {ad.SSA1_ADA_VARIANTS}"
            )
        if self.momentum is not None:
            parse_momentum(self.momentum)

    @property
    def resolved_lr(self) -> float:
        return OPTIMIZER_DEFAULT_LR[self.optimizer] if self.lr is None else self.lr


@dataclass
class MetricsRecord:
    epoch: int
    train_loss: float
    train_acc: float
    test_loss: float
    test_acc: float
    epoch_time_s: float


@dataclass(frozen=True)
class TimingStats:
    mean: float
    std: float
    min: float
    q25: float
    q50: float
    q75: float
    max: float
    sum: float


# --- optimizer registry ------------------------------------------------------

# Learning-rate defaults mirror the benchmark protocol: 1.0 for the
# Adadelta-style adaptive pair, 1e-3 elsewhere (1e-2 for heavy ball).
OPTIMIZER_DEFAULT_LR = {
    "sgd": 1e-3,
    "polyak": 1e-2,
    "nesterov": 1e-3,
    "ssa1": 1e-3,
    "ssa2": 1e-3,
    "ssa1-const": 1e-3,
    "ssa2-const": 1e-3,
    "adagrad": 1e-3,
    "adadelta": 1.0,
    "rmsprop": 1e-3,
    "adam": 1e-3,
    "ssa1-ada": 1.0,
}

_DEFAULT_MOMENTUM = {
    "polyak": "0.5",
    "nesterov": "0.5",
    "ssa1": opt.RATIO_N_OVER_N3,
    "ssa2": opt.RATIO_N_OVER_N3,
    "ssa1-const": "0.5",
    "ssa2-const": "0.5",
    "ssa1-ada": opt.RATIO_N_OVER_N3,
}

_DEFAULT_EPS = {
    "adagrad": ad.DEFAULT_EPS,
    "rmsprop": ad.DEFAULT_EPS,
    "adam": ad.DEFAULT_EPS,
    "adadelta": ad.ADADELTA_EPS,
    "ssa1-ada": ad.ADADELTA_EPS,
}

# --momentum schedule kinds; any other text must be a float literal
MOMENTUM_KINDS = (opt.RATIO_N_OVER_N3, opt.RATIO_NM1_OVER_N2)

GradFn = Callable[[np.ndarray], np.ndarray]
Stepper = Callable[[GradFn], np.ndarray]


def parse_momentum(text: str) -> opt.MomentumSchedule:
    """A schedule kind token, or a float literal for a constant coefficient."""
    if text in MOMENTUM_KINDS:
        return opt.MomentumSchedule(text)
    try:
        beta = float(text)
    except ValueError:
        raise ValueError(
            f"momentum {text!r} is neither a float nor one of {MOMENTUM_KINDS}"
        ) from None
    return opt.MomentumSchedule.constant(beta)


def make_stepper(config: ExperimentConfig, theta0: np.ndarray) -> Stepper:
    """Stateful closure advancing theta one mini-batch at a time.

    The returned callable takes a gradient oracle for the current batch
    (evaluable at any point, as the inertial methods require) and returns
    the updated parameter vector.
    """
    name = config.optimizer
    h = config.resolved_lr
    momentum = config.momentum or _DEFAULT_MOMENTUM.get(name)
    schedule = parse_momentum(momentum) if momentum is not None else None

    if name == "sgd":
        theta = theta0.copy()

        def step(grad_fn: GradFn) -> np.ndarray:
            nonlocal theta
            theta = opt.minibatch_sgd_step(theta, grad_fn(theta), h)
            return theta

        return step

    if name == "polyak":
        state = opt.InertialState.at_rest(theta0)

        def step(grad_fn: GradFn) -> np.ndarray:
            nonlocal state
            alpha = opt.momentum_coefficient(state.n, schedule)
            state = opt.polyak_step(state, grad_fn(state.u), alpha, h)
            return state.u

        return step

    if name == "nesterov":
        state = opt.InertialState.at_rest(theta0)
        form = config.nesterov_form

        def step(grad_fn: GradFn) -> np.ndarray:
            nonlocal state
            state = opt.nesterov_step(state, grad_fn, h, schedule, form=form)
            return state.u

        return step

    if name in ("ssa1", "ssa1-const", "ssa2", "ssa2-const"):
        state = opt.InertialState.at_rest(theta0)
        hp = opt.SplitHyperParams(h=h, k=config.k)
        step_fn = opt.ssa1_step if name.startswith("ssa1") else opt.ssa2_step

        def step(grad_fn: GradFn) -> np.ndarray:
            nonlocal state
            state = step_fn(state, grad_fn, hp, schedule)
            return state.u

        return step

    # adaptive family
    hp = ad.AdaptiveHyperParams(
        h=h,
        gamma=config.gamma,
        eps=config.eps if config.eps is not None else _DEFAULT_EPS[name],
        k=config.k,
    )
    state = ad.AdaptiveState.fresh(theta0)

    if name == "ssa1-ada":
        variant = config.variant

        def step(grad_fn: GradFn) -> np.ndarray:
            nonlocal state
            state = ad.ssa1_ada_step(state, grad_fn, hp, schedule, variant=variant)
            return state.theta

        return step

    plain = {
        "adagrad": ad.adagrad_step,
        "adadelta": ad.adadelta_step,
        "rmsprop": ad.rmsprop_step,
        "adam": ad.adam_step,
    }[name]

    def step(grad_fn: GradFn) -> np.ndarray:
        nonlocal state
        state = plain(state, grad_fn(state.theta), hp)
        return state.theta

    return step


# --- dataset specs -----------------------------------------------------------


def load_dataset_spec(spec: str, seed: int) -> Tuple[Dataset, Dataset]:
    """Train and test datasets from a spec string.

    synth:per_class=500,classes=2,dim=2,sep=6   seeded blobs; the test
        split is an independent draw (one fifth the size, derived seed)
    idx:train_images,train_labels,test_images,test_labels   four paths
    """
    if spec.startswith("synth:") or spec == "synth":
        params = {"per_class": 500, "classes": 2, "dim": 2, "sep": 6.0}
        body = spec[len("synth:"):] if ":" in spec else ""
        for item in filter(None, body.split(",")):
            key, _, value = item.partition("=")
            if key not in params:
                raise ValueError(f"unknown synth parameter {key!r}")
            params[key] = type(params[key])(value)
        train = synth_blobs(
            params["per_class"], params["classes"], params["dim"], params["sep"], seed
        )
        test = synth_blobs(
            max(1, params["per_class"] // 5),
            params["classes"],
            params["dim"],
            params["sep"],
            seed + 1,
        )
        return train, test
    if spec.startswith("idx:"):
        paths = spec[len("idx:"):].split(",")
        if len(paths) != 4:
            raise ValueError(
                "idx spec needs 4 comma-separated paths "
                "(train images, train labels, test images, test labels)"
            )
        return load_idx(paths[0], paths[1]), load_idx(paths[2], paths[3])
    raise ValueError(f"unknown dataset spec {spec!r}")


# --- training loop -----------------------------------------------------------


def _evaluate(model: MlpModel, X: np.ndarray, y: np.ndarray) -> Tuple[float, float]:
    """Mean loss and accuracy on a full set with the model frozen.

    The two loss kinds coincide on a log-softmax head, so the negative
    log likelihood of the log-probabilities serves for both.
    """
    log_probs = model.forward(X)
    loss = nll_loss(log_probs, y)
    acc = float(np.mean(np.argmax(log_probs, axis=1) == y))
    return loss, acc


def run_experiment(config: ExperimentConfig) -> List[MetricsRecord]:
    """Train per the epoch/mini-batch protocol and record per-epoch metrics.

    Deterministic for a fixed config and seed in every field except the
    wall-time column.  Raises TrainingDivergedError (partial records
    attached) when a non-finite loss appears.
    """
    train, test = load_dataset_spec(config.dataset, config.seed)
    X_train = normalize(train.images) if config.normalize else train.images
    X_test = normalize(test.images) if config.normalize else test.images
    y_train, y_test = train.labels, test.labels
    n_classes = max(train.n_classes, test.n_classes)

    model = MlpModel.init((X_train.shape[1], HIDDEN_UNITS, n_classes), config.seed)
    theta = model.param_vector()
    stepper = make_stepper(config, theta)

    records: List[MetricsRecord] = []
    # overflow on a diverging run surfaces as TrainingDivergedError below,
    # not as floating-point warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(config.epochs):
            tic = time.perf_counter()
            for idx in epoch_batches(len(train), config.batch_size, config.seed + epoch):
                batch = Batch(X_train[idx], y_train[idx])

                def grad_fn(point: np.ndarray) -> np.ndarray:
                    model.set_param_vector(point)
                    return forward_backward(model, batch, loss=config.loss)[1]

                theta = stepper(grad_fn)
            elapsed = time.perf_counter() - tic

            model.set_param_vector(theta)
            train_loss, train_acc = _evaluate(model, X_train, y_train)
            test_loss, test_acc = _evaluate(model, X_test, y_test)
            if not (np.isfinite(train_loss) and np.isfinite(test_loss)):
                raise TrainingDivergedError(epoch, records)
            records.append(
                MetricsRecord(epoch, train_loss, train_acc, test_loss, test_acc, elapsed)
            )
    return records


# --- measurement utilities ---------------------------------------------------


def timing_stats(samples: Sequence[float]) -> TimingStats:
    """Summary statistics of a wall-time sample.

    Sample standard deviation (n-1 denominator, zero for a singleton);
    quantiles by linear interpolation between order statistics.
    """
    x = np.asarray(list(samples), dtype=float)
    if x.size == 0:
        raise ValueError("need at least one sample")
    std = float(np.std(x, ddof=1)) if x.size > 1 else 0.0
    return TimingStats(
        mean=float(np.mean(x)),
        std=std,
        min=float(np.min(x)),
        q25=float(np.quantile(x, 0.25)),
        q50=float(np.quantile(x, 0.50)),
        q75=float(np.quantile(x, 0.75)),
        max=float(np.max(x)),
        sum=float(np.sum(x)),
    )


METRICS_HEADER = "epoch,train_loss,train_acc,test_loss,test_acc,epoch_time_s"


def format_metrics(records: Sequence[MetricsRecord]) -> str:
    """CSV text: header plus one row per epoch, 6 significant digits."""
    lines = [METRICS_HEADER]
    for r in records:
        lines.append(
            f"{r.epoch},{r.train_loss:.6g},{r.train_acc:.6g},"
            f"{r.test_loss:.6g},{r.test_acc:.6g},{r.epoch_time_s:.6g}"
        )
    return "\n".join(lines) + "\n"


def emit_metrics(records: Sequence[MetricsRecord], path: str) -> None:
    with open(path, "w", newline="") as f:
        f.write(format_metrics(records))


def read_timing_column(path: str) -> List[float]:
    """epoch_time_s values from a metrics CSV produced by emit_metrics."""
    with open(path, newline="") as f:
        header = f.readline().strip().split(",")
        try:
            col = header.index("epoch_time_s")
        except ValueError:
            raise ValueError(f"{path}: no epoch_time_s column in header {header}")
        return [float(line.strip().split(",")[col]) for line in f if line.strip()]


# --- splitting study ----------------------------------------------------------

STUDY_A = np.array([[0.0, 1.0], [0.0, 0.0]])
STUDY_B = np.array([[0.0, 0.0], [1.0, 0.0]])


def splitting_study(
    step_counts: Sequence[int] = (10, 20, 40, 80, 160),
    method: str = "lie",
) -> List[Tuple[float, float, Optional[float]]]:
    """Defect and observed global order of a splitting over [0, 1].

    Integrates X' = (A+B)X for the canonical noncommuting 2x2 pair with N
    steps of the chosen method, compares against the dense exponential at
    T = 1, and reports (h, defect(h), observed order) per N.  The order
    entry pairs each h with the next finer one; the last row has none.
    """
    if method not in ("lie", "strang"):
        raise ValueError(f"unknown method {method!r}")
    sys = LinearSplitSystem(STUDY_A, STUDY_B)
    x0 = np.array([1.0, 0.0])
    exact = matrix_exp(STUDY_A + STUDY_B) @ x0
    stepper = lie_split_step if method == "lie" else strang_split_step

    errors = []
    for n_steps in step_counts:
        h = 1.0 / n_steps
        x = x0.copy()
        for _ in range(n_steps):
            x = stepper(sys, x, h)
        errors.append(float(np.linalg.norm(x - exact)))

    rows: List[Tuple[float, float, Optional[float]]] = []
    for i, n_steps in enumerate(step_counts):
        h = 1.0 / n_steps
        defect = splitting_defect(sys, h)
        if i + 1 < len(step_counts) and errors[i + 1] > 0:
            ratio = (1.0 / step_counts[i]) / (1.0 / step_counts[i + 1])
            order = float(np.log(errors[i] / errors[i + 1]) / np.log(ratio))
        else:
            order = None
        rows.append((h, defect, order))
    return rows
