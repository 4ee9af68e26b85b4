"""Experiment runner and measurement utilities.

Wires the datasets, the MLP, and the optimizer step functions into the
epoch/mini-batch training protocol: seeded shuffling, one optimizer step
per batch, frozen full-set evaluation after every epoch, and CSV metric
emission.  Also provides the wall-time summary statistics and the
splitting defect/order sweep backing the CLI subcommands.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from operator import attrgetter
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
    """One `bench run`.  The optimizer options (k .. nesterov_form) default to
    None: the optimizer's OPTIMIZERS entry fills the ones its step rule
    reads, and setting any other one is an error."""

    optimizer: str = "sgd"
    lr: Optional[float] = None          # None -> registry default
    k: Optional[float] = None
    momentum: Optional[str] = None      # float literal or schedule kind
    gamma: Optional[float] = None
    eps: Optional[float] = None
    variant: Optional[str] = None
    nesterov_form: Optional[str] = None
    epochs: int = 10
    batch_size: int = 32
    seed: int = 1
    dataset: str = "synth:per_class=500,classes=2,dim=2,sep=6"
    out: Optional[str] = None
    normalize: bool = True

    def __post_init__(self):
        if self.optimizer not in OPTIMIZERS:
            raise ValueError(
                f"unknown optimizer {self.optimizer!r}; choose from {sorted(OPTIMIZERS)}"
            )
        if self.epochs < 1:
            raise ValueError(f"epochs must be at least 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch size must be at least 1, got {self.batch_size}")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        if self.nesterov_form not in (None,) + opt.NESTEROV_FORMS:
            raise ValueError(
                f"unknown nesterov form {self.nesterov_form!r}; "
                f"choose from {opt.NESTEROV_FORMS}"
            )
        if self.variant not in (None,) + ad.SSA1_ADA_VARIANTS:
            raise ValueError(
                f"unknown variant {self.variant!r}; choose from {ad.SSA1_ADA_VARIANTS}"
            )
        defaults = OPTIMIZERS[self.optimizer][1]
        for name in OPTION_FIELDS:
            if name in defaults:
                if getattr(self, name) is None:
                    setattr(self, name, defaults[name])
            elif getattr(self, name) is not None:
                raise ValueError(
                    f"{self.optimizer} takes no {name} option; "
                    f"it takes {sorted(defaults) or 'none'}"
                )
        # One step from a one-element theta raises whatever the first step of
        # the run would (momentum text, step size, decay rate, eps, k,
        # polyak's alpha < 1), so a bad value exits before any data loads.
        # Its arithmetic is discarded: an infinite lr times the zero
        # gradient is left to the run's own divergence check.
        with np.errstate(all="ignore"):
            make_stepper(self, np.zeros(1))(np.zeros_like)

    @property
    def resolved_lr(self) -> float:
        return OPTIMIZERS[self.optimizer][0] if self.lr is None else self.lr


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

# name -> (default lr, {option: default} for each run option its step rule
# reads).  The learning rates mirror the benchmark protocol: 1.0 for the
# Adadelta-style adaptive pair, 1e-3 elsewhere (1e-2 for heavy ball).
OPTIMIZERS = {
    "sgd": (1e-3, {}),
    "polyak": (1e-2, {"momentum": "0.5"}),
    "nesterov": (1e-3, {"momentum": "0.5", "nesterov_form": "velocity"}),
    "ssa1": (1e-3, {"momentum": opt.RATIO_N_OVER_N3, "k": 2.0}),
    "ssa2": (1e-3, {"momentum": opt.RATIO_N_OVER_N3, "k": 2.0}),
    "ssa1-const": (1e-3, {"momentum": "0.5", "k": 2.0}),
    "ssa2-const": (1e-3, {"momentum": "0.5", "k": 2.0}),
    "adagrad": (1e-3, {"eps": ad.DEFAULT_EPS}),
    "adadelta": (1.0, {"gamma": 0.9, "eps": ad.ADADELTA_EPS}),
    "rmsprop": (1e-3, {"gamma": 0.9, "eps": ad.DEFAULT_EPS}),
    "adam": (1e-3, {"eps": ad.DEFAULT_EPS}),
    "ssa1-ada": (1.0, {"momentum": opt.RATIO_N_OVER_N3, "k": 2.0, "gamma": 0.9,
                       "eps": ad.ADADELTA_EPS, "variant": "as-written"}),
}
OPTION_FIELDS = ("k", "momentum", "gamma", "eps", "variant", "nesterov_form")

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
    the updated parameter vector.  The step rule is looked up in its module
    here, when the stepper is built.
    """
    name, h = config.optimizer, config.resolved_lr
    schedule = None if config.momentum is None else parse_momentum(config.momentum)
    point = attrgetter("u")
    if name == "sgd":
        rule, point = opt.minibatch_sgd_step, lambda theta: theta
        state, params = theta0.copy(), (h,)
        advance = lambda theta, grad_fn, h: rule(theta, grad_fn(theta), h)
    elif name == "polyak":
        rule, coefficient = opt.polyak_step, opt.momentum_coefficient
        state, params = opt.InertialState.at_rest(theta0), (h,)
        advance = lambda s, grad_fn, h: rule(
            s, grad_fn(s.u), coefficient(s.n, schedule), h
        )
    elif name == "nesterov":
        state, advance = opt.InertialState.at_rest(theta0), opt.nesterov_step
        params = (h, schedule, config.nesterov_form)
    elif name in ("ssa1", "ssa2", "ssa1-const", "ssa2-const"):
        state, advance = opt.InertialState.at_rest(theta0), getattr(opt, name[:4] + "_step")
        params = (opt.SplitHyperParams(h=h, k=config.k), schedule)
    else:
        state, point = ad.AdaptiveState.fresh(theta0), attrgetter("theta")
        hp = ad.AdaptiveHyperParams(
            h=h,
            **{key: getattr(config, key) for key in ("gamma", "eps", "k")
               if getattr(config, key) is not None},
        )
        if name == "ssa1-ada":
            advance, params = ad.ssa1_ada_step, (hp, schedule, config.variant)
        else:
            rule, params = getattr(ad, name + "_step"), (hp,)
            advance = lambda s, grad_fn, hp: rule(s, grad_fn(s.theta), hp)

    def step(grad_fn: GradFn) -> np.ndarray:
        nonlocal state
        state = advance(state, grad_fn, *params)
        return point(state)

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
    """Mean loss (the training loss, the negative log likelihood of the
    log-probabilities) and accuracy on a full set with the model frozen."""
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
                    return forward_backward(model, batch)[1]

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


def write_text(text: str, path: Optional[str]) -> None:
    """Write text to the file at path, or to stdout when there is no path."""
    if path:
        with open(path, "w", newline="") as f:
            f.write(text)
    else:
        print(text, end="")


def emit_metrics(records: Sequence[MetricsRecord], path: Optional[str]) -> None:
    write_text(format_metrics(records), path)


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
SPLITTING_METHODS = ("lie", "strang")


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
    if method not in SPLITTING_METHODS:
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
        defect = splitting_defect(sys, h, step=stepper)
        if i + 1 < len(step_counts) and errors[i + 1] > 0:
            ratio = (1.0 / step_counts[i]) / (1.0 / step_counts[i + 1])
            order = float(np.log(errors[i] / errors[i + 1]) / np.log(ratio))
        else:
            order = None
        rows.append((h, defect, order))
    return rows
