"""Experiment runner and measurement utilities.

Wires the datasets, the MLP, and the optimizer step functions into the
epoch/mini-batch training protocol: seeded shuffling, one optimizer step
per batch, frozen full-set evaluation after every epoch, and CSV metric
emission.  Also provides the wall-time summary statistics and the
splitting defect/order sweep backing the CLI subcommands.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, fields
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from . import adaptive as ad
from . import optimizers as opt
from .datasets import Batch, IdxFormatError, load_idx, synth_blobs
from .nn import MlpModel, epoch_batches, forward_backward, mean_target_nll, normalize
from .splitting import LinearSplitSystem, lie_split_step, matrix_exp, splitting_defect, strang_split_step

HIDDEN_UNITS = 32  # fixed desk-scale architecture: input -> 32 rectified -> classes


class TrainingDivergedError(RuntimeError):
    """Non-finite iterate or loss at an epoch's end; carries the records
    completed so far."""

    def __init__(self, epoch: int, records: List["MetricsRecord"], what: str = "loss"):
        super().__init__(f"non-finite {what} at epoch {epoch}")
        self.epoch = epoch
        self.records = records


@dataclass
class ExperimentConfig:
    """One `bench run`.  lr and the optimizer options (k .. variant)
    default to None: the optimizer's OPTIMIZERS entry fills lr and the
    options its step rule reads, and setting any other one is an error."""

    optimizer: str = "sgd"
    lr: Optional[float] = None          # None -> registry default
    k: Optional[float] = None
    momentum: Optional[str] = None      # float literal or schedule kind
    gamma: Optional[float] = None
    eps: Optional[float] = None
    variant: Optional[str] = None
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
        lr, defaults = OPTIMIZERS[self.optimizer][:2]
        if self.lr is None:
            self.lr = lr
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
        # polyak's alpha < 1, ssa1-ada's variant), so a bad value exits
        # before any data loads.
        # Its arithmetic is discarded: an infinite lr times the zero
        # gradient is left to the run's own divergence check.
        with np.errstate(all="ignore"):
            make_stepper(self, np.zeros(1))(np.zeros_like)


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
# reads, the rule's module and its name there, and the fields of the rule's
# state).  The k, gamma and eps options go to the rule as keywords.
# The learning rates mirror the benchmark protocol: 1.0 for the
# Adadelta-style adaptive pair, 1e-3 elsewhere (1e-2 for heavy ball).
_RATIO = opt.RATIO_N_OVER_N3
OPTIMIZERS = {
    "sgd": (1e-3, {}, opt, "minibatch_sgd_step", opt.SGD_FIELDS),
    "polyak": (1e-2, {"momentum": "0.5"}, opt, "polyak_step", opt.POLYAK_FIELDS),
    "nesterov": (1e-3, {"momentum": "0.5"}, opt, "nesterov_step", opt.NESTEROV_FIELDS),
    "ssa1": (1e-3, {"momentum": _RATIO, "k": 2.0}, opt, "ssa1_step", opt.SPLIT_FIELDS),
    "ssa2": (1e-3, {"momentum": _RATIO, "k": 2.0}, opt, "ssa2_step", opt.SPLIT_FIELDS),
    "ssa1-const": (1e-3, {"momentum": "0.5", "k": 2.0}, opt, "ssa1_step", opt.SPLIT_FIELDS),
    "ssa2-const": (1e-3, {"momentum": "0.5", "k": 2.0}, opt, "ssa2_step", opt.SPLIT_FIELDS),
    "adagrad": (1e-3, {"eps": ad.DEFAULT_EPS}, ad, "adagrad_step", ad.ADAGRAD_FIELDS),
    "adadelta": (1.0, {"gamma": 0.9, "eps": ad.ADADELTA_EPS}, ad, "adadelta_step",
                 ad.ADADELTA_FIELDS),
    "rmsprop": (1e-3, {"gamma": 0.9, "eps": ad.DEFAULT_EPS}, ad, "rmsprop_step",
                ad.RMSPROP_FIELDS),
    "adam": (1e-3, {"eps": ad.DEFAULT_EPS}, ad, "adam_step", ad.ADAM_FIELDS),
    "ssa1-ada": (1.0, {"momentum": _RATIO, "k": 2.0, "gamma": 0.9, "eps": ad.ADADELTA_EPS,
                       "variant": "as-written"}, ad, "ssa1_ada_step", ad.SSA1_ADA_FIELDS),
}
OPTION_FIELDS = ("k", "momentum", "gamma", "eps", "variant")

# --momentum schedule kinds; any other text must be a float literal
MOMENTUM_KINDS = (opt.RATIO_N_OVER_N3, opt.RATIO_NM1_OVER_N2)

Stepper = Callable[[opt.GradFn], np.ndarray]


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

    The returned callable takes a gradient oracle for the current batch,
    which the rule evaluates where it needs, and returns the updated
    parameter vector: the stepper's own buffer, valid until the next call,
    since the stepper keeps one state and has each step advance it in place
    (the rules' out=state).  The rule is looked up by
    name in its module here, when the stepper is built, and called as
    rule(state, grad_fn, h, [schedule], [variant], **hyper), hyper
    holding the k, gamma and eps options the rule reads.
    """
    _, options, module, rule, fields = OPTIMIZERS[config.optimizer]
    advance = getattr(module, rule)
    params = [config.lr]
    if "momentum" in options:
        params.append(parse_momentum(config.momentum))
    if "variant" in options:
        params.append(config.variant)
    hyper = {key: getattr(config, key) for key in ("k", "gamma", "eps") if key in options}
    state = opt.State.start(theta0, fields)

    def step(grad_fn: opt.GradFn) -> np.ndarray:
        return advance(state, grad_fn, *params, out=state, **hyper).u

    return step


# --- dataset specs -----------------------------------------------------------


def load_dataset_spec(spec: str, seed: int) -> Tuple[Batch, Batch]:
    """Train and test Batches, as the loaders return them, from a spec string.

    synth:per_class=500,classes=2,dim=2,sep=6   seeded blobs; the test
        split is an independent draw (one fifth the size, derived seed)
    idx:train_images,train_labels,test_images,test_labels   four paths, one image size
    """
    if spec.startswith("synth:") or spec == "synth":
        params = {"per_class": 500, "classes": 2, "dim": 2, "sep": 6.0}
        body = spec[len("synth:"):] if ":" in spec else ""
        items = [item.partition("=") for item in filter(None, body.split(","))]
        for key, _, value in items:
            if key not in params:
                raise ValueError(f"unknown synth parameter {key!r}")
            if [k for k, _, _ in items].count(key) > 1:
                raise ValueError(f"synth parameter {key!r} is given twice")
            try:
                params[key] = type(params[key])(value)
            except ValueError as exc:
                raise ValueError(f"synth parameter {key!r}: {exc}") from None
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
        train, test = load_idx(paths[0], paths[1]), load_idx(paths[2], paths[3])
        widths = train.images.shape[1], test.images.shape[1]
        if widths[0] != widths[1]:
            raise IdxFormatError(f"train images have {widths[0]} pixels, test images {widths[1]}")
        return train, test
    raise ValueError(f"unknown dataset spec {spec!r}")


# --- training loop -----------------------------------------------------------


def _evaluate(model: MlpModel, data: Batch) -> Tuple[float, float]:
    """Mean loss (the training loss, the negative log likelihood of the
    log-probabilities) and accuracy on a full, already checked set with the
    model frozen."""
    log_probs = model.forward(data.images)
    loss = mean_target_nll(log_probs, data.labels)
    acc = float(np.mean(np.argmax(log_probs, axis=1) == data.labels))
    return loss, acc


def run_experiment(config: ExperimentConfig) -> List[MetricsRecord]:
    """Train per the epoch/mini-batch protocol and record per-epoch metrics.

    The step rules' oracle takes each gradient at the buffer it is handed,
    through that buffer's layer views, into a gradient buffer kept for it,
    so a gradient stays valid until the next evaluation at the same
    buffer.  Both are built on a buffer's first use: the rules evaluate at
    one or two fixed buffers of the stepper's state.  The model's own
    parameters are set only for each epoch's evaluation.

    Deterministic for a fixed config and seed in every field except the
    wall-time column.  Raises TrainingDivergedError (partial records
    attached) when an epoch ends with a non-finite iterate or loss.
    """
    train, test = load_dataset_spec(config.dataset, config.seed)
    if config.normalize:  # in the sets' own buffers: nothing reads [0, 1] after this
        normalize(train.images, out=train.images)
        normalize(test.images, out=test.images)
    n_classes = max(train.n_classes, test.n_classes)

    model = MlpModel.init((train.images.shape[1], HIDDEN_UNITS, n_classes), config.seed)
    theta = model.param_vector()
    stepper = make_stepper(config, theta)
    # id of each evaluation buffer -> its layer views and its gradient's;
    # the views hold the buffer, so no other array can take its id
    kept = {}

    def grad_fn(point: np.ndarray) -> np.ndarray:  # at the loop's current batch
        views = kept.get(id(point))
        if views is None:
            views = kept[id(point)] = model.layers(point), model.layers(np.empty_like(point))
        return forward_backward(model, batch, *views)

    records: List[MetricsRecord] = []
    # overflow on a diverging run surfaces as TrainingDivergedError below,
    # not as floating-point warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(config.epochs):
            tic = time.perf_counter()
            for idx in epoch_batches(len(train), config.batch_size, config.seed + epoch):
                batch = train.rows(idx)
                theta = stepper(grad_fn)
            elapsed = time.perf_counter() - tic

            # checked first: a non-finite first-layer weight can hide from
            # both losses, since the rectifier maps its unit's NaN to 0
            if not np.isfinite(theta).all():
                raise TrainingDivergedError(epoch, records, "iterate")
            model.set_param_vector(theta)
            train_loss, train_acc = _evaluate(model, train)
            test_loss, test_acc = _evaluate(model, test)
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


METRICS_HEADER = tuple(f.name for f in fields(MetricsRecord))
TIMING_HEADER = tuple(f.name for f in fields(TimingStats))


def format_csv(header: Sequence[str], rows: Iterable[Iterable]) -> str:
    """CSV text: the header line, then one line per row.  A float cell has
    6 significant digits, an int is written whole and None is empty."""
    lines = [",".join(header)]
    for row in rows:
        cells = ("" if v is None else f"{v:.6g}" if isinstance(v, float) else str(v) for v in row)
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def emit_metrics(header: Sequence[str], rows: Iterable[Iterable], path: Optional[str]) -> None:
    """Write format_csv(header, rows) to the file at path, or to stdout when
    there is no path: the one writer of every bench subcommand's CSV."""
    text = format_csv(header, rows)
    if path:
        with open(path, "w", newline="") as f:
            f.write(text)
    else:
        print(text, end="")


def read_timing_column(path: str) -> List[float]:
    """epoch_time_s values from a metrics CSV produced by emit_metrics; there
    must be at least one, and each must be a finite nonnegative number."""
    with open(path, newline="") as f:
        header = f.readline().strip().split(",")
        try:
            col = header.index("epoch_time_s")
        except ValueError:
            raise ValueError(f"{path}: no epoch_time_s column in header {header}")
        rows = [line.strip().split(",") for line in f if line.strip()]
    if not rows:
        raise ValueError(f"{path}: no rows below the header, so no epoch_time_s values")
    samples = []
    for row in rows:
        if col >= len(row):
            raise ValueError(f"{path}: row {','.join(row)!r} has no epoch_time_s value")
        try:
            value = float(row[col])
        except ValueError:
            raise ValueError(f"{path}: epoch_time_s {row[col]!r} is not a number")
        # negated so that NaN fails it
        if not 0.0 <= value < math.inf:
            raise ValueError(f"{path}: epoch_time_s {value} is not a finite nonnegative time")
        samples.append(value)
    return samples


# --- splitting study ----------------------------------------------------------

STUDY_A = np.array([[0.0, 1.0], [0.0, 0.0]])
STUDY_B = np.array([[0.0, 0.0], [1.0, 0.0]])
STUDY_STEP_COUNTS = (10, 20, 40, 80, 160)
STUDY_HEADER = ("h", "defect", "observed_order")
SPLITTING_METHODS = ("lie", "strang")


def splitting_study(method: str = "lie") -> List[Tuple[float, float, Optional[float]]]:
    """Defect and observed global order of a splitting over [0, 1].

    Integrates X' = (A+B)X for the canonical noncommuting 2x2 pair with N
    steps of size h = 1/N of the chosen method, for each N in
    STUDY_STEP_COUNTS, compares against the dense exponential at T = 1,
    and reports (h, defect(h), observed order) per N.
    The system is linear, so N steps are N applications of the step's
    propagator S(h): one step call over the array of all h returns every
    S(h), and the study multiplies the state by S(h) N times, which differs
    from N factor-by-factor steps by rounding alone.  One splitting_defect
    call takes the same stack of S(h).  The order entry pairs each h with
    the next finer one, and the last row has none.
    """
    if method not in SPLITTING_METHODS:
        raise ValueError(f"unknown method {method!r}")
    counts = STUDY_STEP_COUNTS
    sys = LinearSplitSystem(STUDY_A, STUDY_B)
    x0 = np.array([1.0, 0.0])
    exact = matrix_exp(STUDY_A + STUDY_B) @ x0
    stepper = lie_split_step if method == "lie" else strang_split_step

    hs = 1.0 / np.array(counts, dtype=float)
    propagators = stepper(sys, hs)
    errors = []
    for propagator, n_steps in zip(propagators, counts):
        x = x0
        for _ in range(n_steps):
            x = propagator @ x
        errors.append(float(np.linalg.norm(x - exact)))
    defects = splitting_defect(sys, hs, propagators)

    rows: List[Tuple[float, float, Optional[float]]] = []
    for i, n_steps in enumerate(counts):
        if i + 1 < len(counts) and errors[i + 1] > 0:
            ratio = (1.0 / counts[i]) / (1.0 / counts[i + 1])
            order = float(np.log(errors[i] / errors[i + 1]) / np.log(ratio))
        else:
            order = None
        rows.append((1.0 / n_steps, float(defects[i]), order))
    return rows
