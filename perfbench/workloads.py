"""The benchmark's workloads: the CLI calls of one pass, their inputs, and
the checks every output must pass.

A pass is the list of `bench` CLI calls a workload repeats.  Each call
writes one CSV; `check` decides whether that output is correct and
returns the digest of its deterministic columns, so that a repeat (or a
later commit) with different bits shows.
"""

from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

WORKLOADS = ("desk-suite", "mnist-idx", "splitting-study")
# The reference computation (reference.py) whose mix of work is closest
# to each workload's.
REFERENCE = {"desk-suite": "small", "mnist-idx": "wide", "splitting-study": "small"}

METRICS_HEADER = "epoch,train_loss,train_acc,test_loss,test_acc,epoch_time_s"
STUDY_HEADER = "h,defect,observed_order"
STUDY_STEP_COUNTS = (10, 20, 40, 80, 160)  # splitting_study's default sweep
STUDY_ORDER = {"lie": 1.0, "strang": 2.0}
STUDY_ORDER_TOLERANCE = 0.05

BATCH_SIZE = 32

# Acceptance criterion 8: optimizer -> learning rate (None: registry default).
SUITE_LR: Dict[str, Optional[float]] = {
    "sgd": 0.1,
    "nesterov": 0.1,
    "ssa1": 0.1,
    "ssa2": 0.1,
    "ssa1-ada": None,
    "adam": None,
    "adadelta": None,
    "rmsprop": None,
    "adagrad": 0.01,
}
# The other three `--optimizer` choices, run at their registry defaults.
EXTRA_OPTIMIZERS = ("polyak", "ssa1-const", "ssa2-const")
ALL_OPTIMIZERS = tuple(SUITE_LR) + EXTRA_OPTIMIZERS
ADAPTIVE = ("adagrad", "adadelta", "rmsprop", "adam", "ssa1-ada")


def optimizer_module(name: str) -> str:
    """The splitopt module holding the step rule of an optimizer."""
    return "adaptive" if name in ADAPTIVE else "optimizers"


DESK_DATASET = "synth:per_class=500,classes=2,dim=2,sep=6"
DESK_TRAIN = 1000
DESK_EPOCHS = 50
DESK_TRAIN_ACC_FLOOR = 0.95  # criterion 8

MNIST_TRAIN = 6000
MNIST_TEST = 1000
MNIST_CLASSES = 10
MNIST_SIDE = 28
MNIST_EPOCHS = 2
MNIST_TEST_ACC_FLOOR = 0.8  # every learner reached 0.91-0.99 in two epochs on 40 seeds
# At their 1e-3 registry default the constant-momentum splitting steps move
# theta by about h^2 = 1e-6 per step, so two epochs stay at chance
# accuracy.  For them the check is that the test loss falls every epoch.
MNIST_SLOW = ("ssa1-const", "ssa2-const")
IDX_FILES = ("train-images.idx", "train-labels.idx", "test-images.idx", "test-labels.idx")


@dataclass(frozen=True)
class Call:
    """One CLI call of a pass and what its output must satisfy."""

    key: str  # optimizer name or study method
    argv: List[str]
    out: Path
    steps: int  # optimizer steps, or splitting steps of a study
    epochs: int = 0  # 0 for a study call
    rule: str = ""  # train_acc, test_acc, test_loss_falls or order


@dataclass
class Verdict:
    problems: List[str] = field(default_factory=list)
    digest: str = ""
    epoch_times: List[float] = field(default_factory=list)


def _batches(n: int) -> int:
    return -(-n // BATCH_SIZE)


def _train_call(opt: str, lr, seed: int, dataset: str, epochs: int, n_train: int,
                rule: str, workdir: Path) -> Call:
    out = workdir / f"{opt}.csv"
    argv = [
        "run", "--optimizer", opt, "--epochs", str(epochs),
        "--batch-size", str(BATCH_SIZE), "--seed", str(seed),
        "--dataset", dataset, "--out", str(out),
    ]
    if lr is not None:
        argv += ["--lr", repr(lr)]
    return Call(opt, argv, out, epochs * _batches(n_train), epochs, rule)


def idx_spec(workdir: Path) -> str:
    return "idx:" + ",".join(str(workdir / name) for name in IDX_FILES)


def dataset_spec(workload: str, workdir: Path) -> Optional[str]:
    """The dataset a workload trains on; None when it trains nothing."""
    if workload == "desk-suite":
        return DESK_DATASET
    if workload == "mnist-idx":
        return idx_spec(workdir)
    return None


def calls(workload: str, seed: int, workdir: Path) -> List[Call]:
    """The CLI calls of one pass of a workload."""
    if workload == "desk-suite":
        return [
            _train_call(opt, lr, seed, DESK_DATASET, DESK_EPOCHS, DESK_TRAIN,
                        "train_acc", workdir)
            for opt, lr in SUITE_LR.items()
        ]
    if workload == "mnist-idx":
        spec = idx_spec(workdir)
        return [
            _train_call(opt, SUITE_LR.get(opt), seed, spec, MNIST_EPOCHS, MNIST_TRAIN,
                        "test_loss_falls" if opt in MNIST_SLOW else "test_acc", workdir)
            for opt in ALL_OPTIMIZERS
        ]
    if workload == "splitting-study":
        return [
            Call(method, ["splitting-study", "--method", method,
                          "--out", str(workdir / f"study-{method}.csv")],
                 workdir / f"study-{method}.csv", sum(STUDY_STEP_COUNTS), rule="order")
            for method in STUDY_ORDER
        ]
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


# --- inputs ------------------------------------------------------------------


def write_inputs(workload: str, seed: int, workdir: Path) -> None:
    """Write the files a workload reads.  Only mnist-idx reads any."""
    if workload != "mnist-idx":
        return
    (train_x, train_y), (test_x, test_y) = mnist_like(seed)
    payloads = (
        _idx_images(train_x), _idx_labels(train_y),
        _idx_images(test_x), _idx_labels(test_y),
    )
    for name, payload in zip(IDX_FILES, payloads):
        (workdir / name).write_bytes(payload)


def _idx_images(images) -> bytes:
    n, rows, cols = images.shape
    return struct.pack(">IIII", 0x00000803, n, rows, cols) + images.tobytes()


def _idx_labels(labels) -> bytes:
    return struct.pack(">II", 0x00000801, len(labels)) + labels.tobytes()


def mnist_like(seed: int):
    """MNIST-shaped uint8 images of ten seeded classes.

    A class is a shared stroke plus three own Gaussian strokes on a 28x28
    canvas, at radii 3, 6.5 and 10 from the centre and at angles that turn
    by a tenth of a circle from class to class, with seeded jitter.  The
    fixed layout keeps the classes equally far apart for every seed.  A
    sample is its class pattern shifted by up to two pixels, scaled by a
    random contrast and overlaid with pixel noise, so two epochs separate
    the classes without saturating every optimizer.
    """
    import numpy as np

    rng = np.random.default_rng(seed)
    yy, xx = np.mgrid[0:MNIST_SIDE, 0:MNIST_SIDE]
    centre = (MNIST_SIDE - 1) / 2

    def stroke(cy, cx, width):
        return np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2) / (2 * width * width))

    shared = stroke(*rng.uniform(10, 18, size=2), rng.uniform(2.0, 3.0))
    patterns = []
    for c in range(MNIST_CLASSES):
        canvas = shared.copy()
        for k, radius in enumerate((3.0, 6.5, 10.0)):
            angle = 2 * np.pi * (c / MNIST_CLASSES + k / 3) + rng.uniform(-0.2, 0.2)
            canvas += stroke(centre + radius * np.sin(angle), centre + radius * np.cos(angle),
                             rng.uniform(1.5, 2.5))
        patterns.append(canvas)
    patterns = np.stack(patterns)
    patterns /= patterns.max(axis=(1, 2), keepdims=True)
    shifts = [(dy, dx) for dy in range(-2, 3) for dx in range(-2, 3)]
    shifted = np.stack(
        [np.stack([np.roll(p, s, axis=(0, 1)) for s in shifts]) for p in patterns]
    )

    def draw(n):
        labels = rng.integers(0, MNIST_CLASSES, size=n)
        which = rng.integers(0, len(shifts), size=n)
        contrast = rng.uniform(0.5, 1.0, size=(n, 1, 1))
        noise = rng.normal(0.0, 0.3, size=(n, MNIST_SIDE, MNIST_SIDE))
        images = shifted[labels, which] * contrast + noise
        pixels = np.clip(np.rint(images * 255.0), 0, 255).astype(np.uint8)
        return pixels, labels.astype(np.uint8)

    return draw(MNIST_TRAIN), draw(MNIST_TEST)


# --- output checks -------------------------------------------------------------


def check(call: Call, text: str) -> Verdict:
    """Whether one call's CSV output is correct, plus its digest."""
    if call.rule == "order":
        return _check_study(call, text)
    return _check_training(call, text)


def _digest(lines: List[str]) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _check_training(call: Call, text: str) -> Verdict:
    lines = text.splitlines()
    if not lines or lines[0] != METRICS_HEADER:
        return Verdict([f"{call.key}: header is not {METRICS_HEADER!r}"])
    rows = [line.split(",") for line in lines[1:]]
    if len(rows) != call.epochs or any(len(r) != 6 for r in rows):
        return Verdict([f"{call.key}: expected {call.epochs} rows of 6 columns"])
    try:
        values = [[float(x) for x in r] for r in rows]
    except ValueError as exc:
        return Verdict([f"{call.key}: {exc}"])
    verdict = Verdict(
        digest=_digest([",".join(r[:5]) for r in rows]),
        epoch_times=[v[5] for v in values],
    )
    problems = verdict.problems
    if [v[0] for v in values] != list(range(call.epochs)):
        problems.append(f"{call.key}: epoch column is not 0..{call.epochs - 1}")
    if not all(math.isfinite(x) for v in values for x in v):
        problems.append(f"{call.key}: non-finite value")
    if any(t <= 0 for t in verdict.epoch_times):
        problems.append(f"{call.key}: epoch_time_s not positive")
    last = values[-1]
    if call.rule == "train_acc" and not last[2] >= DESK_TRAIN_ACC_FLOOR:
        problems.append(f"{call.key}: final train acc {last[2]} < {DESK_TRAIN_ACC_FLOOR}")
    if call.rule == "test_acc" and not last[4] >= MNIST_TEST_ACC_FLOOR:
        problems.append(f"{call.key}: final test acc {last[4]} < {MNIST_TEST_ACC_FLOOR}")
    if call.rule == "test_loss_falls":
        losses = [v[3] for v in values]
        if not all(b < a for a, b in zip(losses, losses[1:])):
            problems.append(f"{call.key}: test loss does not fall every epoch {losses}")
    return verdict


def _check_study(call: Call, text: str) -> Verdict:
    lines = text.splitlines()
    if not lines or lines[0] != STUDY_HEADER:
        return Verdict([f"{call.key}: header is not {STUDY_HEADER!r}"])
    rows = [line.split(",") for line in lines[1:]]
    if len(rows) != len(STUDY_STEP_COUNTS) or any(len(r) != 3 for r in rows):
        return Verdict([f"{call.key}: expected {len(STUDY_STEP_COUNTS)} rows of 3 columns"])
    verdict = Verdict(digest=_digest(lines))
    expected = STUDY_ORDER[call.key]
    try:
        for i, (n_steps, (h, defect, order)) in enumerate(zip(STUDY_STEP_COUNTS, rows)):
            if not math.isclose(float(h), 1.0 / n_steps, rel_tol=1e-5):
                verdict.problems.append(f"{call.key}: row {i} has h={h}, expected 1/{n_steps}")
            if not (math.isfinite(float(defect)) and float(defect) > 0):
                verdict.problems.append(f"{call.key}: row {i} defect {defect} not positive")
            if i == len(rows) - 1:
                if order:
                    verdict.problems.append(f"{call.key}: last row has an order")
            elif not abs(float(order) - expected) <= STUDY_ORDER_TOLERANCE:
                verdict.problems.append(
                    f"{call.key}: row {i} observed order {order}, expected {expected:g}"
                )
    except ValueError as exc:
        verdict.problems.append(f"{call.key}: {exc}")
    return verdict
