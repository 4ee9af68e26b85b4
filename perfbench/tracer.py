"""Spans around the public names that `splitopt.cli` and `splitopt.bench`
call into, and the per-layer metrics derived from them.

`install` replaces each traced name in its module (or class) with a
wrapper that records a span: name, start, end and the span that was open
when it began.  Spans stay in flat arrays until the run ends.  A layer's
self time is its spans' durations minus the time their child spans cover.
Nothing in `src/` changes; a name that has gone missing makes `install`
raise, so a traced run never reports a silent 0.
"""

from __future__ import annotations

import functools
import importlib
import os
from array import array
from collections import Counter
from time import perf_counter
from typing import Callable, Dict, List, Optional

import numpy as np

from workloads import ALL_OPTIMIZERS, optimizer_module

# (module, attribute, span name): module-level names looked up at call time.
FUNCTIONS = (
    ("splitopt.cli", "run_experiment", "bench.run"),
    ("splitopt.cli", "splitting_study", "bench.study"),
    ("splitopt.cli", "emit_metrics", "cli.emit"),
    ("splitopt.bench", "load_dataset_spec", "bench.load_spec"),
    ("splitopt.bench", "_evaluate", "bench.evaluate"),
    ("splitopt.bench", "synth_blobs", "datasets.synth"),
    ("splitopt.bench", "load_idx", "datasets.idx"),
    ("splitopt.bench", "normalize", "nn.normalize"),
    ("splitopt.bench", "epoch_batches", "nn.epoch_batches"),
    ("splitopt.bench", "Batch", "nn.batch"),
    ("splitopt.bench", "forward_backward", "nn.forward_backward"),
    ("splitopt.bench", "lie_split_step", "splitting.split_step"),
    ("splitopt.bench", "strang_split_step", "splitting.split_step"),
    ("splitopt.bench", "splitting_defect", "splitting.defect"),
    ("splitopt.bench", "matrix_exp", "splitting.matrix_exp"),
    ("splitopt.splitting", "matrix_exp", "splitting.matrix_exp"),
    ("splitopt.splitting", "spectral_norm", "splitting.spectral_norm"),
)
# (attribute of splitopt.nn.MlpModel, span name)
METHODS = (
    ("set_param_vector", "nn.set_params"),
    ("forward", "nn.forward"),
)
# Step rules, looked up by make_stepper when each run starts.  Their spans
# are named after the run's optimizer, since ssa1 and ssa1-const (for
# example) share one rule.
STEP_RULES = (
    ("splitopt.optimizers", ("minibatch_sgd_step", "polyak_step", "nesterov_step",
                             "ssa1_step", "ssa2_step")),
    ("splitopt.adaptive", ("adagrad_step", "adadelta_step", "rmsprop_step",
                           "adam_step", "ssa1_ada_step")),
)


class Tracer:
    """In-memory span recorder with parent links and a few work counters."""

    def __init__(self):
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._open: List[int] = []
        self.optimizer = ""  # optimizer of the run in progress
        self.n_params = 0  # parameter count of the last model built
        self.flops_per_row = 0  # matmul flops of one forward_backward row
        self.fb_rows = 0  # batch rows through forward_backward
        self.grad_evals = Counter()  # forward_backward calls per optimizer
        self.idx_bytes = 0  # IDX file bytes loaded

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, fn: Callable, name: str, before: Optional[Callable] = None) -> Callable:
        """fn inside a span; `before` sees the arguments first, inside it."""
        nid = self.name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._call(nid, fn, args, kwargs, before)

        return traced

    def wrap_step(self, fn: Callable, module: str) -> Callable:
        """A step rule inside a span named <module>.<optimizer>.step."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            nid = self.name_id(f"{module}.{self.optimizer}.step")
            return self._call(nid, fn, args, kwargs)

        return traced

    def _call(self, nid, fn, args, kwargs, before=None):
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self._open[-1] if self._open else -1)
        self.end.append(0.0)
        self._open.append(i)
        self.start.append(perf_counter())
        try:
            if before is not None:
                before(*args, **kwargs)
            return fn(*args, **kwargs)
        finally:
            self.end[i] = perf_counter()
            self._open.pop()

    # --- counters fed by `before` hooks --------------------------------

    def note_run(self, config, *_, **__):
        self.optimizer = config.optimizer

    def note_model(self, cls, sizes, *_, **__):
        pairs = list(zip(sizes[:-1], sizes[1:]))
        self.n_params = sum(a * b + b for a, b in pairs)
        # forward and weight gradient 2ab each per row; layers past the
        # first also pass the error back, 2ab more
        self.flops_per_row = sum((4 if i == 0 else 6) * a * b for i, (a, b) in enumerate(pairs))

    def note_batch(self, model, batch, *_, **__):
        self.fb_rows += len(batch)
        self.grad_evals[self.optimizer] += 1

    def note_idx(self, image_path, label_path, *_, **__):
        self.idx_bytes += os.path.getsize(image_path) + os.path.getsize(label_path)

    # --- results ---------------------------------------------------------

    def self_times(self):
        """(per-span self time, per-span name id) as numpy arrays."""
        start = np.frombuffer(self.start, dtype=float)
        dur = np.frombuffer(self.end, dtype=float) - start
        parent = np.frombuffer(self.parent, dtype=np.int32)
        child = parent >= 0
        covered = np.bincount(parent[child], weights=dur[child], minlength=len(dur))
        return dur - covered, np.frombuffer(self.name, dtype=np.int32)

    def save(self, path) -> None:
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=float),
            end=np.frombuffer(self.end, dtype=float),
        )


def _lookup(module, attr: str):
    try:
        return getattr(module, attr)
    except AttributeError:
        raise RuntimeError(f"traced name {module.__name__}.{attr} is missing") from None


def install(tracer: Tracer) -> None:
    """Replace every traced name with its span-recording wrapper."""
    hooks = {
        "bench.run": tracer.note_run,
        "nn.forward_backward": tracer.note_batch,
        "datasets.idx": tracer.note_idx,
    }
    for module_name, attr, span in FUNCTIONS:
        module = importlib.import_module(module_name)
        setattr(module, attr, tracer.wrap(_lookup(module, attr), span, hooks.get(span)))
    model_cls = _lookup(importlib.import_module("splitopt.nn"), "MlpModel")
    for attr, span in METHODS:
        setattr(model_cls, attr, tracer.wrap(_lookup(model_cls, attr), span))
    init = _lookup(model_cls, "init").__func__
    model_cls.init = classmethod(tracer.wrap(init, "nn.init", tracer.note_model))
    for module_name, attrs in STEP_RULES:
        module = importlib.import_module(module_name)
        short = module_name.rsplit(".", 1)[1]
        for attr in attrs:
            setattr(module, attr, tracer.wrap_step(_lookup(module, attr), short))


def axpy_us(n_params: int, repeats: int = 25, number: int = 400) -> float:
    """Median time of one theta - h * g at a parameter count, reference
    for the cost of an optimizer step."""
    rng = np.random.default_rng(0)
    theta, grad = rng.standard_normal(n_params), rng.standard_normal(n_params)
    samples = []
    for _ in range(repeats):
        tic = perf_counter()
        for _ in range(number):
            theta - 0.1 * grad
        samples.append((perf_counter() - tic) / number)
    return float(np.median(samples)) * 1e6


def per_layer_names() -> List[str]:
    """Every per-layer metric name, in report order."""
    names = [
        "nn.forward_backward_s", "nn.forward_backward_us", "nn.grad_evals", "nn.fb_gflops",
        "nn.batch_s", "nn.set_params_s", "nn.epoch_batches_s", "nn.forward_s",
        "nn.normalize_s", "nn.init_s",
    ]
    for opt in ALL_OPTIMIZERS:
        prefix = f"{optimizer_module(opt)}.{opt}"
        names += [f"{prefix}.step_us", f"{prefix}.grad_evals_per_step"]
    names += [
        "optimizers.axpy_us",
        "datasets.synth_s", "datasets.idx_s", "datasets.idx_bytes",
        "bench.run_self_s", "bench.evaluate_s", "bench.load_spec_s", "bench.study_self_s",
        "splitting.spectral_norm_s", "splitting.spectral_norm_calls",
        "splitting.matrix_exp_s", "splitting.matrix_exp_calls",
        "splitting.split_step_s", "splitting.defect_self_s",
        "cli.emit_s", "cli.self_s",
        "trace.overhead_s",
    ]
    return names


def layer_metrics(tracer: Tracer, passes: int, scale: float) -> Dict[str, float]:
    """Per-layer metrics from the spans of `passes` traced passes; times and
    counts are per pass, `_us` figures per call.  Times are multiplied by
    `scale`, the factor to the nominal machine speed.  trace.overhead_s and
    optimizers.axpy_us are measured by the caller."""
    self_time, name = tracer.self_times()
    self_time = self_time * scale
    n_names = len(tracer.names)
    total = np.bincount(name, weights=self_time, minlength=n_names)
    calls = np.bincount(name, minlength=n_names)

    def total_s(span):
        nid = tracer._ids.get(span)
        return float(total[nid]) / passes if nid is not None else 0.0

    def count(span):
        nid = tracer._ids.get(span)
        return int(calls[nid]) if nid is not None else 0

    fb_s = total_s("nn.forward_backward")
    fb_calls = count("nn.forward_backward")
    m = {
        "nn.forward_backward_s": fb_s,
        "nn.forward_backward_us": fb_s * passes / fb_calls * 1e6 if fb_calls else 0.0,
        "nn.grad_evals": fb_calls / passes,
        "nn.fb_gflops": tracer.fb_rows * tracer.flops_per_row / (fb_s * passes) / 1e9
        if fb_s else 0.0,
        "nn.batch_s": total_s("nn.batch"),
        "nn.set_params_s": total_s("nn.set_params"),
        "nn.epoch_batches_s": total_s("nn.epoch_batches"),
        "nn.forward_s": total_s("nn.forward"),
        "nn.normalize_s": total_s("nn.normalize"),
        "nn.init_s": total_s("nn.init"),
    }
    for opt in ALL_OPTIMIZERS:
        prefix = f"{optimizer_module(opt)}.{opt}"
        span = f"{prefix}.step"
        steps = count(span)
        m[f"{prefix}.step_us"] = total_s(span) * passes / steps * 1e6 if steps else 0.0
        # sgd, polyak and the plain adaptive rules take a gradient computed
        # before the call, so evaluations are counted per run, not per span
        m[f"{prefix}.grad_evals_per_step"] = tracer.grad_evals[opt] / steps if steps else 0.0
    m.update({
        "datasets.synth_s": total_s("datasets.synth"),
        "datasets.idx_s": total_s("datasets.idx"),
        "datasets.idx_bytes": tracer.idx_bytes / passes,
        "bench.run_self_s": total_s("bench.run"),
        "bench.evaluate_s": total_s("bench.evaluate"),
        "bench.load_spec_s": total_s("bench.load_spec"),
        "bench.study_self_s": total_s("bench.study"),
        "splitting.spectral_norm_s": total_s("splitting.spectral_norm"),
        "splitting.spectral_norm_calls": count("splitting.spectral_norm") / passes,
        "splitting.matrix_exp_s": total_s("splitting.matrix_exp"),
        "splitting.matrix_exp_calls": count("splitting.matrix_exp") / passes,
        "splitting.split_step_s": total_s("splitting.split_step"),
        "splitting.defect_self_s": total_s("splitting.defect"),
        "cli.emit_s": total_s("cli.emit"),
        "cli.self_s": total_s("cli.main"),
    })
    return m
