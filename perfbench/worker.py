"""Run one workload's passes in a fresh process and write the raw results.

    python3 perfbench/worker.py --workload desk-suite --seed 1 --seconds 30 \
        --trace 0 --workdir DIR --result FILE

Each pass makes the workload's CLI calls through `splitopt.cli.main` and
checks every output.  With --trace 1 the first half of the time runs
untraced and the rest traced, so the two can be compared.  `run.py`
starts this process with `src` on the path and the BLAS threads fixed.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

import workloads
from reference import NOMINAL_S, reference_seconds


class Passes:
    """Runs passes of one workload and keeps what each produced."""

    def __init__(self, calls, main, reference="small"):
        self.calls = calls
        self.main = main
        self.reference = reference
        self.first_digest = {}
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.records = []

    def run(self, traced: bool) -> None:
        """One pass of the CLI calls, each output checked.

        A reference measurement before and after each call gives the
        machine's speed during it; the call's time and its epoch times are
        scaled to the nominal speed.
        """
        raw_s, scales, epoch_s, steps = [], [], [], 0
        ref_before = reference_seconds(self.reference)
        for call in self.calls:
            call.out.unlink(missing_ok=True)
            tic = perf_counter()
            try:
                outcome = f"exit code {self.main(call.argv)}"
            except Exception as exc:  # a crash fails this run, not the benchmark
                traceback.print_exc()
                outcome = f"raised {exc!r}"
            raw_s.append(perf_counter() - tic)
            ref_after = reference_seconds(self.reference)
            scales.append(NOMINAL_S[self.reference] / ((ref_before + ref_after) / 2))
            ref_before = ref_after
            problems = [] if outcome == "exit code 0" else [f"{call.key}: {outcome}"]
            if call.out.exists():
                verdict = workloads.check(call, call.out.read_text())
            else:
                verdict = workloads.Verdict([f"{call.key}: no output written"])
            problems += verdict.problems
            first = self.first_digest.setdefault(call.key, verdict.digest)
            if verdict.digest != first:
                problems.append(f"{call.key}: deterministic columns differ between repeats")
            self.attempted += 1
            self.failed += bool(problems)
            self.problems += problems
            epoch_s += [t * scales[-1] for t in verdict.epoch_times]
            steps += call.steps
        call_s = [t * scale for t, scale in zip(raw_s, scales)]
        self.records.append({
            "traced": traced, "wall_s": sum(call_s), "raw_wall_s": sum(raw_s),
            "call_s": call_s, "epoch_s": epoch_s, "steps": steps, "scales": scales,
        })

    def run_until(self, deadline: float, traced: bool) -> int:
        """Passes while the next one (as long as the last) fits before
        `deadline`; at least one."""
        count = 0
        while True:
            tic = perf_counter()
            self.run(traced)
            count += 1
            now = perf_counter()
            if now + (now - tic) > deadline:
                return count


def blas_facts():
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    args = parser.parse_args(argv)

    import numpy as np
    import splitopt.cli as cli

    passes = Passes(workloads.calls(args.workload, args.seed, args.workdir), cli.main,
                    workloads.REFERENCE[args.workload])
    start = perf_counter()
    result = {}
    if args.trace:
        import tracer as tracing

        untraced = passes.run_until(start + args.seconds / 2, traced=False)
        spans = tracing.Tracer()
        tracing.install(spans)
        passes.main = spans.wrap(cli.main, "cli.main")
        traced = passes.run_until(start + args.seconds, traced=True)
        scale = statistics.median(
            x for r in passes.records if r["traced"] for x in r["scales"]
        )
        layers = tracing.layer_metrics(spans, traced, scale)
        walls = {t: statistics.median(r["wall_s"] for r in passes.records if r["traced"] == t)
                 for t in (False, True)}
        layers["trace.overhead_s"] = walls[True] - walls[False]
        layers["optimizers.axpy_us"] = (
            tracing.axpy_us(spans.n_params) * scale if spans.n_params else 0.0
        )
        spans.save(args.result.with_suffix(".spans.npz"))
        result.update(layers=layers, untraced_passes=untraced, traced_passes=traced,
                      spans=len(spans.start), n_params=spans.n_params)
    else:
        passes.run_until(start + args.seconds, traced=False)
    result.update(
        attempted=passes.attempted,
        failed=passes.failed,
        problems=passes.problems[:20],
        digests=passes.first_digest,
        passes=passes.records,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        numpy=np.__version__,
        blas=blas_facts(),
        blas_threads=os.environ.get("OPENBLAS_NUM_THREADS"),
    )
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
