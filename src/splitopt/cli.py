"""Command-line benchmark driver.

    bench run --optimizer ssa1 --lr 0.1 --epochs 50 --out metrics.csv
    bench timing --in metrics.csv --out table.csv
    bench splitting-study --out study.csv

`bench run` trains one experiment and writes per-epoch metrics; `bench
timing` summarizes the wall-time column of such a file; `bench
splitting-study` sweeps the splitting defect and observed order.  A
key=value config file can seed any `run` option via --config; explicit
flags win.  Exit codes: 0 success, 2 usage, 3 diverged run, 4 I/O or
dataset failure.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .adaptive import SSA1_ADA_VARIANTS
from .bench import (
    ExperimentConfig,
    OPTIMIZERS,
    TrainingDivergedError,
    emit_metrics,
    format_metrics,
    read_timing_column,
    run_experiment,
    splitting_study,
    timing_stats,
)
from .datasets import IdxFormatError
from .optimizers import NESTEROV_FORMS

EXIT_DIVERGED = 3
EXIT_IO = 4

_CONFIG_TYPES = {
    "optimizer": str,
    "lr": float,
    "k": float,
    "momentum": str,
    "gamma": float,
    "eps": float,
    "variant": str,
    "nesterov_form": str,
    "epochs": int,
    "batch_size": int,
    "seed": int,
    "dataset": str,
    "loss": str,
    "out": str,
    "normalize": lambda s: s.strip().lower() in ("1", "true", "yes"),
}


def _load_config_file(path: str) -> dict:
    values = {}
    with open(path) as f:
        for lineno, raw in enumerate(f, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, sep, value = line.partition("=")
            key = key.strip().replace("-", "_")
            if not sep or key not in _CONFIG_TYPES:
                raise ValueError(f"{path}:{lineno}: bad config line {raw.strip()!r}")
            values[key] = _CONFIG_TYPES[key](value.strip())
    return values


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="bench")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="train one experiment and emit metrics")
    run.add_argument("--config", help="key=value file providing defaults")
    run.add_argument("--optimizer", choices=sorted(OPTIMIZERS))
    run.add_argument("--lr", type=float, help="step size / learning rate h")
    run.add_argument("--k", type=float, help="velocity boost exponent")
    run.add_argument(
        "--momentum",
        help="constant coefficient (float) or schedule kind "
        "(ratio-n-over-n-plus-3, ratio-n-minus-1-over-n-plus-2)",
    )
    run.add_argument("--gamma", type=float, help="running-average decay rate")
    run.add_argument("--eps", type=float, help="division guard")
    run.add_argument("--variant", choices=SSA1_ADA_VARIANTS)
    run.add_argument("--nesterov-form", choices=NESTEROV_FORMS)
    run.add_argument("--epochs", type=int)
    run.add_argument("--batch-size", type=int)
    run.add_argument("--seed", type=int)
    run.add_argument("--dataset", help="synth:k=v,... or idx:4 comma-separated paths")
    run.add_argument("--loss", choices=["nll", "xent"])
    run.add_argument("--out", help="metrics CSV path (stdout when omitted)")
    run.add_argument(
        "--no-normalize",
        dest="normalize",
        action="store_const",
        const=False,
        help="skip the fixed pixel normalization",
    )

    timing = sub.add_parser("timing", help="summarize the wall-time column")
    timing.add_argument("--in", dest="infile", required=True, help="metrics CSV")
    timing.add_argument("--out", help="stats CSV path (stdout when omitted)")

    study = sub.add_parser("splitting-study", help="defect/order sweep")
    study.add_argument("--out", help="CSV path (stdout when omitted)")
    study.add_argument("--method", choices=["lie", "strang"], default="lie")
    return parser


def _run_command(args: argparse.Namespace) -> int:
    values = {}
    if args.config:
        values.update(_load_config_file(args.config))
    for key in _CONFIG_TYPES:
        flag_value = getattr(args, key, None)
        if flag_value is not None:
            values[key] = flag_value
    config = ExperimentConfig(**values)

    try:
        records = run_experiment(config)
    except TrainingDivergedError as exc:
        if config.out:
            emit_metrics(exc.records, config.out)
        print(f"error: {exc} ({len(exc.records)} epochs flushed)", file=sys.stderr)
        return EXIT_DIVERGED

    if config.out:
        emit_metrics(records, config.out)
    else:
        sys.stdout.write(format_metrics(records))
    return 0


def _timing_command(args: argparse.Namespace) -> int:
    stats = timing_stats(read_timing_column(args.infile))
    header = "mean,std,min,q25,q50,q75,max,sum"
    row = ",".join(
        f"{getattr(stats, name):.6g}" for name in header.split(",")
    )
    text = f"{header}\n{row}\n"
    if args.out:
        with open(args.out, "w", newline="") as f:
            f.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _study_command(args: argparse.Namespace) -> int:
    lines = ["h,defect,observed_order"]
    for h, defect, order in splitting_study(method=args.method):
        order_text = f"{order:.6g}" if order is not None else ""
        lines.append(f"{h:.6g},{defect:.6g},{order_text}")
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", newline="") as f:
            f.write(text)
    else:
        sys.stdout.write(text)
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _run_command(args)
        if args.command == "timing":
            return _timing_command(args)
        return _study_command(args)
    except (OSError, IdxFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
