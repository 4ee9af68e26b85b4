"""Command-line benchmark driver.

    bench run --optimizer ssa1 --lr 0.1 --epochs 50 --out metrics.csv
    bench timing --in metrics.csv --out table.csv
    bench splitting-study --out study.csv

`bench run` trains one experiment and writes per-epoch metrics; `bench
timing` summarizes the wall-time column of such a file; `bench
splitting-study` sweeps the splitting defect and observed order.  A
key=value config file can seed any `run` option via --config; explicit
flags win.  Exit codes: 0 success, 2 usage, 3 diverged run, 4 I/O or
dataset failure; `run` opens its --out path before any data loads, so an
unwritable one, the empty path included, exits 4 at once.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
import textwrap
from typing import List, Optional

from .adaptive import SSA1_ADA_VARIANTS
from .bench import (
    ExperimentConfig,
    METRICS_HEADER,
    MOMENTUM_KINDS,
    OPTIMIZERS,
    SPLITTING_METHODS,
    STUDY_HEADER,
    TIMING_HEADER,
    TrainingDivergedError,
    emit_metrics,
    read_timing_column,
    run_experiment,
    splitting_study,
    timing_stats,
)
from .datasets import IdxFormatError

EXIT_DIVERGED = 3
EXIT_IO = 4

_BOOLEANS = {"true": True, "false": False, "yes": True, "no": False, "1": True, "0": False}


def _boolean(text: str) -> bool:
    try:
        return _BOOLEANS[text.lower()]
    except KeyError:
        raise ValueError(f"expected one of {'/'.join(_BOOLEANS)}, got {text!r}") from None


# Every `run` option, as the argparse keywords of its flag.  A config line
# is typed by the same `type` (text when there is none).  None has choices:
# each value meets its one check in ExperimentConfig.  normalize's flag is
# --no-normalize, which can only turn it off: its entry serves config lines.
_RUN_OPTIONS = {
    "optimizer": dict(help=f"one of {', '.join(sorted(OPTIMIZERS))}"),
    "lr": dict(type=float, help="step size / learning rate h"),
    "k": dict(type=float, help="velocity boost exponent"),
    "momentum": dict(
        help=f"constant coefficient (float) or schedule kind ({', '.join(MOMENTUM_KINDS)})"
    ),
    "gamma": dict(type=float, help="running-average decay rate"),
    "eps": dict(type=float, help="division guard"),
    "variant": dict(help=f"ssa1-ada evaluation order ({', '.join(SSA1_ADA_VARIANTS)})"),
    "epochs": dict(type=int),
    "batch_size": dict(type=int),
    "seed": dict(type=int),
    "dataset": dict(help="synth:k=v,... or idx:4 comma-separated paths"),
    "out": dict(help="metrics CSV path (stdout when omitted)"),
    "normalize": dict(type=_boolean),
}


def _load_config_file(path: str) -> dict:
    values = {}
    with open(path) as f:
        for lineno, raw in enumerate(f, start=1):
            # a comment starts at a '#' that opens the line or follows whitespace
            line = re.split(r"(?<!\S)#", raw, maxsplit=1)[0].strip()
            if not line:
                continue
            key, sep, value = line.partition("=")
            key = key.strip().replace("-", "_")
            if not sep or key not in _RUN_OPTIONS:
                raise ValueError(f"{path}:{lineno}: bad config line {raw.strip()!r}")
            if key in values:
                raise ValueError(f"{path}:{lineno}: {key} is given twice")
            try:
                values[key] = _RUN_OPTIONS[key].get("type", str)(value.strip())
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {key}: {exc}") from None
    return values


class _HelpFormatter(argparse.HelpFormatter):
    """Wraps help text at whitespace only, so no choice name breaks at a hyphen."""

    def _split_lines(self, text: str, width: int) -> List[str]:
        return textwrap.wrap(" ".join(text.split()), width, break_on_hyphens=False)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="bench")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser(
        "run", help="train one experiment and emit metrics", formatter_class=_HelpFormatter
    )
    run.add_argument("--config", help="key=value file providing defaults")
    for name, keywords in _RUN_OPTIONS.items():
        if name != "normalize":
            run.add_argument("--" + name.replace("_", "-"), **keywords)
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
    study.add_argument("--method", choices=SPLITTING_METHODS, default="lie")
    return parser


def _run_command(args: argparse.Namespace) -> int:
    values = _load_config_file(args.config) if args.config is not None else {}
    for name in _RUN_OPTIONS:
        if getattr(args, name) is not None:
            values[name] = getattr(args, name)
    config = ExperimentConfig(**values)
    # an unwritable path, "" included, exits 4 before any data loads
    if config.out is not None:
        existed = os.path.lexists(config.out)
        open(config.out, "a").close()
        if not existed:  # the probe leaves no file behind
            os.remove(config.out)

    code = 0
    try:
        records = run_experiment(config)
    except TrainingDivergedError as exc:
        records, code = exc.records, EXIT_DIVERGED
        print(f"error: {exc} ({len(records)} epochs flushed)", file=sys.stderr)
    emit_metrics(METRICS_HEADER, (vars(r).values() for r in records), config.out)
    return code


def _timing_command(args: argparse.Namespace) -> int:
    stats = timing_stats(read_timing_column(args.infile))
    emit_metrics(TIMING_HEADER, [vars(stats).values()], args.out)
    return 0


def _study_command(args: argparse.Namespace) -> int:
    emit_metrics(STUDY_HEADER, splitting_study(method=args.method), args.out)
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
