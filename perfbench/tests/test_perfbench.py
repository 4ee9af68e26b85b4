"""Tests of the benchmark itself: BENCHMARK.json against what the runs
report, the result schema of short runs, and the output checks."""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import per_layer_names  # noqa: E402
from worker import Passes  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload, trace, cwd=ROOT, seconds=1):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_benchmark_json_matches_what_runs_report():
    s = spec()
    assert set(s) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert s["command"] == ["python3", "perfbench/run.py"]
    assert s["paths"] == ["perfbench"]
    assert 1 <= s["run_seconds"] <= 60
    assert [w["name"] for w in s["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in s["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in s["per_layer"]] == [
        (name, run.layer_unit(name)) for name in per_layer_names()
    ]
    bounds = {m["name"]: m["bound"] for m in s["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    for group in ("workloads", "end_to_end", "per_layer"):
        names = [m["name"] for m in s[group]]
        assert len(set(names)) == len(names)
        assert all(NAME.match(n) for n in names)
    for m in s["end_to_end"] + s["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in s["workloads"])


@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_prints_the_result_schema(trace):
    done = bench("splitting-study", trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 2
    group = "per_layer" if trace else "end_to_end"
    expected = {m["name"]: m["unit"] for m in spec()[group]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    values = {k: v["value"] for k, v in result["metrics"].items()}
    assert all(isinstance(v, (int, float)) for v in values.values())
    if trace:
        assert values["splitting.spectral_norm_calls"] == 10
        assert values["splitting.matrix_exp_s"] > 0
        assert values["nn.grad_evals"] == 0
    else:
        assert all(v > 0 for v in values.values())


def test_run_without_the_source_tree_fails(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    done = bench("desk-suite", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_missing_traced_name_fails_loudly():
    code = (
        "import splitopt.bench, tracer\n"
        "del splitopt.bench._evaluate\n"
        "tracer.install(tracer.Tracer())\n"
    )
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=run.child_env(), timeout=60)
    assert done.returncode != 0
    assert "traced name splitopt.bench._evaluate is missing" in done.stderr


# --- output checks -----------------------------------------------------------


@pytest.fixture(scope="module")
def desk_csv(tmp_path_factory):
    from splitopt.cli import main

    workdir = tmp_path_factory.mktemp("desk")
    call = workloads.calls("desk-suite", 1, workdir)[0]
    assert main(call.argv) == 0
    return call, call.out.read_text()


def doctor(text, row, column, value):
    lines = text.splitlines()
    cells = lines[row + 1].split(",")
    cells[column] = value
    lines[row + 1] = ",".join(cells)
    return "\n".join(lines) + "\n"


def test_check_accepts_a_real_csv(desk_csv):
    call, text = desk_csv
    verdict = workloads.check(call, text)
    assert verdict.problems == []
    assert len(verdict.epoch_times) == workloads.DESK_EPOCHS and verdict.digest


@pytest.mark.parametrize("row, column, value", [
    (10, 1, "nan"),  # non-finite train loss
    (49, 3, "inf"),  # non-finite test loss
    (49, 2, "0.9"),  # final train accuracy under criterion 8's floor
    (7, 0, "8"),  # epoch column out of order
    (3, 5, "0"),  # epoch time not positive
    (3, 4, "x"),  # unparsable value
])
def test_check_rejects_a_doctored_csv(desk_csv, row, column, value):
    call, text = desk_csv
    assert workloads.check(call, doctor(text, row, column, value)).problems


def test_check_rejects_missing_rows_and_wrong_header(desk_csv):
    call, text = desk_csv
    assert workloads.check(call, "\n".join(text.splitlines()[:-1])).problems
    assert workloads.check(call, text.replace("train_acc", "acc")).problems


def test_changed_bits_between_repeats_count_as_a_failure(desk_csv):
    call, text = desk_csv
    last = text.splitlines()[-1].split(",")
    changed = doctor(text, 49, 3, last[3][:-1] + str((int(last[3][-1]) + 1) % 10))
    assert workloads.check(call, changed).problems == []
    outputs = iter([text, text, changed])

    def main(argv):
        call.out.write_text(next(outputs))
        return 0

    passes = Passes([call], main)
    for _ in range(3):
        passes.run(traced=False)
    assert (passes.attempted, passes.failed) == (3, 1)
    assert "differ between repeats" in passes.problems[0]


def test_failed_exit_code_counts_as_a_failure(desk_csv):
    call, text = desk_csv

    def main(argv):
        call.out.write_text(text)
        return 3

    passes = Passes([call], main)
    passes.run(traced=False)
    assert passes.failed == 1


def test_study_check_needs_the_method_order(tmp_path):
    from splitopt.cli import main

    lie, strang = workloads.calls("splitting-study", 1, tmp_path)
    assert main(lie.argv) == 0 and main(strang.argv) == 0
    lie_text = lie.out.read_text()
    assert workloads.check(lie, lie_text).problems == []
    assert workloads.check(strang, strang.out.read_text()).problems == []
    # a Lie output passed off as Strang has order 1, not 2
    assert workloads.check(strang, lie_text).problems
    assert workloads.check(lie, doctor(lie_text, 0, 2, "1.5")).problems


def test_mnist_like_inputs_depend_only_on_the_seed():
    (a, la), _ = workloads.mnist_like(5)
    (b, lb), _ = workloads.mnist_like(5)
    (c, _), _ = workloads.mnist_like(6)
    assert a.shape == (workloads.MNIST_TRAIN, 28, 28) and a.dtype.name == "uint8"
    assert (a == b).all() and (la == lb).all() and not (a == c).all()
    assert set(la.tolist()) == set(range(workloads.MNIST_CLASSES))
