"""The README's Python examples run, every source file parses as the
oldest Python that pyproject.toml supports, and every step rule keeps the
one calling convention."""

import ast
import inspect
import pathlib
import re
import warnings

import numpy as np
import pytest

from splitopt.bench import OPTIMIZERS, parse_momentum
from splitopt.optimizers import State

ROOT = pathlib.Path(__file__).resolve().parents[1]
PYTHON_BLOCKS = re.findall(r"^```python\n(.*?)^```$", (ROOT / "README.md").read_text(),
                           flags=re.MULTILINE | re.DOTALL)


def run_block(code: str) -> dict:
    """The names one README block leaves behind, run with warnings as errors."""
    namespace: dict = {}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        exec(compile(code, "README.md", "exec"), namespace)
    return namespace


def test_readme_has_the_two_python_examples():
    assert len(PYTHON_BLOCKS) == 2


def test_readme_ssa1_example_reaches_the_minimizer():
    (code,) = [block for block in PYTHON_BLOCKS if "ssa1_step" in block]
    assert np.max(np.abs(run_block(code)["state"].u)) <= 1e-6


def test_readme_defect_example_is_the_leading_term():
    (code,) = [block for block in PYTHON_BLOCKS if "splitting_defect" in block]
    assert run_block(code)["defect"] == pytest.approx(5.0e-3, rel=2e-2)


def test_every_source_file_parses_as_python_3_10():
    # catches syntax newer than requires-python >= 3.10, such as except*;
    # perfbench's tests run in tier-1 too, so its files are parsed as well
    sources = [p for d in ("src", "tests", "perfbench") for p in sorted((ROOT / d).rglob("*.py"))]
    assert len(sources) > 20
    for path in sources:
        ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))


def test_every_module_level_import_is_used():
    # no linter runs in tier-1, so a deletion could leave an import such as
    # Tuple behind, in the library or its tests; __init__.py is skipped, as
    # its imports are the exports
    sources = [*(ROOT / "src" / "splitopt").glob("*.py"), *(ROOT / "tests").glob("*.py")]
    unused = {}
    for path in sorted(sources):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported = set()
        for node in tree.body:
            if isinstance(node, ast.Import):
                imported.update((a.asname or a.name).split(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported.update(a.asname or a.name for a in node.names)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        if imported - used:
            unused[str(path.relative_to(ROOT))] = sorted(imported - used)
    assert unused == {}


@pytest.mark.parametrize("name", sorted(OPTIMIZERS))
def test_every_rule_advances_the_given_state_and_takes_no_out(name):
    # one calling convention: no rule writes into a second state or
    # returns a fresh one
    _, options, module, rule, fields = OPTIMIZERS[name]
    advance = getattr(module, rule)
    assert "out" not in inspect.signature(advance).parameters
    state = State.start(np.ones(3), fields)
    positional = [parse_momentum(options["momentum"])] if "momentum" in options else []
    assert advance(state, lambda u: 2.0 * u, 0.1, *positional) is None
    assert state.n == 1
