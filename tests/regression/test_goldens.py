"""Golden-value regression suite: every evaluation path vs pinned numbers.

Each case in ``tests/regression/goldens/*.json`` pins one ``Pfail`` value
(analytic closed form where the paper provides one, symbolic tree walk
otherwise).  The suite evaluates the same (assembly, service, actuals)
through **every** path the library offers —

- symbolic closed form, recursive tree walk (``Expression.evaluate``),
- symbolic closed form, compiled numpy kernel,
- numeric recursive evaluator, dense solver backend,
- numeric recursive evaluator, sparse solver backend,

— and asserts each lands within its per-case relative tolerance of the
pinned value.  A refactor of any layer (expressions, kernels, solvers,
plans) that moves the numbers fails here first, with the offending path
in the test id.

Regenerate intentionally changed goldens with ``tools/update_goldens.py``.
"""

import json
import math
from pathlib import Path

import pytest

from repro.core.evaluator import ReliabilityEvaluator
from repro.engine.plan import compile_plan

import update_goldens

GOLDEN_DIR = Path(__file__).resolve().parent / "goldens"

#: path name -> how tolerant the comparison is (key into the case's rtol).
PATHS = {
    "symbolic-tree-walk": "symbolic",
    "symbolic-kernel": "symbolic",
    "numeric-dense": "numeric",
    "numeric-sparse": "numeric",
}


def _load_cases():
    cases = []
    for path in sorted(GOLDEN_DIR.glob("*.json")):
        document = json.loads(path.read_text())
        assert document["schema"] == update_goldens.SCHEMA
        for case_id, case in document["cases"].items():
            cases.append(pytest.param(case, id=f"{path.stem}/{case_id}"))
    return cases


CASES = _load_cases()


def _evaluate(case: dict, path: str) -> float:
    assembly = update_goldens.build_assembly(case["spec"])
    service = case["service"]
    actuals = case["actuals"]
    if path.startswith("symbolic"):
        plan = compile_plan(assembly, service, backend="symbolic")
        if path == "symbolic-kernel":
            return float(plan.pfail(actuals))
        return float(plan.expression.evaluate(
            {name: float(value) for name, value in actuals.items()}
        ))
    solver = "dense" if path == "numeric-dense" else "sparse"
    evaluator = ReliabilityEvaluator(assembly, solver=solver)
    return float(evaluator.pfail(service, **actuals))


@pytest.mark.parametrize("path", sorted(PATHS))
@pytest.mark.parametrize("case", CASES)
def test_golden_value(case, path):
    expected = case["pfail"]
    rtol = case["rtol"][PATHS[path]]
    actual = _evaluate(case, path)
    assert math.isfinite(actual) and 0.0 <= actual <= 1.0
    assert actual == pytest.approx(expected, rel=rtol), (
        f"{path} drifted from golden: got {actual!r}, pinned {expected!r} "
        f"(rtol {rtol:g}); if intentional, rerun tools/update_goldens.py"
    )


def test_goldens_are_current():
    """The files on disk match what the tool would regenerate today.

    Guards against editing golden JSON by hand or changing the case
    definitions without rerunning the tool.
    """
    assert update_goldens.main(["--check"]) == 0


def test_golden_files_exist():
    assert {p.stem for p in GOLDEN_DIR.glob("*.json")} == {
        "figure6", "section4", "scenarios"
    }
