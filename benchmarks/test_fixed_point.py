"""FIX — the least fixed point ``ReliabilityEvaluator`` solves on recursive
assemblies (section 3.3's stated future work, implemented).

Regenerates the Pfail of the mutually recursive A <-> B pair as a function
of the recursion probability ``r``, next to the exact algebraic solution,
with the sweep counts of the Newton solve (Jacobian probes included);
benchmarks one fixed-point solve at the deepest recursion setting.
"""

import pytest

from repro.analysis import format_table
from repro.core import ReliabilityEvaluator, fixed_point
from repro.scenarios import (
    RecursiveParameters,
    closed_form_pfail,
    recursive_assembly,
)

from _report import emit

RECURSION_PROBABILITIES = (0.0, 0.2, 0.4, 0.6, 0.8, 0.9, 0.95, 0.99, 0.999)
MAX_SWEEPS = 10


def solve(r: float):
    params = RecursiveParameters(recursion_probability=r)
    evaluator = ReliabilityEvaluator(recursive_assembly(params))
    value = evaluator.pfail("A", size=1)
    exact, _ = closed_form_pfail(params)
    return value, exact, evaluator.fixed_point.sweeps


@pytest.fixture(autouse=True)
def tolerance(monkeypatch):
    monkeypatch.setattr(fixed_point, "TOLERANCE", 1e-13)


def test_fixed_point_sweep(benchmark):
    benchmark(solve, 0.999)  # the hardest point: slowest contraction

    rows = []
    worst = 0.0
    for r in RECURSION_PROBABILITIES:
        value, exact, iterations = solve(r)
        rows.append((r, value, exact, abs(value - exact), iterations))
        worst = max(worst, abs(value - exact))
    text = (
        "FIX — Pfail(A) of the mutually recursive pair vs recursion "
        "probability r\n(Newton with Kleene fallback from 0 vs the exact 2x2 "
        "linear solution; sweeps include the Jacobian probes)\n\n"
        + format_table(
            ["r", "fixed-point Pfail(A)", "exact Pfail(A)", "|error|",
             "sweeps"],
            rows,
            float_format="{:.9e}",
        )
    )
    emit("FIX", text)
    assert worst < 1e-13
    # Newton's sweep count does not grow with the contraction factor r
    assert max(row[4] for row in rows) <= MAX_SWEEPS
