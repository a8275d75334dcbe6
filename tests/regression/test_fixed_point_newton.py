"""The Newton solve of recursive assemblies against the closed form.

``ReliabilityEvaluator`` solves the least fixed point of the mutual
recursion ``A -> B -> A`` by safeguarded Newton.  It must land on
:func:`~repro.scenarios.recursive.closed_form_pfail` in a bounded number
of sweeps (Jacobian probes included) however slowly the Kleene iteration
would contract, and it must still return the *least* fixed point where
every point is a fixed point.
"""

import pytest

from repro import observability as obs
from repro.core import ReliabilityEvaluator, fixed_point
from repro.scenarios import (
    RecursiveParameters,
    closed_form_pfail,
    recursive_assembly,
)
from tests.recursive_models import never_terminating_assembly

MAX_SWEEPS = 10


@pytest.mark.parametrize("service", ["A", "B"])
@pytest.mark.parametrize(
    "r, bound",
    # at r = 0.999 the float 2x2 reference itself carries about
    # eps / (1 - rho) of conditioning error
    [(0.5, 1e-14), (0.9, 1e-14), (0.99, 1e-14), (0.999, 1e-13)],
)
def test_newton_meets_the_closed_form_in_few_sweeps(r, bound, service):
    params = RecursiveParameters(recursion_probability=r)
    evaluator = ReliabilityEvaluator(recursive_assembly(params))
    exact = dict(zip("AB", closed_form_pfail(params)))[service]
    assert abs(evaluator.pfail(service, size=1) - exact) <= bound
    solve = evaluator.fixed_point
    assert solve.sweeps <= MAX_SWEEPS
    assert not solve.fell_back
    assert solve.error_bound < fixed_point.TOLERANCE


@pytest.mark.parametrize("service", ["A", "B"])
def test_never_terminating_recursion_returns_the_least_fixed_point(service):
    evaluator = ReliabilityEvaluator(never_terminating_assembly())
    assert evaluator.pfail(service, size=1) == 0.0
    # rho(J) = 1: the safeguard refuses the Newton step, Kleene answers
    solve = evaluator.fixed_point
    assert solve.fell_back
    assert solve.newton_steps == 0
    assert solve.sweeps <= MAX_SWEEPS


def test_each_solve_is_one_tagged_span_and_counts_its_sweeps():
    obs.reset()
    obs.enable()
    try:
        never = ReliabilityEvaluator(never_terminating_assembly())
        never.pfail("A", size=1)
        newton = ReliabilityEvaluator(recursive_assembly())
        newton.pfail("A", size=1)
        spans = [
            span for span in obs.tracer().finished
            if span.name == "fixed_point.solve"
        ]
        counters = obs.registry().snapshot()["counters"]
    finally:
        obs.reset()
    solves = [never.fixed_point, newton.fixed_point]
    assert [span.tags for span in spans] == [
        {"service": "A", "sweeps": s.sweeps,
         "newton_steps": s.newton_steps, "fallback": s.fell_back,
         "error_bound": s.error_bound}
        for s in solves
    ]
    assert counters["fixed_point.sweeps"] == sum(s.sweeps for s in solves)
    assert counters["fixed_point.fallbacks"] == 1
