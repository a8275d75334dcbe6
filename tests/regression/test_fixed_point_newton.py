"""The Newton solve of recursive assemblies against the closed form.

``FixedPointEvaluator`` solves the least fixed point of the mutual
recursion ``A -> B -> A`` by safeguarded Newton.  It must land on
:func:`~repro.scenarios.recursive.closed_form_pfail` in a bounded number
of sweeps (Jacobian probes included) however slowly the Kleene iteration
would contract, and it must still return the *least* fixed point where
every point is a fixed point.
"""

import pytest

from repro import observability as obs
from repro.core import FixedPointEvaluator
from repro.model import (
    AnalyticInterface,
    Assembly,
    CompositeService,
    FlowBuilder,
    FormalParameter,
    IntegerDomain,
    ServiceRequest,
    perfect_connector,
)
from repro.scenarios import (
    RecursiveParameters,
    closed_form_pfail,
    recursive_assembly,
)
from repro.symbolic import Parameter

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
    evaluator = FixedPointEvaluator(recursive_assembly(params))
    exact = dict(zip("AB", closed_form_pfail(params)))[service]
    assert abs(evaluator.pfail(service, size=1) - exact) <= bound
    assert evaluator.iterations_used <= MAX_SWEEPS
    assert not evaluator.fell_back
    assert evaluator.error_bound < evaluator.tolerance


def never_terminating_assembly() -> Assembly:
    """``A`` calls ``B``, ``B`` calls ``A`` with probability 1, and no call
    ever fails: ``F(x) = x``, so every ``x`` in ``[0, 1]`` is a fixed
    point and ``J = 1``.  (``RecursiveParameters`` refuses ``r = 1``.)"""
    size = Parameter("size")
    interface = AnalyticInterface(
        formal_parameters=(FormalParameter("size", domain=IntegerDomain(low=0)),),
    )

    def service(name: str) -> CompositeService:
        flow = (
            FlowBuilder(formals=("size",))
            .state("call", requests=[ServiceRequest("next", actuals={"size": size})])
            .sequence("call")
            .build()
        )
        return CompositeService(name, interface, flow)

    assembly = Assembly("never-terminating")
    assembly.add_services(
        service("A"), service("B"),
        perfect_connector("loc_ab"), perfect_connector("loc_ba"),
    )
    assembly.bind("A", "next", "B", connector="loc_ab")
    assembly.bind("B", "next", "A", connector="loc_ba")
    return assembly


@pytest.mark.parametrize("service", ["A", "B"])
def test_never_terminating_recursion_returns_the_least_fixed_point(service):
    evaluator = FixedPointEvaluator(never_terminating_assembly())
    assert evaluator.pfail(service, size=1) == 0.0
    # rho(J) = 1: the safeguard refuses the Newton step, Kleene answers
    assert evaluator.fell_back
    assert evaluator.newton_steps == 0
    assert evaluator.iterations_used <= MAX_SWEEPS


def test_each_solve_is_one_tagged_span_and_counts_its_sweeps():
    obs.reset()
    obs.enable()
    try:
        never = FixedPointEvaluator(never_terminating_assembly())
        never.pfail("A", size=1)
        newton = FixedPointEvaluator(recursive_assembly())
        newton.pfail("A", size=1)
        spans = [
            span for span in obs.tracer().finished
            if span.name == "fixed_point.solve"
        ]
        counters = obs.registry().snapshot()["counters"]
    finally:
        obs.reset()
    assert [span.tags for span in spans] == [
        {"service": "A", "sweeps": e.iterations_used,
         "newton_steps": e.newton_steps, "fallback": e.fell_back,
         "error_bound": e.error_bound}
        for e in (never, newton)
    ]
    assert counters["fixed_point.sweeps"] == (
        never.iterations_used + newton.iterations_used
    )
    assert counters["fixed_point.fallbacks"] == 1
