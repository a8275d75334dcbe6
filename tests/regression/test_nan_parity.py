"""A NaN ``Pfail`` is one typed error on every evaluation path.

One model whose simple service publishes a NaN failure probability is run
through every path that turns a model into a number: the numeric
evaluator, the compiled plan (one point and a fused stack), the Monte
Carlo simulator and each tier of the robust degradation chain.  Each must
reject it with :class:`ProbabilityRangeError`, which the CLI maps to exit
6 and the daemon to HTTP 422 — never a :class:`NumericalInstabilityError`
(exit 7, HTTP 500) on one path and a range error on another.
"""

import math

import pytest

from repro.cli import exit_code_for
from repro.core import ReliabilityEvaluator
from repro.engine.plan import compile_plan
from repro.errors import AllTiersFailedError, ProbabilityRangeError
from repro.model import (
    AnalyticInterface,
    Assembly,
    CompositeService,
    FlowBuilder,
    ServiceRequest,
    SimpleService,
)
from repro.model.parameters import FormalParameter
from repro.runtime import RobustEvaluator
from repro.server.app import http_status_for
from repro.simulation.engine import MonteCarloSimulator
from repro.symbolic import Constant, Parameter


def nan_model() -> Assembly:
    """``app`` calls ``db``, whose published ``Pfail`` is NaN."""
    flow = (
        FlowBuilder(formals=("x",))
        .state("q", [ServiceRequest("db", internal_failure=Constant(0.01))])
        .sequence("q")
        .build()
    )
    assembly = Assembly("nan-pfail")
    assembly.add_services(
        CompositeService(
            "app", AnalyticInterface(formal_parameters=(FormalParameter("x"),)), flow
        ),
        SimpleService(
            "db", AnalyticInterface(attributes={"phi": math.nan}), Parameter("phi")
        ),
    )
    assembly.bind("app", "db", "db")
    return assembly


PATHS = {
    "evaluator": lambda: ReliabilityEvaluator(nan_model(), validate=False).pfail(
        "app", x=1.0
    ),
    "plan": lambda: compile_plan(nan_model(), "app").pfail(x=1.0),
    "fused-stack": lambda: compile_plan(nan_model(), "app").pfail_stack(
        [{"x": 1.0}, {"x": 2.0}]
    ),
    "monte-carlo": lambda: MonteCarloSimulator(
        nan_model(), seed=1, validate=False
    ).estimate_pfail("app", 100, x=1.0),
}


@pytest.mark.parametrize("path", list(PATHS))
def test_path_raises_the_range_error(path):
    with pytest.raises(Exception) as info:
        PATHS[path]()
    error = info.value
    assert type(error) is ProbabilityRangeError
    assert math.isnan(error.value)
    assert exit_code_for(error) == 6
    assert http_status_for(error) == 422


def test_every_robust_tier_raises_the_range_error():
    with pytest.raises(AllTiersFailedError) as info:
        RobustEvaluator(nan_model(), validate=False).evaluate("app", x=1.0)
    assert len(info.value.diagnostics) == 3
    for error in (diagnostic.error for diagnostic in info.value.diagnostics):
        assert type(error) is ProbabilityRangeError
        assert math.isnan(error.value)
        assert exit_code_for(error) == 6
        assert http_status_for(error) == 422
