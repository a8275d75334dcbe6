"""Typed-error parity of the numeric evaluator.

Each model below holds exactly one out-of-range quantity.  The evaluator
must reject it with :class:`ProbabilityRangeError` naming that quantity
(``.what``) and carrying its value (``.value``), whichever way eqs. 4–13
are computed.  These pins were taken against the one-request-at-a-time
evaluator and must hold for any faster route to the same numbers.
"""

import math

import pytest

from repro.core import ReliabilityEvaluator, and_sharing, poisson_binomial_below
from repro.errors import ProbabilityRangeError
from repro.model import (
    AND,
    OR,
    AnalyticInterface,
    Assembly,
    CompositeService,
    FlowBuilder,
    KOfNCompletion,
    ServiceRequest,
    SimpleService,
)
from repro.symbolic import Constant


def one_state_assembly(
    completion=AND,
    internal=(0.01, 0.02, 0.03),
    masking=(0.0, 0.0, 0.0),
    provider=0.05,
    connector=0.001,
    shared=False,
) -> Assembly:
    """``app`` with one state of three requests to ``db`` over ``net``."""
    requests = [
        ServiceRequest(
            "db", internal_failure=Constant(p), masking=Constant(m)
        )
        for p, m in zip(internal, masking)
    ]
    flow = (
        FlowBuilder(formals=())
        .state("q", requests, completion=completion, shared=shared)
        .sequence("q")
        .build()
    )
    assembly = Assembly("parity")
    assembly.add_services(
        CompositeService("app", AnalyticInterface(), flow),
        SimpleService("db", AnalyticInterface(), Constant(provider)),
        SimpleService("net", AnalyticInterface(), Constant(connector)),
    )
    assembly.bind("app", "db", "db", connector="net")
    return assembly


def raised(assembly: Assembly) -> ProbabilityRangeError:
    evaluator = ReliabilityEvaluator(assembly, validate=False)
    with pytest.raises(ProbabilityRangeError) as info:
        evaluator.pfail("app")
    return info.value


CASES = {
    "internal failure > 1": (
        dict(internal=(0.01, 1.5, 0.03)),
        "internal failure probability", 1.5,
    ),
    "masking < 0": (
        dict(masking=(0.0, 0.0, -0.25)),
        "masking probability", -0.25,
    ),
    "connector Pfail > 1": (
        dict(connector=1.25),
        "Pfail(net)", 1.25,
    ),
    "provider Pfail > 1": (
        dict(provider=1.75),
        "Pfail(db)", 1.75,
    ),
    "k-of-n state with masking": (
        dict(completion=KOfNCompletion(2), masking=(0.5, 1.5, 0.25)),
        "masking probability", 1.5,
    ),
    "shared OR state, internal failure < 0": (
        dict(completion=OR, shared=True, internal=(0.01, -0.5, 0.03)),
        "internal failure probability", -0.5,
    ),
}


@pytest.mark.parametrize("case", list(CASES))
def test_single_offender_is_named_with_its_value(case):
    overrides, what, value = CASES[case]
    error = raised(one_state_assembly(**overrides))
    assert type(error) is ProbabilityRangeError
    assert error.what == what
    assert error.value == value


def test_in_range_model_evaluates():
    pfail = ReliabilityEvaluator(one_state_assembly()).pfail("app")
    assert 0.0 < pfail < 1.0 and math.isfinite(pfail)


class TestNaNIsOutOfRange:
    """NaN fails every range check, named where it first appears."""

    @staticmethod
    def assert_nan(error: ProbabilityRangeError, what: str):
        assert error.what == what
        assert math.isnan(error.value)

    def test_the_check_itself(self):
        from repro.core.state_failure import _check_probability

        with pytest.raises(ProbabilityRangeError) as info:
            _check_probability("x", math.nan)
        self.assert_nan(info.value, "x")

    def test_state_probabilities(self):
        evaluator = ReliabilityEvaluator(
            one_state_assembly(internal=(0.01, math.nan, 0.03)), validate=False
        )
        with pytest.raises(ProbabilityRangeError) as info:
            evaluator.state_probabilities("app")
        self.assert_nan(info.value, "internal failure probability")

    def test_state_math_entry_points(self):
        with pytest.raises(ProbabilityRangeError) as info:
            poisson_binomial_below([math.nan], 1)
        self.assert_nan(info.value, "success probability")
        with pytest.raises(ProbabilityRangeError) as info:
            and_sharing([math.nan], [0.1])
        self.assert_nan(info.value, "internal")

    def test_pfail_blames_the_request_not_the_state(self):
        error = raised(one_state_assembly(internal=(0.01, math.nan, 0.03)))
        self.assert_nan(error, "internal failure probability")
