"""Unit tests for the recursive reliability evaluator (Pfail_Alg)."""

import math

import pytest

from repro.core import ReliabilityEvaluator
from repro.errors import (
    CyclicAssemblyError,
    EvaluationError,
    ModelError,
)
from repro.model import (
    Assembly,
    CpuResource,
    FlowBuilder,
    ServiceRequest,
    perfect_connector,
)
from repro.model.parameters import FormalParameter, IntegerDomain
from repro.model.service import AnalyticInterface, CompositeService
from repro.scenarios import closed_form_pfail, local_assembly, recursive_assembly
from repro.symbolic import Parameter
from tests.recursive_models import descending_recursion


def one_call_assembly(cpu_rate=1e-6, cpu_speed=1e6) -> Assembly:
    """app -> cpu1 with N = n operations; Pfail(app, n) = eq. (1)."""
    flow = (
        FlowBuilder(formals=("n",))
        .state("work", [ServiceRequest("cpu", actuals={"N": Parameter("n")})])
        .sequence("work")
        .build()
    )
    app = CompositeService(
        "app",
        AnalyticInterface(
            formal_parameters=(FormalParameter("n", domain=IntegerDomain(low=0)),)
        ),
        flow,
    )
    assembly = Assembly("one-call")
    assembly.add_services(
        app,
        CpuResource("cpu1", cpu_speed, cpu_rate).service(),
        perfect_connector("loc"),
    )
    assembly.bind("app", "cpu", "cpu1", connector="loc")
    return assembly


class TestSimpleServices:
    def test_simple_service_evaluates_directly(self):
        evaluator = ReliabilityEvaluator(one_call_assembly())
        n = 1e4
        assert evaluator.pfail("cpu1", N=n) == pytest.approx(
            1 - math.exp(-1e-6 * n / 1e6)
        )

    def test_reliability_is_complement(self):
        evaluator = ReliabilityEvaluator(one_call_assembly())
        assert evaluator.reliability("cpu1", N=100) == pytest.approx(
            1 - evaluator.pfail("cpu1", N=100)
        )


class TestCompositeServices:
    def test_single_request_passthrough(self):
        """app's unreliability equals cpu1's at the derived workload."""
        evaluator = ReliabilityEvaluator(one_call_assembly())
        assert evaluator.pfail("app", n=5000) == pytest.approx(
            evaluator.pfail("cpu1", N=5000), rel=1e-12
        )

    def test_accepts_service_object(self):
        assembly = one_call_assembly()
        evaluator = ReliabilityEvaluator(assembly)
        svc = assembly.service("app")
        assert evaluator.pfail(svc, n=10) == evaluator.pfail("app", n=10)

    def test_missing_actual_rejected(self):
        evaluator = ReliabilityEvaluator(one_call_assembly())
        with pytest.raises(EvaluationError):
            evaluator.pfail("app")

    def test_unknown_actual_rejected(self):
        evaluator = ReliabilityEvaluator(one_call_assembly())
        with pytest.raises(EvaluationError):
            evaluator.pfail("app", n=1, bogus=2)

    def test_array_actual_rejected(self):
        import numpy as np

        evaluator = ReliabilityEvaluator(one_call_assembly())
        with pytest.raises(EvaluationError):
            evaluator.pfail("app", n=np.array([1.0, 2.0]))

    def test_domain_check_on_top_level(self):
        evaluator = ReliabilityEvaluator(one_call_assembly())
        with pytest.raises(ModelError):
            evaluator.pfail("app", n=-5)

    def test_domain_check_can_be_disabled(self):
        evaluator = ReliabilityEvaluator(one_call_assembly(), check_domains=False)
        assert 0.0 <= evaluator.pfail("app", n=10.5) <= 1.0

    def test_invalid_assembly_rejected_up_front(self):
        assembly = one_call_assembly()
        # remove the binding by rebuilding without it
        broken = Assembly("broken")
        for svc in assembly.services:
            broken.add_service(svc)
        with pytest.raises(ModelError):
            ReliabilityEvaluator(broken)


class TestMemoization:
    def test_cache_hits_for_repeated_actuals(self):
        evaluator = ReliabilityEvaluator(local_assembly())
        first = evaluator.pfail("search", elem=1, list=100, res=1)
        cached = evaluator.pfail("search", elem=1, list=100, res=1)
        assert first == cached
        assert (("search", (("elem", 1.0), ("list", 100.0), ("res", 1.0)))
                in evaluator._cache)

    def test_clear_cache(self):
        evaluator = ReliabilityEvaluator(local_assembly())
        evaluator.pfail("search", elem=1, list=100, res=1)
        evaluator.clear_cache()
        assert not evaluator._cache

    def test_different_actuals_not_conflated(self):
        evaluator = ReliabilityEvaluator(local_assembly())
        a = evaluator.pfail("search", elem=1, list=10, res=1)
        b = evaluator.pfail("search", elem=1, list=1000, res=1)
        assert a != b


class TestCycles:
    def test_cyclic_assembly_raises_with_cycle_path(self):
        """A recursion re-entering ``A`` under other actuals (``B`` calls
        ``A(size - 1)``) is no fixed-point unknown; it is refused with the
        cycle it closed."""
        evaluator = ReliabilityEvaluator(descending_recursion())
        with pytest.raises(CyclicAssemblyError) as excinfo:
            evaluator.pfail("A", size=1)
        assert excinfo.value.cycle[0] == excinfo.value.cycle[-1]
        assert set(excinfo.value.cycle) == {"A", "B"}

    def test_recursion_under_the_same_actuals_is_a_least_fixed_point(self):
        evaluator = ReliabilityEvaluator(recursive_assembly())
        exact, _ = closed_form_pfail()
        assert evaluator.pfail("A", size=1) == pytest.approx(exact, abs=1e-14)


class TestReport:
    def test_report_totals_match_pfail(self):
        evaluator = ReliabilityEvaluator(local_assembly())
        report = evaluator.report("search", elem=1, list=200, res=1)
        assert report.pfail == pytest.approx(
            evaluator.pfail("search", elem=1, list=200, res=1), rel=1e-12
        )
        assert report.reliability == pytest.approx(1 - report.pfail)

    def test_report_state_breakdowns(self):
        evaluator = ReliabilityEvaluator(local_assembly())
        report = evaluator.report("search", elem=1, list=200, res=1)
        names = {s.state for s in report.states}
        assert names == {"sort", "search"}
        for state in report.states:
            assert 0.0 <= state.failure_probability <= 1.0
            assert state.expected_visits >= 0.0

    def test_expected_visits_reflect_branching(self):
        """The sort state is visited with probability q = 0.9."""
        evaluator = ReliabilityEvaluator(local_assembly())
        report = evaluator.report("search", elem=1, list=200, res=1)
        visits = {s.state: s.expected_visits for s in report.states}
        assert visits["sort"] == pytest.approx(0.9, abs=1e-9)
        # slightly below 1.0: failures in the sort state divert mass to Fail
        failures = {s.state: s.failure_probability for s in report.states}
        expected = 0.9 * (1 - failures["sort"]) + 0.1
        assert visits["search"] == pytest.approx(expected, abs=1e-9)

    def test_dominant_state_is_sort(self):
        """Sorting does list*log(list) work vs log(list): it dominates."""
        evaluator = ReliabilityEvaluator(local_assembly())
        report = evaluator.report("search", elem=1, list=500, res=1)
        assert report.dominant_state().state == "sort"

    def test_report_on_simple_service_rejected(self):
        evaluator = ReliabilityEvaluator(local_assembly())
        with pytest.raises(EvaluationError):
            evaluator.report("cpu1", N=1)

    def test_report_str_renders(self):
        evaluator = ReliabilityEvaluator(local_assembly())
        text = str(evaluator.report("search", elem=1, list=10, res=1))
        assert "Pfail" in text and "sort" in text


class TestStateProbabilities:
    def test_exposes_raw_inputs(self):
        evaluator = ReliabilityEvaluator(local_assembly())
        per_state = evaluator.state_probabilities("search", elem=1, list=100, res=1)
        assert set(per_state) == {"sort", "search"}
        internal, external = per_state["sort"]
        assert len(internal) == len(external) == 1
        # the sort call is a reliable method call: internal failure 0
        assert internal[0] == 0.0
        assert 0.0 < external[0] < 1.0

    def test_rejected_for_simple_service(self):
        evaluator = ReliabilityEvaluator(local_assembly())
        with pytest.raises(EvaluationError):
            evaluator.state_probabilities("cpu1", N=1)
