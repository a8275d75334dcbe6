"""Unit tests for the performance (expected-duration) extension."""

import math

import pytest

from repro.core import PerformanceEvaluator
from repro.errors import CyclicAssemblyError, EvaluationError, ModelError
from repro.model import (
    OR,
    AnalyticInterface,
    Assembly,
    CompositeService,
    CpuResource,
    FlowBuilder,
    KOfNCompletion,
    NetworkResource,
    ServiceRequest,
    SimpleService,
    perfect_connector,
)
from repro.model.parameters import FormalParameter
from repro.scenarios import (
    SearchSortParameters,
    local_assembly,
    recursive_assembly,
    remote_assembly,
)
from repro.symbolic import Constant, Parameter


class TestSimpleDurations:
    def test_cpu_duration_is_n_over_speed(self):
        cpu = CpuResource("cpu1", speed=2e6, failure_rate=1e-7).service()
        assert cpu.execution_time(N=1e6) == pytest.approx(0.5)

    def test_net_duration_is_b_over_bandwidth(self):
        net = NetworkResource("net", bandwidth=1e3, failure_rate=1e-3).service()
        assert net.execution_time(B=500) == pytest.approx(0.5)

    def test_perfect_connector_costs_nothing(self):
        assert perfect_connector("loc").execution_time() == 0.0

    def test_missing_duration_raises(self):
        service = SimpleService("blob", AnalyticInterface(), Constant(0.0))
        with pytest.raises(ModelError):
            service.execution_time()

    def test_duration_expression_validated(self):
        with pytest.raises(ModelError):
            SimpleService(
                "bad", AnalyticInterface(), Constant(0.0),
                duration=Parameter("mystery"),
            )


def build_parallel_assembly(completion, durations=(3.0, 1.0, 2.0)) -> Assembly:
    """One state with three fixed-duration providers under `completion`."""
    flow = (
        FlowBuilder(formals=())
        .state(
            "work",
            [ServiceRequest(f"p{i}", actuals={}) for i in range(len(durations))],
            completion=completion,
        )
        .sequence("work")
        .build()
    )
    app = CompositeService("app", AnalyticInterface(), flow)
    assembly = Assembly("parallel")
    assembly.add_service(app)
    for i, duration in enumerate(durations):
        assembly.add_service(
            SimpleService(
                f"p{i}", AnalyticInterface(), Constant(0.0),
                duration=Constant(duration),
            )
        )
        assembly.bind("app", f"p{i}", f"p{i}")
    return assembly


class TestCompletionSemantics:
    def test_and_completes_at_max(self):
        from repro.model import AND

        evaluator = PerformanceEvaluator(build_parallel_assembly(AND))
        assert evaluator.expected_duration("app") == pytest.approx(3.0)

    def test_or_completes_at_min(self):
        evaluator = PerformanceEvaluator(build_parallel_assembly(OR))
        assert evaluator.expected_duration("app") == pytest.approx(1.0)

    def test_k_of_n_completes_at_kth(self):
        evaluator = PerformanceEvaluator(
            build_parallel_assembly(KOfNCompletion(2))
        )
        assert evaluator.expected_duration("app") == pytest.approx(2.0)


class TestFlowSemantics:
    def test_visit_weighted_branching(self):
        """Start -q-> slow -> End ; Start -(1-q)-> End: E[T] = q * slow."""
        q = 0.25
        flow = (
            FlowBuilder(formals=())
            .state("slow", [ServiceRequest("p", actuals={})])
            .transition("Start", "slow", q)
            .transition("Start", "End", 1 - q)
            .transition("slow", "End", 1)
            .build()
        )
        app = CompositeService("app", AnalyticInterface(), flow)
        assembly = Assembly("branch")
        assembly.add_services(
            app,
            SimpleService("p", AnalyticInterface(), Constant(0.0),
                          duration=Constant(8.0)),
        )
        assembly.bind("app", "p", "p")
        assert PerformanceEvaluator(assembly).expected_duration("app") == (
            pytest.approx(q * 8.0)
        )

    def test_retry_loop_multiplies_visits(self):
        """work -> work w.p. r: E[visits] = 1/(1-r)."""
        r = 0.5
        flow = (
            FlowBuilder(formals=())
            .state("work", [ServiceRequest("p", actuals={})])
            .transition("Start", "work", 1)
            .transition("work", "work", r)
            .transition("work", "End", 1 - r)
            .build()
        )
        app = CompositeService("app", AnalyticInterface(), flow)
        assembly = Assembly("retry")
        assembly.add_services(
            app,
            SimpleService("p", AnalyticInterface(), Constant(0.0),
                          duration=Constant(2.0)),
        )
        assembly.bind("app", "p", "p")
        assert PerformanceEvaluator(assembly).expected_duration("app") == (
            pytest.approx(2.0 / (1 - r))
        )

    def test_connector_duration_serializes_with_provider(self):
        flow = (
            FlowBuilder(formals=())
            .state("work", [ServiceRequest("p", actuals={})])
            .sequence("work")
            .build()
        )
        app = CompositeService("app", AnalyticInterface(), flow)
        assembly = Assembly("conn")
        assembly.add_services(
            app,
            SimpleService("p", AnalyticInterface(), Constant(0.0),
                          duration=Constant(1.0)),
            SimpleService("wire", AnalyticInterface(), Constant(0.0),
                          duration=Constant(0.5)),
        )
        # wire is used as the connector
        from repro.model.connector import SimpleConnector

        assembly = Assembly("conn")
        assembly.add_services(
            app,
            SimpleService("p", AnalyticInterface(), Constant(0.0),
                          duration=Constant(1.0)),
            SimpleConnector("wire", AnalyticInterface(), Constant(0.0),
                            duration=Constant(0.5)),
        )
        assembly.bind("app", "p", "p", connector="wire")
        assert PerformanceEvaluator(assembly).expected_duration("app") == (
            pytest.approx(1.5)
        )


class TestSection4Performance:
    """The reliability/performance trade-off of the paper's example."""

    ACTUALS = {"elem": 1, "list": 500, "res": 1}

    def test_local_hand_computation(self):
        p = SearchSortParameters()
        evaluator = PerformanceEvaluator(local_assembly(p))
        log_list = math.log2(500)
        sort_work = 500 * log_list / p.s1          # sort1's cpu time
        lpc_work = p.lpc_operations / p.s1          # the LPC control transfer
        search_work = log_list / p.s1               # search's own cpu time
        expected = p.q * (sort_work + lpc_work) + search_work
        assert evaluator.expected_duration("search", **self.ACTUALS) == (
            pytest.approx(expected, rel=1e-12)
        )

    def test_remote_pays_the_network(self):
        p = SearchSortParameters()
        local = PerformanceEvaluator(local_assembly(p)).expected_duration(
            "search", **self.ACTUALS
        )
        remote = PerformanceEvaluator(remote_assembly(p)).expected_duration(
            "search", **self.ACTUALS
        )
        assert remote > 10 * local  # the wire dominates at b = 1e3

    def test_remote_duration_grows_with_list(self):
        evaluator = PerformanceEvaluator(remote_assembly())
        small = evaluator.expected_duration("search", elem=1, list=10, res=1)
        large = evaluator.expected_duration("search", elem=1, list=1000, res=1)
        assert large > small

    def test_state_durations_diagnostics(self):
        evaluator = PerformanceEvaluator(remote_assembly())
        breakdown = evaluator.state_durations("search", **self.ACTUALS)
        assert set(breakdown) == {"sort", "search"}
        sort_duration, sort_visits = breakdown["sort"]
        assert sort_visits == pytest.approx(0.9)
        assert sort_duration > breakdown["search"][0]


class TestErrors:
    def test_missing_actuals(self):
        evaluator = PerformanceEvaluator(local_assembly())
        with pytest.raises(EvaluationError):
            evaluator.expected_duration("search", elem=1)

    def test_unknown_actuals(self):
        """Refused as the reliability evaluator refuses them."""
        evaluator = PerformanceEvaluator(local_assembly())
        with pytest.raises(
            EvaluationError,
            match=r"service 'search': unknown actual parameters \['bogus'\]",
        ):
            evaluator.expected_duration("search", elem=1, list=500, res=1, bogus=3)

    def test_cyclic_assembly_rejected(self):
        evaluator = PerformanceEvaluator(recursive_assembly())
        with pytest.raises(CyclicAssemblyError):
            evaluator.expected_duration("A", size=1)

    def test_undurationed_simple_service_reported(self):
        flow = (
            FlowBuilder(formals=())
            .state("work", [ServiceRequest("p", actuals={})])
            .sequence("work")
            .build()
        )
        app = CompositeService("app", AnalyticInterface(), flow)
        assembly = Assembly("nodur")
        assembly.add_services(
            app, SimpleService("p", AnalyticInterface(), Constant(0.0))
        )
        assembly.bind("app", "p", "p")
        with pytest.raises(EvaluationError) as excinfo:
            PerformanceEvaluator(assembly).expected_duration("app")
        assert "publishes no duration" in str(excinfo.value)

    def test_state_durations_on_simple_rejected(self):
        evaluator = PerformanceEvaluator(local_assembly())
        with pytest.raises(EvaluationError):
            evaluator.state_durations("cpu1", N=1)
