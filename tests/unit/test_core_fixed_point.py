"""Unit tests for the least fixed point ``ReliabilityEvaluator`` solves on
recursive assemblies."""

import pytest

from repro.core import ReliabilityEvaluator, fixed_point
from repro.errors import (
    AllTiersFailedError,
    CyclicAssemblyError,
    FixedPointDivergenceError,
)
from repro.runtime import RobustEvaluator
from repro.scenarios import (
    RecursiveParameters,
    closed_form_pfail,
    local_assembly,
    recursive_assembly,
)
from tests.recursive_models import (
    descending_recursion,
    never_terminating_assembly,
    recursion_reached_twice,
    self_recursion,
)


class TestAcyclicEquivalence:
    def test_matches_recursive_evaluator_on_acyclic_assembly(self):
        """An acyclic call solves no fixed point and memoizes as before:
        a fresh evaluator and a reused one give the same bits, and the
        reused one answers a repeat without solving."""
        assembly = local_assembly()
        reused = ReliabilityEvaluator(assembly)
        for n in (10, 100, 1000):
            value = reused.pfail("search", elem=1, list=n, res=1)
            fresh = ReliabilityEvaluator(assembly)
            assert fresh.pfail("search", elem=1, list=n, res=1) == value
            solves = reused.solve_count
            assert reused.pfail("search", elem=1, list=n, res=1) == value
            assert reused.solve_count == solves

    def test_acyclic_converges_in_one_sweep(self):
        evaluator = ReliabilityEvaluator(local_assembly())
        evaluator.pfail("search", elem=1, list=10, res=1)
        assert evaluator.fixed_point is None  # the one pass is the answer


class TestCyclicAssemblies:
    def test_matches_algebraic_fixed_point(self):
        params = RecursiveParameters()
        evaluator = ReliabilityEvaluator(recursive_assembly(params))
        exact_a, exact_b = closed_form_pfail(params)
        assert evaluator.pfail("A", size=1) == pytest.approx(exact_a, abs=1e-10)
        assert evaluator.pfail("B", size=1) == pytest.approx(exact_b, abs=1e-10)

    @pytest.mark.parametrize("r", [0.0, 0.1, 0.5, 0.9, 0.99])
    def test_across_recursion_probabilities(self, r, monkeypatch):
        monkeypatch.setattr(fixed_point, "TOLERANCE", 1e-14)
        params = RecursiveParameters(recursion_probability=r)
        evaluator = ReliabilityEvaluator(recursive_assembly(params))
        exact_a, _ = closed_form_pfail(params)
        assert evaluator.pfail("A", size=1) == pytest.approx(exact_a, abs=1e-9)

    def test_kleene_iteration_is_monotone_from_below(self, monkeypatch):
        """The answer must not exceed the limit (least fixed point reached
        from 0)."""
        monkeypatch.setattr(fixed_point, "TOLERANCE", 1e-15)
        params = RecursiveParameters(recursion_probability=0.8)
        exact_a, _ = closed_form_pfail(params)
        evaluator = ReliabilityEvaluator(recursive_assembly(params))
        value = evaluator.pfail("A", size=1)
        assert value <= exact_a + 1e-12

    def test_deep_recursion_meets_closed_form_in_few_sweeps(self):
        """Kleene needs about 200 sweeps at r = 0.9; the Newton solve
        needs a handful, probes included, and lands on the closed form."""
        params = RecursiveParameters(recursion_probability=0.9)
        evaluator = ReliabilityEvaluator(recursive_assembly(params))
        exact_a, _ = closed_form_pfail(params)
        assert abs(evaluator.pfail("A", size=1) - exact_a) <= 1e-14
        solve = evaluator.fixed_point
        assert 1 < solve.sweeps <= 10
        assert solve.newton_steps >= 1 and not solve.fell_back
        assert solve.error_bound < fixed_point.TOLERANCE

    def test_iteration_cap_raises(self, monkeypatch):
        monkeypatch.setattr(fixed_point, "MAX_SWEEPS", 2)
        monkeypatch.setattr(fixed_point, "TOLERANCE", 1e-15)
        params = RecursiveParameters(recursion_probability=0.99)
        evaluator = ReliabilityEvaluator(recursive_assembly(params))
        with pytest.raises(FixedPointDivergenceError):
            evaluator.pfail("A", size=1)

    def test_a_value_reading_sweep_values_is_not_kept(self):
        """``C`` re-enters nothing, but reads ``A``'s value of the current
        sweep: it must be recomputed every sweep, not kept from the first
        pass."""
        internal_c = 2e-3
        a, _ = closed_form_pfail()
        c = 1.0 - (1.0 - internal_c) * (1.0 - a)
        t = 1.0 - (1.0 - a) * (1.0 - c)
        evaluator = ReliabilityEvaluator(recursion_reached_twice(internal_c))
        assert evaluator.pfail("T", size=1) == pytest.approx(t, abs=1e-14)
        assert evaluator.pfail("C", size=1) == pytest.approx(c, abs=1e-14)

    def test_result_is_probability(self):
        evaluator = ReliabilityEvaluator(recursive_assembly())
        value = evaluator.pfail("A", size=1)
        assert 0.0 <= value <= 1.0

    def test_repeated_queries_consistent(self):
        """A recursive answer reads no value an earlier solve left behind:
        bitwise the same fresh, repeated, and after the other service."""
        fresh = ReliabilityEvaluator(recursive_assembly()).pfail("A", size=1)
        evaluator = ReliabilityEvaluator(recursive_assembly())
        first = evaluator.pfail("A", size=1)
        evaluator.pfail("B", size=1)
        second = evaluator.pfail("A", size=1)
        assert first.hex() == second.hex() == fresh.hex()


class TestReportAtTheFixedPoint:
    """A report breaks a recursive service down at its least fixed point:
    on a fresh evaluator its Pfail is bitwise the one ``pfail`` returns."""

    @pytest.mark.parametrize("build, service", [
        (recursive_assembly, "A"),
        (recursive_assembly, "B"),
        (never_terminating_assembly, "A"),
        (recursion_reached_twice, "T"),
        # where F(x) and x still differ in their last bits at convergence
        (lambda: self_recursion(0.95, 3e-3), "A"),
        (lambda: self_recursion(0.99, 1e-3), "A"),
    ], ids=["mutual-A", "mutual-B", "never-A", "reached-twice-T",
            "self-0.95", "self-0.99"])
    def test_report_pfail_is_pfail(self, build, service):
        report = ReliabilityEvaluator(build()).report(service, size=1)
        pfail = ReliabilityEvaluator(build()).pfail(service, size=1)
        assert report.pfail.hex() == pfail.hex()
        # and whatever the evaluator answered before
        evaluator = ReliabilityEvaluator(build())
        for other in ("A", "B"):
            if other in {s.name for s in evaluator.assembly.services}:
                evaluator.pfail(other, size=1)
        assert evaluator.report(service, size=1).pfail.hex() == pfail.hex()

    def test_self_recursion_meets_its_closed_form(self):
        r, internal = 0.5, 1e-3
        exact = r * internal / (1.0 - r * (1.0 - internal))
        pfail = ReliabilityEvaluator(self_recursion(r, internal)).pfail("A", size=1)
        assert pfail == pytest.approx(exact, abs=1e-15)

    def test_state_probabilities_are_the_reports(self):
        report = ReliabilityEvaluator(recursive_assembly()).report("A", size=1)
        states = ReliabilityEvaluator(recursive_assembly()).state_probabilities(
            "A", size=1
        )
        assert states == {
            s.state: (s.request_internal, s.request_external) for s in report.states
        }
        _, exact_b = closed_form_pfail()
        # A's one request fails externally when B does (perfect connector)
        assert states["call_b"][1][0] == pytest.approx(exact_b, abs=1e-14)


class TestReentryUnderOtherActuals:
    """Cycle detection is by service name, but a fixed-point unknown is a
    ``(service, actuals)`` key: a re-entry under other actuals is no
    unknown, and every analytic path refuses it with the same typed error
    instead of counting the inner call as perfect."""

    def test_fixed_point_refuses_like_the_plain_evaluator(self):
        model = descending_recursion()
        evaluator = ReliabilityEvaluator(model)
        with pytest.raises(CyclicAssemblyError):
            evaluator.pfail("A", size=3)
        with pytest.raises(CyclicAssemblyError):
            evaluator.report("A", size=3)

    def test_robust_chain_serves_no_fixed_point_answer(self):
        with pytest.raises(AllTiersFailedError) as info:
            RobustEvaluator(descending_recursion()).evaluate("A", size=3)
        errors = {d.tier: d.error for d in info.value.diagnostics}
        assert isinstance(errors["numeric"], CyclicAssemblyError)
        assert "monte-carlo" in errors  # the chain fell through to it
