"""Unit tests for the fixed-point evaluator (recursive assemblies)."""

import json

import pytest

from repro.core import FixedPointEvaluator, ReliabilityEvaluator
from repro.dsl import dump_assembly, load_assembly
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


class TestAcyclicEquivalence:
    def test_matches_recursive_evaluator_on_acyclic_assembly(self):
        assembly = local_assembly()
        recursive = ReliabilityEvaluator(assembly)
        fixed = FixedPointEvaluator(assembly)
        for n in (10, 100, 1000):
            assert fixed.pfail("search", elem=1, list=n, res=1) == pytest.approx(
                recursive.pfail("search", elem=1, list=n, res=1), rel=1e-15
            )

    def test_acyclic_converges_in_one_sweep(self):
        fixed = FixedPointEvaluator(local_assembly())
        fixed.pfail("search", elem=1, list=10, res=1)
        assert fixed.iterations_used == 1


class TestCyclicAssemblies:
    def test_matches_algebraic_fixed_point(self):
        params = RecursiveParameters()
        evaluator = FixedPointEvaluator(recursive_assembly(params))
        exact_a, exact_b = closed_form_pfail(params)
        assert evaluator.pfail("A", size=1) == pytest.approx(exact_a, abs=1e-10)
        assert evaluator.pfail("B", size=1) == pytest.approx(exact_b, abs=1e-10)

    @pytest.mark.parametrize("r", [0.0, 0.1, 0.5, 0.9, 0.99])
    def test_across_recursion_probabilities(self, r):
        params = RecursiveParameters(recursion_probability=r)
        evaluator = FixedPointEvaluator(recursive_assembly(params), tolerance=1e-14)
        exact_a, _ = closed_form_pfail(params)
        assert evaluator.pfail("A", size=1) == pytest.approx(exact_a, abs=1e-9)

    def test_kleene_iteration_is_monotone_from_below(self):
        """The answer must not exceed the limit (least fixed point reached
        from 0)."""
        params = RecursiveParameters(recursion_probability=0.8)
        exact_a, _ = closed_form_pfail(params)
        evaluator = FixedPointEvaluator(recursive_assembly(params), tolerance=1e-15)
        value = evaluator.pfail("A", size=1)
        assert value <= exact_a + 1e-12

    def test_deep_recursion_meets_closed_form_in_few_sweeps(self):
        """Kleene needs about 200 sweeps at r = 0.9; the Newton solve
        needs a handful, probes included, and lands on the closed form."""
        params = RecursiveParameters(recursion_probability=0.9)
        evaluator = FixedPointEvaluator(recursive_assembly(params))
        exact_a, _ = closed_form_pfail(params)
        assert abs(evaluator.pfail("A", size=1) - exact_a) <= 1e-14
        assert 1 < evaluator.iterations_used <= 10
        assert evaluator.newton_steps >= 1 and not evaluator.fell_back
        assert evaluator.error_bound < evaluator.tolerance

    def test_iteration_cap_raises(self):
        params = RecursiveParameters(recursion_probability=0.99)
        evaluator = FixedPointEvaluator(
            recursive_assembly(params), max_iterations=2, tolerance=1e-15
        )
        with pytest.raises(FixedPointDivergenceError):
            evaluator.pfail("A", size=1)

    def test_invalid_tolerance_rejected(self):
        with pytest.raises(FixedPointDivergenceError):
            FixedPointEvaluator(recursive_assembly(), tolerance=0.0)

    def test_result_is_probability(self):
        evaluator = FixedPointEvaluator(recursive_assembly())
        value = evaluator.pfail("A", size=1)
        assert 0.0 <= value <= 1.0

    def test_repeated_queries_consistent(self):
        evaluator = FixedPointEvaluator(recursive_assembly())
        first = evaluator.pfail("A", size=1)
        second = evaluator.pfail("A", size=1)
        assert first == pytest.approx(second, abs=1e-12)


def _descending_recursion():
    """The recursive scenario with B calling ``A(size - 1)``: A is
    re-entered under other actuals than the ones on the stack."""
    data = json.loads(dump_assembly(recursive_assembly()))
    b = next(s for s in data["services"] if s["name"] == "B")
    b["flow"]["states"][0]["requests"][0]["actuals"]["size"] = "size - 1"
    return load_assembly(json.dumps(data))


class TestReentryUnderOtherActuals:
    """Cycle detection is by service name, but a fixed-point unknown is a
    ``(service, actuals)`` key: a re-entry under other actuals is no
    unknown, and every analytic path refuses it with the same typed error
    instead of counting the inner call as perfect."""

    def test_fixed_point_refuses_like_the_plain_evaluator(self):
        model = _descending_recursion()
        with pytest.raises(CyclicAssemblyError):
            ReliabilityEvaluator(model).pfail("A", size=3)
        with pytest.raises(CyclicAssemblyError):
            FixedPointEvaluator(model).pfail("A", size=3)

    def test_robust_chain_serves_no_fixed_point_answer(self):
        with pytest.raises(AllTiersFailedError) as info:
            RobustEvaluator(_descending_recursion()).evaluate("A", size=3)
        errors = {d.tier: d.error for d in info.value.diagnostics}
        assert isinstance(errors["fixed-point"], CyclicAssemblyError)
        assert "monte-carlo" in errors  # the chain fell through to it
