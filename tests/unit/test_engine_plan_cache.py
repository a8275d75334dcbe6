"""Plan cache correctness: hits are free and never stale.

The contract under test (see docs/performance_guide.md):

- same structural fingerprint ⇒ the cached plan is reused and produces the
  *identical* ``Pfail`` with **zero** re-derivations — asserted against
  the solve/derivation counters, not timings;
- any attribute mutation ⇒ a different fingerprint ⇒ a cache miss;
- a warm cache performs at least 5x fewer solves than the cold path on a
  repeated batch workload.
"""

import time

import pytest

from repro import observability as obs
from repro.core.evaluator import ReliabilityEvaluator
from repro.core.symbolic_evaluator import SymbolicEvaluator
from repro.engine import (
    BatchEngine,
    PlanCache,
    compile_plan,
    plan_key,
)
from repro.errors import AllTiersFailedError, BudgetExceededError, EvaluationError
from repro.runtime import EvaluationBudget
from repro.scenarios import local_assembly, recursive_assembly, remote_assembly
from repro.scenarios.search_sort import SearchSortParameters

POINT = {"elem": 1.0, "list": 500.0, "res": 1.0}


def compilation_count() -> int:
    """Plan compilations so far (the registry's ``plan.compilations``)."""
    return obs.registry().counter_value("plan.compilations")


class TestCacheHits:
    def test_same_fingerprint_identical_pfail_zero_rederivations(self):
        cache = PlanCache()
        first = cache.get_or_compile(local_assembly(), "search")
        expected = first.pfail(POINT)

        before = compilation_count()
        # a *rebuilt* structurally identical assembly: same fingerprint
        again = cache.get_or_compile(local_assembly(), "search")
        assert compilation_count() == before  # zero re-derivations
        assert again is first
        assert again.pfail(POINT) == expected

    def test_cached_pfail_matches_recursive_evaluator_exactly(self):
        cache = PlanCache()
        plan = cache.get_or_compile(local_assembly(), "search")
        reference = ReliabilityEvaluator(local_assembly()).pfail("search", **POINT)
        assert plan.pfail(POINT) == reference

    def test_symbolic_plan_evaluation_performs_no_chain_solves(self):
        plan = compile_plan(local_assembly(), "search")
        evaluator = ReliabilityEvaluator(local_assembly())
        evaluator.pfail("search", **POINT)
        assert evaluator.solve_count > 0  # the numeric path does solve
        solves_before = evaluator.solve_count
        plan.pfail(POINT)  # the compiled plan touches no evaluator
        assert evaluator.solve_count == solves_before

    def test_derivation_counter_counts_symbolic_work(self):
        evaluator = SymbolicEvaluator(local_assembly())
        assert evaluator.derivation_count == 0
        evaluator.pfail_expression("search")
        first = evaluator.derivation_count
        assert first > 0
        evaluator.pfail_expression("search")  # memoized: no new derivations
        assert evaluator.derivation_count == first


class TestCacheMisses:
    def test_attribute_mutation_is_a_miss(self):
        cache = PlanCache()
        base = cache.get_or_compile(local_assembly(), "search")
        mutated = cache.get_or_compile(
            local_assembly(SearchSortParameters(phi_sort1=5e-6)), "search"
        )
        assert mutated is not base
        assert cache.stats.misses == 2
        assert base.fingerprint != mutated.fingerprint
        # and the mutated plan answers for the mutated model
        assert mutated.pfail(POINT) != base.pfail(POINT)

    def test_distinct_services_cache_separately(self):
        cache = PlanCache()
        cache.get_or_compile(local_assembly(), "search")
        cache.get_or_compile(local_assembly(), "sort1")
        assert cache.stats.misses == 2

    def test_symbolic_attributes_flag_caches_separately(self):
        cache = PlanCache()
        assembly = local_assembly()
        bound = cache.get_or_compile(assembly, "search")
        free = cache.get_or_compile(assembly, "search", symbolic_attributes=True)
        assert bound is not free
        assert plan_key(assembly, "search", False) != plan_key(
            assembly, "search", True
        )


class TestWarmVsCold:
    def test_warm_cache_at_least_5x_fewer_solves_than_cold(self):
        points = [
            {"elem": 1.0, "list": float(v), "res": 1.0}
            for v in (1, 100, 250, 500, 1000)
        ]
        passes = 5

        cold = BatchEngine(jobs=1, cache=False)
        before = compilation_count()
        for _ in range(passes):
            assert cold.evaluate(local_assembly(), "search", points).ok
        cold_solves = compilation_count() - before

        warm = BatchEngine(jobs=1, cache=PlanCache())
        before = compilation_count()
        for _ in range(passes):
            assert warm.evaluate(local_assembly(), "search", points).ok
        warm_solves = compilation_count() - before

        assert warm_solves == 1  # one warm-up compilation, ever
        assert cold_solves >= 5 * warm_solves


class TestEvictionAndStats:
    def test_lru_eviction_bounds_the_cache(self):
        cache = PlanCache(max_size=1)
        cache.get_or_compile(local_assembly(), "search")
        cache.get_or_compile(remote_assembly(), "search")
        assert len(cache) == 1
        assert cache.stats.evictions == 1
        # the evicted (local) plan now misses again
        cache.get_or_compile(local_assembly(), "search")
        assert cache.stats.misses == 3
        assert cache.stats.hits == 0

    def test_hit_rate_and_snapshot(self):
        cache = PlanCache()
        assembly = local_assembly()
        cache.get_or_compile(assembly, "search")
        cache.get_or_compile(assembly, "search")
        assert cache.stats.hit_rate == pytest.approx(0.5)
        snapshot = cache.stats.snapshot()
        assert snapshot["hits"] == 1 and snapshot["misses"] == 1

    def test_clear_empties_but_keeps_counting(self):
        cache = PlanCache()
        cache.get_or_compile(local_assembly(), "search")
        cache.clear()
        assert len(cache) == 0
        cache.get_or_compile(local_assembly(), "search")
        assert cache.stats.misses == 2


class TestBackends:
    def test_cyclic_assembly_falls_back_to_robust_backend(self):
        plan = compile_plan(recursive_assembly(), "A")
        assert plan.backend == "robust"
        assert 0.0 <= plan.pfail({"size": 1.0}) <= 1.0

    def test_symbolic_backend_refuses_cyclic_when_forced(self):
        from repro.errors import CyclicAssemblyError, SymbolicError

        with pytest.raises((CyclicAssemblyError, SymbolicError)):
            compile_plan(recursive_assembly(), "A", backend="symbolic")

    def test_symbolic_attributes_require_symbolic_backend(self):
        with pytest.raises(EvaluationError):
            compile_plan(
                recursive_assembly(), "A", symbolic_attributes=True
            )


class TestRequestedBackendDecides:
    """``get_or_compile(..., backend=b)`` answers what a cold compile with
    ``b`` answers, whatever an earlier lookup left in the cache."""

    def test_symbolic_sweep_of_cyclic_model_raises_cold_and_warm(self):
        """A recursion no path answers (``A`` re-entered under other
        actuals) stays refused by a symbolic sweep, whatever the cache
        holds."""
        from repro.analysis import sweep_parameter
        from repro.errors import CyclicAssemblyError
        from tests.recursive_models import descending_recursion

        def sweep(cache):
            return sweep_parameter(descending_recursion(), "A", "size",
                                   [1.0, 2.0], cache=cache)

        cold = PlanCache()
        with pytest.raises(CyclicAssemblyError):
            sweep(cold)
        warm = PlanCache()
        assert warm.get_or_compile(descending_recursion(), "A").backend == "robust"
        with pytest.raises(CyclicAssemblyError):
            sweep(warm)

    def test_symbolic_sweep_of_recursive_model_solves_cold_and_warm(self):
        """A recursive model has no closed form: a symbolic sweep solves
        each point's least fixed point, bitwise the numeric sweep, cold and
        after the cache holds its robust plan."""
        from repro.analysis import sweep_parameter

        def sweep(cache, method="symbolic"):
            return sweep_parameter(recursive_assembly(), "A", "size",
                                   [1.0, 2.0], cache=cache, method=method)

        want = sweep(None, method="numeric").pfail.tobytes()
        assert sweep(PlanCache()).pfail.tobytes() == want
        warm = PlanCache()
        assert warm.get_or_compile(recursive_assembly(), "A").backend == "robust"
        assert sweep(warm).pfail.tobytes() == want

    def test_auto_then_symbolic_on_acyclic_compiles_once(self):
        cache = PlanCache()
        auto = cache.get_or_compile(local_assembly(), "search")
        before = compilation_count()
        symbolic = cache.get_or_compile(local_assembly(), "search",
                                        backend="symbolic")
        assert symbolic is auto
        assert compilation_count() == before

    def test_symbolic_then_auto_shares_the_plan(self):
        cache = PlanCache()
        symbolic = cache.get_or_compile(local_assembly(), "search",
                                        backend="symbolic")
        assert cache.get_or_compile(local_assembly(), "search") is symbolic

    def test_robust_request_is_not_served_a_symbolic_plan(self):
        cache = PlanCache()
        cache.get_or_compile(local_assembly(), "search")
        robust = cache.get_or_compile(local_assembly(), "search",
                                      backend="robust")
        assert robust.backend == "robust"
        # ... and an auto lookup afterwards still gets the closed form
        assert cache.get_or_compile(local_assembly(), "search").backend == (
            "symbolic"
        )

    def test_lookup_reports_whether_it_compiled(self):
        cache = PlanCache()
        options = dict(symbolic_attributes=False, backend="auto", budget=None)
        plan, compiled = cache.lookup(local_assembly(), "search", **options)
        assert compiled
        assert cache.lookup(local_assembly(), "search", **options) == (
            plan, False
        )


class TestRobustPlanBudgets:
    """A robust plan reuses its evaluator across calls, never a budget."""

    POINT = {"size": 3.0}

    def test_expired_deadline_does_not_outlive_its_call(self):
        plan = compile_plan(recursive_assembly(), "A")
        expected = compile_plan(recursive_assembly(), "A").pfail(self.POINT)
        try:
            plan.pfail(self.POINT, budget=EvaluationBudget(deadline=0.05))
        except BudgetExceededError:
            pass
        time.sleep(0.1)
        assert plan.pfail(self.POINT) == expected

    def test_sweep_cap_does_not_outlive_its_call(self):
        plan = compile_plan(recursive_assembly(), "A")
        expected = compile_plan(recursive_assembly(), "A").pfail(self.POINT)
        with pytest.raises(AllTiersFailedError):
            plan.pfail(self.POINT, budget=EvaluationBudget(max_sweeps=3))
        assert plan.pfail(self.POINT) == expected
