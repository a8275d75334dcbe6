"""Unit tests for the symbolic kernel compiler.

Covers the lowering pipeline (CSE by hash-consing, finite-only constant
folding, tape emission), the equivalence contract against the tree walk,
kernel-cache behavior (structural keying, statistics, eviction), buffer
hygiene across calls and threads, and the engine-plan integration.
"""

import pickle
import threading

import numpy as np
import pytest

from repro.caching import LRUCache
from repro.errors import EvaluationError, UnboundParameterError
from repro.scenarios import local_assembly, remote_assembly
from repro.symbolic import (
    Binary,
    Call,
    Constant,
    KernelCache,
    Parameter,
    compile_expression,
    default_kernel_cache,
    gradient_kernels,
    kernel_cache_stats,
    reset_default_kernel_cache,
)

X = Parameter("x")
Y = Parameter("y")


@pytest.fixture(autouse=True)
def fresh_default_cache():
    reset_default_kernel_cache()
    yield
    reset_default_kernel_cache()


def sort_closed_form():
    """The eq. 18 shape: composition by substitution duplicates N."""
    lst = Parameter("list")
    n = lst * Call("log2", (lst,))
    cpu = Parameter("cpu")
    inner = 1.0 - (1.0 - cpu) ** n
    return 1.0 - (1.0 - inner) * (1.0 - inner) * (1.0 - cpu) ** (n * n)


class TestLowering:
    def test_scalar_matches_tree_walk_exactly(self):
        expr = sort_closed_form()
        kernel = compile_expression(expr, cache=False)
        env = {"list": 37.0, "cpu": 3e-4}
        assert kernel.evaluate(env) == expr.evaluate(env)

    def test_array_matches_tree_walk_bitwise(self):
        expr = sort_closed_form()
        kernel = compile_expression(expr, cache=False)
        env = {"list": np.linspace(1.0, 300.0, 64), "cpu": 3e-4}
        assert np.array_equal(kernel.evaluate(env), expr.evaluate(env))

    def test_cse_collapses_duplicated_subtrees(self):
        expr = sort_closed_form()
        kernel = compile_expression(expr, cache=False)
        # the tree repeats N = list*log2(list) four times; the DAG holds it once
        assert kernel.op_count < kernel.tree_nodes
        assert kernel.dag_nodes < kernel.tree_nodes
        assert kernel.tree_nodes == expr.node_count()

    def test_shared_subexpression_computed_once(self):
        # (x+y) appears twice in the tree but once in the tape
        shared = X + Y
        expr = shared * shared
        kernel = compile_expression(expr, cache=False)
        assert kernel.op_count == 2  # one add, one multiply

    def test_constant_folding(self):
        expr = (Constant(2.0) + Constant(3.0)) * X
        kernel = compile_expression(expr, cache=False)
        assert kernel.folded == 1
        assert kernel.op_count == 1  # only the multiply survives
        assert kernel.evaluate({"x": 4.0}) == 20.0

    def test_nonfinite_folds_stay_in_the_tape(self):
        # 1/0 must not fold: the tree walk produces the inf (and its
        # RuntimeWarning) at evaluation time, so the kernel must too
        expr = Constant(1.0) / Constant(0.0) + X
        kernel = compile_expression(expr, cache=False)
        assert kernel.folded == 0
        with np.errstate(all="ignore"):
            assert kernel.evaluate({"x": 1.0}) == expr.evaluate({"x": 1.0})

    def test_unbound_parameter_raises_like_the_tree(self):
        kernel = compile_expression(X + Y, cache=False)
        with pytest.raises(UnboundParameterError):
            kernel.evaluate({"x": 1.0})
        with pytest.raises(UnboundParameterError):
            kernel.evaluate(None)

    def test_broadcastable_shapes_match_tree_walk_bitwise(self):
        expr = sort_closed_form()
        kernel = compile_expression(expr, cache=False)
        env = {"list": np.linspace(1.0, 300.0, 5).reshape(1, 5),
               "cpu": np.array([[1e-4], [3e-4]])}
        assert np.array_equal(kernel.evaluate(env), expr.evaluate(env))

    def test_non_broadcastable_shapes_raise_like_the_tree(self):
        expr = sort_closed_form()
        kernel = compile_expression(expr, cache=False)
        env = {"list": np.linspace(1.0, 300.0, 3),
               "cpu": np.array([1e-4, 2e-4, 3e-4, 4e-4])}
        with pytest.raises(ValueError):
            expr.evaluate(env)
        with pytest.raises(ValueError):
            kernel.evaluate(env)

    def test_extra_bindings_are_ignored(self):
        kernel = compile_expression(X + 1.0, cache=False)
        assert kernel.evaluate({"x": 1.0, "unused": 99.0}) == 2.0

    def test_guarded_log_edges_match(self):
        expr = Call("log", (X,)) + Call("log2", (X,))
        kernel = compile_expression(expr, cache=False)
        edge = {"x": np.array([0.0, -2.0, 1.0, 8.0])}
        assert np.array_equal(kernel.evaluate(edge), expr.evaluate(edge))

    def test_deep_chain_does_not_hit_recursion_limit(self):
        expr = X
        for _ in range(4000):
            expr = expr + 1.0
        kernel = compile_expression(expr, cache=False)
        assert kernel.evaluate({"x": 0.0}) == 4000.0

    def test_parameters_in_first_use_order(self):
        kernel = compile_expression(Y + X + Y, cache=False)
        assert kernel.parameters == ("y", "x")

    def test_describe_lists_the_tape(self):
        kernel = compile_expression(X * X + 1.0, cache=False)
        text = kernel.describe()
        assert "param x" in text
        assert "return" in text


class TestBufferHygiene:
    def test_result_does_not_alias_across_calls(self):
        kernel = compile_expression(X * 2.0, cache=False)
        first = kernel.evaluate({"x": np.array([1.0, 2.0])})
        second = kernel.evaluate({"x": np.array([5.0, 6.0])})
        assert np.array_equal(first, [2.0, 4.0])  # not clobbered
        assert np.array_equal(second, [10.0, 12.0])

    def test_scalar_after_array_and_back(self):
        kernel = compile_expression(X * 2.0 + Y, cache=False)
        assert kernel.evaluate({"x": 1.0, "y": 1.0}) == 3.0
        arr = kernel.evaluate({"x": np.array([1.0, 2.0]), "y": 1.0})
        assert np.array_equal(arr, [3.0, 5.0])
        assert kernel.evaluate({"x": 2.0, "y": 0.0}) == 4.0

    def test_changing_grid_shapes_reallocate(self):
        kernel = compile_expression(X + Y, cache=False)
        a = kernel.evaluate({"x": np.ones(3), "y": 1.0})
        b = kernel.evaluate({"x": np.ones(5), "y": 1.0})
        assert a.shape == (3,) and b.shape == (5,)

    def test_concurrent_evaluation_from_threads(self):
        expr = sort_closed_form()
        kernel = compile_expression(expr, cache=False)
        grids = [np.linspace(1.0 + i, 200.0 + i, 97) for i in range(4)]
        expected = [
            expr.evaluate({"list": g, "cpu": 3e-4}) for g in grids
        ]
        results: dict[int, np.ndarray] = {}

        def work(i: int) -> None:
            for _ in range(50):
                results[i] = kernel.evaluate({"list": grids[i], "cpu": 3e-4})

        threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for i in range(4):
            assert np.array_equal(results[i], expected[i])


class TestKernelCache:
    def test_structurally_equal_trees_share_a_kernel(self):
        cache = KernelCache()
        k1 = cache.get_or_compile(sort_closed_form())
        k2 = cache.get_or_compile(sort_closed_form())
        assert k1 is k2
        assert cache.stats.hits == 1 and cache.stats.misses == 1

    def test_a_signed_zero_gets_its_own_kernel(self):
        cache = KernelCache()
        positive = cache.get_or_compile(1.0 / (X * 0.0))
        negative = cache.get_or_compile(1.0 / (X * -0.0))
        assert positive is not negative
        with np.errstate(divide="ignore"):
            assert negative.evaluate({"x": 2.0}) == -np.inf
            assert positive.evaluate({"x": 2.0}) == np.inf

    def test_default_cache_and_stats_snapshot(self):
        compile_expression(X + 1.0)
        compile_expression(X + 1.0)
        stats = kernel_cache_stats()
        assert stats["misses"] == 1 and stats["hits"] == 1
        assert len(default_kernel_cache()) == 1

    def test_cache_false_compiles_fresh(self):
        k1 = compile_expression(X + 1.0, cache=False)
        k2 = compile_expression(X + 1.0, cache=False)
        assert k1 is not k2
        assert len(default_kernel_cache()) == 0

    def test_lru_eviction_past_bound(self):
        cache = KernelCache(max_size=2)
        for i in range(4):
            cache.get_or_compile(X + float(i))
        assert len(cache) == 2
        assert cache.stats.evictions == 2

    def test_clear_keeps_statistics(self):
        cache = KernelCache()
        cache.get_or_compile(X)
        cache.clear()
        assert len(cache) == 0
        assert cache.stats.misses == 1

    def test_invalid_bound_rejected(self):
        with pytest.raises(EvaluationError):
            KernelCache(max_size=0)


class TestGradientKernels:
    def test_matches_symbolic_derivative(self):
        expr = sort_closed_form()
        kernels = gradient_kernels(expr, ("list", "cpu"))
        env = {"list": 50.0, "cpu": 1e-3}
        for name in ("list", "cpu"):
            assert kernels[name].evaluate(env) == (
                expr.differentiate(name).evaluate(env)
            )

    def test_derivatives_memoized_across_calls(self):
        expr = sort_closed_form()
        a = gradient_kernels(expr, ("list",))
        b = gradient_kernels(expr, ("list",))
        assert a["list"] is b["list"]


class TestSharedLRUCache:
    def test_get_does_not_touch_stats(self):
        cache = LRUCache(max_size=4)
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert cache.get("missing") is None
        assert cache.stats.lookups == 0

    def test_get_or_create_counts_and_recency(self):
        cache = LRUCache(max_size=2)
        cache.get_or_create("a", lambda: 1)
        cache.get_or_create("b", lambda: 2)
        cache.get_or_create("a", lambda: 0)  # hit refreshes recency
        cache.put("c", 3)  # evicts b, the least recent
        assert cache.get("b") is None and cache.get("a") == 1
        assert cache.stats.hits == 1 and cache.stats.misses == 2


class TestPlanIntegration:
    def test_plan_pfail_kernel_matches_tree_walk(self):
        from repro.engine.plan import compile_plan

        plan = compile_plan(local_assembly(), "search")
        point = {"elem": 1.0, "list": 500.0, "res": 1.0}
        assert plan.pfail(point) == plan.expression.evaluate(point)

    def test_plan_grid_kernel_matches_tree_walk(self):
        from repro.engine.plan import compile_plan

        plan = compile_plan(remote_assembly(), "search")
        grid = np.linspace(1.0, 1000.0, 37)
        fixed = {"elem": 1.0, "res": 1.0}
        assert np.array_equal(
            plan.pfail_grid("list", grid, fixed),
            plan.expression.evaluate({**fixed, "list": grid}),
        )

    def test_pickled_plan_drops_and_rebuilds_kernel(self):
        from repro.engine.plan import compile_plan

        plan = compile_plan(local_assembly(), "search")
        plan.kernel()  # force compilation
        clone = pickle.loads(pickle.dumps(plan))
        assert clone._kernel_obj is None
        point = {"elem": 1.0, "list": 500.0, "res": 1.0}
        assert clone.pfail(point) == plan.pfail(point)

    def test_symbolic_evaluator_memoizes_kernels(self):
        from repro.core.symbolic_evaluator import SymbolicEvaluator

        evaluator = SymbolicEvaluator(local_assembly())
        k1 = evaluator.pfail_kernel("search")
        k2 = evaluator.pfail_kernel("search")
        assert k1 is k2
        env = {"elem": 1.0, "list": 500.0, "res": 1.0}
        assert k1.evaluate(env) == (
            evaluator.pfail_expression("search").evaluate(env)
        )

    def test_robust_plan_has_no_kernel(self):
        from repro.engine.plan import compile_plan

        plan = compile_plan(local_assembly(), "search", backend="robust")
        assert plan.kernel() is None
