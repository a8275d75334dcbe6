"""Property tests for the fused execution path's parity contract.

The fused executor promises that one stacked kernel call is *bitwise*
identical to the per-point loop it replaces — ``pfail_stack(points)``
must return exactly ``[pfail(p) for p in points]``, and
``CompiledKernel.evaluate_stack`` must match scalar ``evaluate`` calls
element for element.  Random expressions and random point stacks assert
exactly that, on both the compiled-kernel and tree-walk variants.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.plan import compile_plan
from repro.scenarios import local_assembly, remote_assembly
from repro.symbolic import compile_expression

from test_kernel_compiler import NAMES, expressions

finite_values = st.floats(
    min_value=0.05, max_value=4.0, allow_nan=False, allow_infinity=False
)


def stacks(n):
    """One (n,)-column per parameter name."""
    return st.fixed_dictionaries({
        name: st.lists(finite_values, min_size=n, max_size=n)
        for name in NAMES
    })


class TestEvaluateStackParity:
    @given(expressions(), st.integers(1, 7).flatmap(
        lambda n: st.tuples(st.just(n), stacks(n))
    ))
    @settings(max_examples=150, deadline=None)
    def test_stack_matches_scalar_calls(self, expression, case):
        n, columns = case
        kernel = compile_expression(expression, cache=False)
        arrays = {
            name: np.asarray(values, dtype=float)
            for name, values in columns.items()
        }
        with np.errstate(all="ignore"):
            stacked = kernel.evaluate_stack(arrays, n)
            scalar = np.array([
                kernel.evaluate({k: v[i] for k, v in arrays.items()})
                for i in range(n)
            ], dtype=float)
        assert stacked.shape == (n,)
        assert np.array_equal(stacked, scalar, equal_nan=True)

    @given(expressions(), st.integers(1, 5).flatmap(
        lambda n: st.tuples(st.just(n), stacks(n))
    ))
    @settings(max_examples=75, deadline=None)
    def test_scalar_columns_broadcast(self, expression, case):
        """Scalar-valued columns (one value shared by every point) give
        the same stack as materialized (n,) columns."""
        n, columns = case
        kernel = compile_expression(expression, cache=False)
        arrays = {
            name: np.asarray(values, dtype=float)
            for name, values in columns.items()
        }
        shared = {
            # alternate: even slots stay full columns, odd collapse to
            # their first value repeated
            name: (col if i % 2 == 0
                   else float(col[0]))
            for i, (name, col) in enumerate(arrays.items())
        }
        materialized = {
            name: (col if isinstance(col, np.ndarray)
                   else np.full(n, col))
            for name, col in shared.items()
        }
        with np.errstate(all="ignore"):
            lhs = kernel.evaluate_stack(shared, n)
            rhs = kernel.evaluate_stack(materialized, n)
        assert np.array_equal(lhs, rhs, equal_nan=True)

    @given(expressions(), st.integers(1, 4).flatmap(
        lambda n: st.tuples(st.just(n), stacks(n))
    ))
    @settings(max_examples=50, deadline=None)
    def test_result_never_aliases_input(self, expression, case):
        n, columns = case
        kernel = compile_expression(expression, cache=False)
        arrays = {
            name: np.asarray(values, dtype=float)
            for name, values in columns.items()
        }
        with np.errstate(all="ignore"):
            result = kernel.evaluate_stack(arrays, n)
            again = kernel.evaluate_stack(arrays, n)
        for column in arrays.values():
            assert not np.shares_memory(result, column)
        # nor a reused internal buffer: back-to-back calls are distinct
        assert not np.shares_memory(result, again)


@pytest.fixture(params=["local", "remote"], scope="module")
def plan(request):
    assembly = (
        local_assembly() if request.param == "local" else remote_assembly()
    )
    return compile_plan(assembly, "search")


class TestPfailStackParity:
    @given(points=st.lists(
        st.fixed_dictionaries({
            "elem": st.floats(min_value=0.5, max_value=4.0),
            "list": st.floats(min_value=1.0, max_value=2000.0),
            "res": st.floats(min_value=0.5, max_value=4.0),
        }),
        min_size=1, max_size=9,
    ))
    @settings(max_examples=40, deadline=None)
    def test_stack_matches_loop(self, plan, points):
        stacked = plan.pfail_stack(points)
        loop = np.array([plan.pfail(p) for p in points], dtype=float)
        assert np.array_equal(stacked, loop)

    @given(points=st.lists(
        st.fixed_dictionaries({
            "elem": st.floats(min_value=0.5, max_value=4.0),
            "list": st.floats(min_value=1.0, max_value=2000.0),
            "res": st.floats(min_value=0.5, max_value=4.0),
        }),
        min_size=1, max_size=6,
    ))
    @settings(max_examples=25, deadline=None)
    def test_kernel_and_tree_walk_agree(self, plan, points):
        kernel = plan.pfail_stack(points)
        columns = {
            name: np.array([point[name] for point in points])
            for name in plan.expression.free_parameters()
        }
        tree = np.broadcast_to(
            np.asarray(plan.expression.evaluate(columns), dtype=float),
            (len(points),),
        )
        assert np.array_equal(kernel, tree)
