"""Property tests for the expression engine.

Random expression trees over a bounded-value domain; key invariants:
simplification and serialization preserve semantics, substitution respects
composition, differentiation matches finite differences.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.symbolic import (
    Binary,
    Call,
    Constant,
    Expression,
    Parameter,
    simplify,
)

#: Parameter names used by generated trees.
NAMES = ("x", "y", "z")

#: Value domain kept in a range where all generated operations are finite
#: and well-conditioned.
values = st.floats(min_value=0.1, max_value=4.0)


def expressions(max_depth: int = 4) -> st.SearchStrategy[Expression]:
    """Strategy for random, numerically tame expression trees."""
    leaves = st.one_of(
        st.floats(min_value=0.1, max_value=4.0).map(Constant),
        st.sampled_from(NAMES).map(Parameter),
    )

    def extend(children):
        binary = st.builds(
            Binary,
            st.sampled_from(["+", "-", "*", "/"]),
            children,
            children,
        )
        call = st.builds(
            lambda name, arg: Call(name, (arg,)),
            st.sampled_from(["log", "log2", "exp", "sqrt"]),
            children,
        )
        return st.one_of(binary, call)

    return st.recursive(leaves, extend, max_leaves=2**max_depth)


def tame(value) -> bool:
    return np.all(np.isfinite(value)) and np.all(np.abs(value) < 1e12)


def subvalues_tame(expr: Expression, env) -> bool:
    """True when every sub-expression evaluates to a finite, moderately
    scaled value and no log sits on its clamp boundary — the domain on
    which simplification rewrites (e.g. ``log(exp(u)) -> u``,
    ``exp(log(u)) -> u``) are contractually semantics-preserving."""
    with np.errstate(all="ignore"):
        if not tame(expr.evaluate(env)):
            return False
        if isinstance(expr, Call) and expr.name in ("log", "log2"):
            argument = expr.args[0].evaluate(env)
            if not (np.all(np.isfinite(argument)) and np.all(argument > 1e-9)):
                return False
    return all(subvalues_tame(child, env) for child in expr.children())


@st.composite
def expression_and_env(draw):
    expr = draw(expressions())
    env = {name: draw(values) for name in NAMES}
    # discard pathologically scaled samples (overflow from exp chains,
    # division blow-ups) anywhere in the tree, not only at the root
    if not subvalues_tame(expr, env):
        raise_unsatisfied()
    return expr, env, expr.evaluate(env)


def raise_unsatisfied():
    from hypothesis import assume

    assume(False)


class TestSimplification:
    @given(expression_and_env())
    @settings(max_examples=200)
    def test_simplify_preserves_value(self, data):
        expr, env, expected = data
        simplified = simplify(expr)
        got = simplified.evaluate(env)
        assert got == pytest.approx(expected, rel=1e-9, abs=1e-9)

    @given(expression_and_env())
    @settings(max_examples=100)
    def test_simplify_is_idempotent(self, data):
        expr, _, _ = data
        once = simplify(expr)
        assert simplify(once) == once

    @given(expression_and_env())
    @settings(max_examples=100)
    def test_simplify_never_adds_parameters(self, data):
        expr, _, _ = data
        assert simplify(expr).free_parameters() <= expr.free_parameters()


class TestSerialization:
    @given(expressions())
    @settings(max_examples=200)
    def test_dict_round_trip_is_identity(self, expr):
        assert Expression.from_dict(expr.to_dict()) == expr

    @given(expression_and_env())
    @settings(max_examples=100)
    def test_str_reparse_preserves_value(self, data):
        from repro.symbolic import parse_expression

        expr, env, expected = data
        reparsed = parse_expression(str(expr))
        assert reparsed.evaluate(env) == pytest.approx(expected, rel=1e-12, abs=1e-12)


class TestSubstitution:
    @given(expression_and_env(), st.sampled_from(NAMES))
    @settings(max_examples=100)
    def test_substitute_then_evaluate_equals_evaluate_extended(self, data, name):
        """expr[name := c].evaluate(env) == expr.evaluate(env | {name: c})."""
        from hypothesis import assume

        expr, env, _ = data
        constant = 1.7
        substituted = expr.substitute({name: Constant(constant)})
        with np.errstate(all="ignore"):
            direct = expr.evaluate({**env, name: constant})
            indirect = substituted.evaluate(env)
        assume(tame(direct))
        assert indirect == pytest.approx(direct, rel=1e-12, abs=1e-12)

    @given(expression_and_env())
    @settings(max_examples=100)
    def test_identity_substitution_is_noop(self, data):
        expr, env, expected = data
        same = expr.substitute({n: Parameter(n) for n in NAMES})
        assert same.evaluate(env) == pytest.approx(expected, rel=0, abs=0)


class TestVectorization:
    @given(expression_and_env())
    @settings(max_examples=100)
    def test_array_evaluation_matches_pointwise(self, data):
        expr, env, _ = data
        grid = np.array([0.3, 1.1, 2.7])
        array_env = {**env, "x": grid}
        with np.errstate(all="ignore"):
            vectorized = expr.evaluate(array_env)
            for i, x in enumerate(grid):
                pointwise = expr.evaluate({**env, "x": float(x)})
                got = (
                    vectorized[i]
                    if isinstance(vectorized, np.ndarray)
                    else vectorized
                )
                if np.isnan(pointwise):
                    # e.g. sqrt(log(x)) off the sampled domain: both routes
                    # must agree that the point is undefined
                    assert np.isnan(got)
                else:
                    assert got == pytest.approx(pointwise, rel=1e-12, abs=1e-12)


#: Every leaf, ``x`` at its finite-difference probes included, stays in
#: this interval when evaluated on ``values``.
LEAF_RANGE = (0.09, 4.01)

#: Magnitude cap on every sub-expression of a smooth tree: small enough
#: that a finite difference with step 1e-6 loses nothing to cancellation.
SMOOTH_CAP = 1e3

#: Distance from zero kept by denominators and by log and sqrt arguments,
#: so the library's clamps (log and sqrt of non-positive values) never
#: act and every derivative rule holds.
SMOOTH_FLOOR = 0.05


def _smooth(op: str, a: tuple, b: tuple | None):
    """The range of ``op`` over the ranges ``a`` (and ``b``), or ``None``
    when ``op`` could leave the smooth, bounded domain there."""
    (lo, hi) = a
    if op == "+":
        out = (lo + b[0], hi + b[1])
    elif op == "-":
        out = (lo - b[1], hi - b[0])
    elif op in ("*", "/"):
        if op == "/":
            if b[0] < SMOOTH_FLOOR and b[1] > -SMOOTH_FLOOR:
                return None
            b = (1.0 / b[1], 1.0 / b[0])
        products = [x * y for x in a for y in b]
        out = (min(products), max(products))
    elif op == "exp":
        out = (math.exp(lo), math.exp(hi)) if hi <= 4.0 else None
    elif lo < SMOOTH_FLOOR:  # log, log2, sqrt
        return None
    else:
        function = {"log": math.log, "log2": math.log2, "sqrt": math.sqrt}[op]
        out = (function(lo), function(hi))
    if out is None or max(abs(out[0]), abs(out[1])) > SMOOTH_CAP:
        return None
    return out


@st.composite
def smooth_expression(draw, depth: int = 4, with_x: bool = True):
    """A tree holding ``x`` (when ``with_x``) that is smooth and bounded on
    ``LEAF_RANGE`` by construction, with its interval range.

    Each operator is applied only when interval arithmetic proves it
    smooth and bounded over the children's ranges; otherwise the node is
    the child that holds ``x``.  Nothing is filtered afterwards.
    """
    if depth == 0 or draw(st.integers(0, 3)) == 0:
        if with_x:
            return Parameter("x"), LEAF_RANGE
        if draw(st.booleans()):
            return Parameter(draw(st.sampled_from(NAMES))), LEAF_RANGE
        value = draw(values)
        return Constant(value), (value, value)
    op = draw(st.sampled_from(["+", "-", "*", "/", "log", "log2", "exp", "sqrt"]))
    if op in ("log", "log2", "exp", "sqrt"):
        child, span = draw(smooth_expression(depth - 1, with_x))
        out = _smooth(op, span, None)
        return (child, span) if out is None else (Call(op, (child,)), out)
    x_left = draw(st.booleans())
    left, left_span = draw(smooth_expression(depth - 1, with_x and x_left))
    right, right_span = draw(smooth_expression(depth - 1, with_x and not x_left))
    out = _smooth(op, left_span, right_span)
    if out is None:
        return (left, left_span) if x_left else (right, right_span)
    return Binary(op, left, right), out


class TestDifferentiation:
    @given(smooth_expression(), st.fixed_dictionaries({n: values for n in NAMES}))
    @settings(max_examples=150)
    def test_derivative_matches_finite_difference(self, tree, env):
        expr, _ = tree
        derivative = expr.differentiate("x")
        x = env["x"]
        h = 1e-6 * max(abs(x), 1.0)
        f_plus = expr.evaluate({**env, "x": x + h})
        f_minus = expr.evaluate({**env, "x": x - h})
        symbolic = derivative.evaluate(env)
        numeric = (f_plus - f_minus) / (2 * h)
        assert symbolic == pytest.approx(numeric, rel=2e-3, abs=2e-3)
