"""Unit tests for the expression AST."""

import math

import numpy as np
import pytest

from repro.errors import SymbolicError, UnboundParameterError, UnknownFunctionError
from repro.symbolic import (
    Binary,
    Call,
    Constant,
    Environment,
    Expression,
    Parameter,
    Unary,
    as_expression,
)


class TestConstant:
    def test_evaluates_to_its_value(self):
        assert Constant(3.5).evaluate({}) == 3.5

    def test_evaluates_without_environment(self):
        assert Constant(2.0).evaluate() == 2.0

    def test_int_value_coerced_to_float(self):
        c = Constant(3)
        assert isinstance(c.value, float)

    def test_has_no_free_parameters(self):
        assert Constant(1.0).free_parameters() == frozenset()

    def test_is_constant(self):
        assert Constant(1.0).is_constant()
        assert Constant(1.0).constant_value() == 1.0

    def test_rejects_non_numbers(self):
        with pytest.raises(SymbolicError):
            Constant("x")

    def test_rejects_booleans(self):
        with pytest.raises(SymbolicError):
            Constant(True)

    def test_substitute_is_identity(self):
        c = Constant(4.0)
        assert c.substitute({"x": Constant(1.0)}) is c

    def test_str_integral(self):
        assert str(Constant(5.0)) == "5"

    def test_str_fractional(self):
        assert str(Constant(0.25)) == "0.25"


class TestParameter:
    def test_evaluates_from_environment(self):
        assert Parameter("n").evaluate({"n": 7}) == 7.0

    def test_missing_binding_raises(self):
        with pytest.raises(UnboundParameterError) as excinfo:
            Parameter("n").evaluate({})
        assert excinfo.value.name == "n"

    def test_no_environment_raises(self):
        with pytest.raises(UnboundParameterError):
            Parameter("n").evaluate()

    def test_array_binding_broadcasts(self):
        values = np.array([1.0, 2.0, 3.0])
        out = Parameter("n").evaluate({"n": values})
        np.testing.assert_array_equal(out, values)

    def test_free_parameters(self):
        assert Parameter("list").free_parameters() == frozenset({"list"})

    def test_substitute_replaces(self):
        expr = Parameter("x").substitute({"x": Constant(9.0)})
        assert expr == Constant(9.0)

    def test_substitute_leaves_other_names(self):
        p = Parameter("x")
        assert p.substitute({"y": Constant(1.0)}) is p

    def test_empty_name_rejected(self):
        with pytest.raises(SymbolicError):
            Parameter("")

    def test_not_constant(self):
        assert not Parameter("x").is_constant()
        with pytest.raises(SymbolicError):
            Parameter("x").constant_value()


class TestBinary:
    @pytest.mark.parametrize(
        "op,expected",
        [("+", 7.0), ("-", 3.0), ("*", 10.0), ("/", 2.5), ("**", 25.0)],
    )
    def test_arithmetic(self, op, expected):
        expr = Binary(op, Constant(5.0), Constant(2.0))
        assert expr.evaluate({}) == expected

    def test_unknown_operator_rejected(self):
        with pytest.raises(SymbolicError):
            Binary("%", Constant(1.0), Constant(2.0))

    def test_non_expression_operand_rejected(self):
        with pytest.raises(SymbolicError):
            Binary("+", 1.0, Constant(2.0))

    def test_free_parameters_union(self):
        expr = Binary("+", Parameter("a"), Parameter("b"))
        assert expr.free_parameters() == frozenset({"a", "b"})

    def test_substitution_is_simultaneous(self):
        # x -> y and y -> x must swap, not cascade
        expr = Parameter("x") + Parameter("y") * 2
        swapped = expr.substitute({"x": Parameter("y"), "y": Parameter("x")})
        assert swapped.evaluate({"x": 10, "y": 1}) == 1 + 20

    def test_array_evaluation(self):
        expr = Parameter("n") * 2 + 1
        np.testing.assert_array_equal(
            expr.evaluate({"n": np.array([0.0, 1.0, 2.0])}),
            np.array([1.0, 3.0, 5.0]),
        )

    def test_scalar_result_is_python_float(self):
        out = (Parameter("n") * 2).evaluate({"n": 3})
        assert isinstance(out, float)


class TestOperatorOverloads:
    def test_radd_coerces_number(self):
        expr = 1 + Parameter("x")
        assert expr.evaluate({"x": 2}) == 3.0

    def test_rsub(self):
        assert (1 - Parameter("x")).evaluate({"x": 0.25}) == 0.75

    def test_rmul(self):
        assert (3 * Parameter("x")).evaluate({"x": 2}) == 6.0

    def test_rtruediv(self):
        assert (8 / Parameter("x")).evaluate({"x": 2}) == 4.0

    def test_rpow(self):
        assert (2 ** Parameter("x")).evaluate({"x": 3}) == 8.0

    def test_neg(self):
        assert (-Parameter("x")).evaluate({"x": 5}) == -5.0

    def test_string_coerces_to_parameter(self):
        expr = as_expression("list") * 2
        assert expr.evaluate({"list": 4}) == 8.0

    def test_as_expression_rejects_unknown(self):
        with pytest.raises(SymbolicError):
            as_expression(object())

    def test_as_expression_rejects_bool(self):
        with pytest.raises(SymbolicError):
            as_expression(True)


class TestCall:
    def test_log2(self):
        assert Call("log2", (Constant(8.0),)).evaluate({}) == 3.0

    def test_exp(self):
        assert Call("exp", (Constant(0.0),)).evaluate({}) == 1.0

    def test_unknown_function_rejected_at_construction(self):
        with pytest.raises(UnknownFunctionError):
            Call("nope", (Constant(1.0),))

    def test_wrong_arity_rejected(self):
        with pytest.raises(SymbolicError):
            Call("log", (Constant(1.0), Constant(2.0)))

    def test_free_parameters(self):
        expr = Call("max", (Parameter("a"), Parameter("b")))
        assert expr.free_parameters() == frozenset({"a", "b"})

    def test_substitute_recurses_into_args(self):
        expr = Call("log2", (Parameter("n"),)).substitute({"n": Constant(16.0)})
        assert expr.evaluate({}) == 4.0

    def test_log_of_zero_is_clamped(self):
        # workload expressions may hit the zero boundary of size domains
        assert Call("log", (Constant(0.0),)).evaluate({}) == 0.0

    def test_log2_array_with_zero(self):
        out = Call("log2", (Parameter("n"),)).evaluate({"n": np.array([0.0, 4.0])})
        np.testing.assert_array_equal(out, np.array([0.0, 2.0]))


class TestStructuralEquality:
    def test_equal_trees_are_equal_and_hash_equal(self):
        a = Parameter("x") * 2 + 1
        b = Parameter("x") * 2 + 1
        assert a == b
        assert hash(a) == hash(b)

    def test_different_trees_differ(self):
        assert Parameter("x") + 1 != Parameter("x") + 2

    def test_constants_compare_by_their_bits(self):
        # -0.0 == 0.0 as floats, but x * -0.0 and x * 0.0 evaluate apart
        assert Constant(0.0) == Constant(0.0)
        assert Constant(-0.0) != Constant(0.0)
        assert Parameter("x") * -0.0 != Parameter("x") * 0.0
        assert Constant(2) == Constant(2.0)
        nan = float("nan")
        assert Constant(nan) != Constant(float("nan"))
        shared = Constant(nan)
        assert shared == shared


class TestSerialization:
    @pytest.mark.parametrize(
        "expr",
        [
            Constant(1.5),
            Parameter("list"),
            Parameter("list") * Call("log2", (Parameter("list"),)),
            -(Parameter("a") + 2) ** Constant(3.0),
            Call("max", (Parameter("a"), Constant(0.0))),
        ],
    )
    def test_round_trip(self, expr):
        assert Expression.from_dict(expr.to_dict()) == expr

    def test_unknown_kind_rejected(self):
        with pytest.raises(SymbolicError):
            Expression.from_dict({"kind": "mystery"})


class TestUnary:
    def test_negation(self):
        assert Unary(Constant(3.0)).evaluate({}) == -3.0

    def test_rejects_non_expression(self):
        with pytest.raises(SymbolicError):
            Unary(3.0)

    def test_str(self):
        assert str(Unary(Parameter("x"))) == "(-x)"


class TestEnvironmentIntegration:
    def test_expression_accepts_environment_object(self):
        env = Environment(n=4.0)
        assert (Parameter("n") ** 2).evaluate(env) == 16.0

    def test_nan_propagates_not_raises(self):
        # evaluation is numpy semantics; range checking happens downstream
        with np.errstate(invalid="ignore"):
            out = (Constant(0.0) / Parameter("x")).evaluate({"x": 0.0})
        assert math.isnan(out)
