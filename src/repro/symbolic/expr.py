"""Immutable symbolic-expression AST.

The paper's compositional reliability analysis hinges on one modeling
decision (section 2): *"both the transition probabilities and the actual
parameters of the service requests in a flow may be defined as functions of
the formal parameters of the offered service they are associated with."*
This module supplies those functions as first-class, serializable values.

An :class:`Expression` is an immutable tree of

- :class:`Constant` — a numeric literal;
- :class:`Parameter` — a named formal parameter (e.g. ``list``, ``N``);
- :class:`Binary` — one of ``+ - * / **`` applied to two sub-expressions;
- :class:`Unary` — negation;
- :class:`Call` — application of a registered named function
  (``log``, ``exp``, ...; see :mod:`repro.symbolic.functions`).

Expressions support:

- **evaluation** over an environment mapping parameter names to numbers *or
  numpy arrays* (broadcasting makes the Figure 6 parameter sweep a single
  vectorized evaluation);
- **substitution** of parameters by other expressions — this is exactly the
  composition step of the paper, where the formal parameter ``N`` of
  ``Pfail(cpu, N)`` is replaced by the actual parameter ``list*log(list)``
  of the sort service (see the derivation of eq. 18);
- **differentiation** for the sensitivity analysis in
  :mod:`repro.core.sensitivity`;
- **structural equality/hashing** (constants compare by their bits, so
  ``-0.0`` and ``0.0`` are different constants), used by evaluator
  memoization and the kernel cache;
- **serialization** to plain dicts for the :mod:`repro.dsl` layer.

Python operators are overloaded so models read naturally::

    list_ = Parameter("list")
    work = list_ * Call("log2", (list_,))
"""

from __future__ import annotations

import math
import struct
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Union

import numpy as np

from repro.errors import SymbolicError, UnboundParameterError
from repro.symbolic.functions import get_function

__all__ = [
    "Expression",
    "Constant",
    "Parameter",
    "Binary",
    "Unary",
    "Call",
    "as_expression",
    "ExpressionLike",
    "Value",
]

#: Values an expression can evaluate to: scalars or numpy arrays.
Value = Union[float, np.ndarray]

#: Anything coercible into an Expression via :func:`as_expression`.
ExpressionLike = Union["Expression", int, float, str]

_BINARY_OPS = {
    "+": np.add,
    "-": np.subtract,
    "*": np.multiply,
    "/": np.divide,
    "**": np.power,
}


def as_expression(value: ExpressionLike) -> "Expression":
    """Coerce a value to an :class:`Expression`.

    Numbers become :class:`Constant`, strings become :class:`Parameter`,
    expressions pass through unchanged.
    """
    if isinstance(value, Expression):
        return value
    if isinstance(value, bool):
        raise SymbolicError("booleans are not valid expression constants")
    if isinstance(value, (int, float)):
        return Constant(float(value))
    if isinstance(value, str):
        return Parameter(value)
    raise SymbolicError(f"cannot coerce {value!r} to an Expression")


class Expression:
    """Base class for all expression nodes.  Instances are immutable."""

    __slots__ = ()

    # -- structural hashing --------------------------------------------------
    #
    # Expressions are hashed constantly: evaluator memoization, kernel-cache
    # lookups, and the compiler's DAG builder all key dictionaries on nodes.
    # A naive dataclass hash re-walks the whole subtree on every call, which
    # is quadratic over the deep trees composition-by-substitution produces;
    # instead each node memoizes its hash in a ``_shash`` slot on first use
    # (immutability makes the memo safe forever).

    def _structural_key(self) -> tuple:
        """The (kind, payload, children...) tuple this node hashes as."""
        raise NotImplementedError

    def __hash__(self) -> int:
        cached = self._shash
        if cached is None:
            cached = hash(self._structural_key())
            object.__setattr__(self, "_shash", cached)
        return cached

    def node_count(self) -> int:
        """Number of nodes in this expression *tree* (shared subtrees are
        counted once per occurrence — the raw size CSE is measured against)."""
        count = 0
        stack: list[Expression] = [self]
        while stack:
            node = stack.pop()
            count += 1
            stack.extend(node.children())
        return count

    # -- core protocol ----------------------------------------------------

    def evaluate(self, env: Mapping[str, Value] | None = None) -> Value:
        """Evaluate the expression under ``env``.

        Raises :class:`UnboundParameterError` if a parameter is missing.
        Array-valued bindings broadcast through numpy arithmetic.
        """
        raise NotImplementedError

    def free_parameters(self) -> frozenset[str]:
        """The set of parameter names occurring in this expression."""
        raise NotImplementedError

    def substitute(self, mapping: Mapping[str, "Expression"]) -> "Expression":
        """Replace each parameter named in ``mapping`` by its expression.

        Substitution is simultaneous (not sequential), matching the usual
        mathematical convention.
        """
        raise NotImplementedError

    def children(self) -> tuple["Expression", ...]:
        """Direct sub-expressions (empty for leaves)."""
        return ()

    # -- derived operations ------------------------------------------------

    def simplify(self) -> "Expression":
        """Return an algebraically simplified equivalent expression."""
        from repro.symbolic.simplify import simplify

        return simplify(self)

    def differentiate(self, name: str) -> "Expression":
        """Symbolic partial derivative with respect to parameter ``name``."""
        from repro.symbolic.derivative import differentiate

        return differentiate(self, name)

    def is_constant(self) -> bool:
        """True when the expression contains no parameters."""
        return not self.free_parameters()

    def constant_value(self) -> float:
        """Evaluate a parameter-free expression to a float."""
        if not self.is_constant():
            raise SymbolicError(
                f"expression {self} has free parameters "
                f"{sorted(self.free_parameters())} and is not constant"
            )
        return float(self.evaluate({}))

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> dict:
        """Serialize to a plain-dict tree (inverse of :meth:`from_dict`)."""
        raise NotImplementedError

    @staticmethod
    def from_dict(data: dict) -> "Expression":
        """Rebuild an expression from its :meth:`to_dict` form."""
        return _from_dict(data, {})

    # -- operator overloads --------------------------------------------------

    def __add__(self, other: ExpressionLike) -> "Expression":
        return Binary("+", self, as_expression(other))

    def __radd__(self, other: ExpressionLike) -> "Expression":
        return Binary("+", as_expression(other), self)

    def __sub__(self, other: ExpressionLike) -> "Expression":
        return Binary("-", self, as_expression(other))

    def __rsub__(self, other: ExpressionLike) -> "Expression":
        return Binary("-", as_expression(other), self)

    def __mul__(self, other: ExpressionLike) -> "Expression":
        return Binary("*", self, as_expression(other))

    def __rmul__(self, other: ExpressionLike) -> "Expression":
        return Binary("*", as_expression(other), self)

    def __truediv__(self, other: ExpressionLike) -> "Expression":
        return Binary("/", self, as_expression(other))

    def __rtruediv__(self, other: ExpressionLike) -> "Expression":
        return Binary("/", as_expression(other), self)

    def __pow__(self, other: ExpressionLike) -> "Expression":
        return Binary("**", self, as_expression(other))

    def __rpow__(self, other: ExpressionLike) -> "Expression":
        return Binary("**", as_expression(other), self)

    def __neg__(self) -> "Expression":
        return Unary(self)


@dataclass(frozen=True, slots=True)
class Constant(Expression):
    """A numeric literal."""

    value: float
    _shash: int | None = field(
        default=None, init=False, repr=False, compare=False
    )

    __hash__ = Expression.__hash__

    def _structural_key(self) -> tuple:
        return ("const", self.value)

    def __eq__(self, other: object) -> bool:
        # by the bits: -0.0 == 0.0, but the two constants evaluate apart
        # (1 / (x * -0.0) is -inf), so equal expressions evaluate alike
        if other.__class__ is not Constant:
            return NotImplemented
        a, b = self.value, other.value
        return a is b or (a == b and math.copysign(1.0, a) == math.copysign(1.0, b))

    def __post_init__(self) -> None:
        if not isinstance(self.value, (int, float)) or isinstance(self.value, bool):
            raise SymbolicError(f"Constant requires a number, got {self.value!r}")
        object.__setattr__(self, "value", float(self.value))

    def evaluate(self, env: Mapping[str, Value] | None = None) -> Value:
        return self.value

    def free_parameters(self) -> frozenset[str]:
        return frozenset()

    def substitute(self, mapping: Mapping[str, Expression]) -> Expression:
        return self

    def to_dict(self) -> dict:
        return {"kind": "const", "value": self.value}

    def __str__(self) -> str:
        if self.value == int(self.value) and abs(self.value) < 1e15:
            return str(int(self.value))
        return repr(self.value)


@dataclass(frozen=True, slots=True)
class Parameter(Expression):
    """A named formal parameter of a service's analytic interface."""

    name: str
    _shash: int | None = field(
        default=None, init=False, repr=False, compare=False
    )

    __hash__ = Expression.__hash__

    def _structural_key(self) -> tuple:
        return ("param", self.name)

    def __post_init__(self) -> None:
        if not isinstance(self.name, str) or not self.name:
            raise SymbolicError(f"Parameter requires a non-empty name, got {self.name!r}")

    def evaluate(self, env: Mapping[str, Value] | None = None) -> Value:
        if env is None or self.name not in env:
            raise UnboundParameterError(self.name)
        value = env[self.name]
        if isinstance(value, np.ndarray):
            return value.astype(float, copy=False)
        return float(value)

    def free_parameters(self) -> frozenset[str]:
        return frozenset({self.name})

    def substitute(self, mapping: Mapping[str, Expression]) -> Expression:
        return mapping.get(self.name, self)

    def to_dict(self) -> dict:
        return {"kind": "param", "name": self.name}

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True, slots=True)
class Binary(Expression):
    """A binary arithmetic operation ``left <op> right``."""

    op: str
    left: Expression
    right: Expression
    _shash: int | None = field(
        default=None, init=False, repr=False, compare=False
    )

    __hash__ = Expression.__hash__

    def _structural_key(self) -> tuple:
        return ("binary", self.op, self.left, self.right)

    def __post_init__(self) -> None:
        if self.op not in _BINARY_OPS:
            raise SymbolicError(f"unknown binary operator {self.op!r}")
        if not isinstance(self.left, Expression) or not isinstance(self.right, Expression):
            raise SymbolicError("Binary operands must be Expressions")

    def evaluate(self, env: Mapping[str, Value] | None = None) -> Value:
        result = _BINARY_OPS[self.op](self.left.evaluate(env), self.right.evaluate(env))
        if isinstance(result, np.ndarray) and result.shape == ():
            return float(result)
        return result

    def free_parameters(self) -> frozenset[str]:
        return self.left.free_parameters() | self.right.free_parameters()

    def substitute(self, mapping: Mapping[str, Expression]) -> Expression:
        return Binary(self.op, self.left.substitute(mapping), self.right.substitute(mapping))

    def children(self) -> tuple[Expression, ...]:
        return (self.left, self.right)

    def to_dict(self) -> dict:
        return {
            "kind": "binary",
            "op": self.op,
            "left": self.left.to_dict(),
            "right": self.right.to_dict(),
        }

    def __str__(self) -> str:
        return f"({self.left} {self.op} {self.right})"


@dataclass(frozen=True, slots=True)
class Unary(Expression):
    """Arithmetic negation of a sub-expression."""

    operand: Expression
    _shash: int | None = field(
        default=None, init=False, repr=False, compare=False
    )

    __hash__ = Expression.__hash__

    def _structural_key(self) -> tuple:
        return ("unary", self.operand)

    def __post_init__(self) -> None:
        if not isinstance(self.operand, Expression):
            raise SymbolicError("Unary operand must be an Expression")

    def evaluate(self, env: Mapping[str, Value] | None = None) -> Value:
        result = np.negative(self.operand.evaluate(env))
        if isinstance(result, np.ndarray) and result.shape == ():
            return float(result)
        return result

    def free_parameters(self) -> frozenset[str]:
        return self.operand.free_parameters()

    def substitute(self, mapping: Mapping[str, Expression]) -> Expression:
        return Unary(self.operand.substitute(mapping))

    def children(self) -> tuple[Expression, ...]:
        return (self.operand,)

    def to_dict(self) -> dict:
        return {"kind": "unary", "operand": self.operand.to_dict()}

    def __str__(self) -> str:
        return f"(-{self.operand})"


@dataclass(frozen=True, slots=True)
class Call(Expression):
    """Application of a registered named function to argument expressions."""

    name: str
    args: tuple[Expression, ...]
    _shash: int | None = field(
        default=None, init=False, repr=False, compare=False
    )

    __hash__ = Expression.__hash__

    def _structural_key(self) -> tuple:
        return ("call", self.name, self.args)

    def __post_init__(self) -> None:
        spec = get_function(self.name)  # raises UnknownFunctionError early
        args = tuple(self.args)
        if len(args) != spec.arity:
            raise SymbolicError(
                f"function {self.name!r} expects {spec.arity} argument(s), "
                f"got {len(args)}"
            )
        if not all(isinstance(a, Expression) for a in args):
            raise SymbolicError("Call arguments must be Expressions")
        object.__setattr__(self, "args", args)

    def evaluate(self, env: Mapping[str, Value] | None = None) -> Value:
        spec = get_function(self.name)
        result = spec.impl(*(a.evaluate(env) for a in self.args))
        if isinstance(result, np.ndarray) and result.shape == ():
            return float(result)
        return result

    def free_parameters(self) -> frozenset[str]:
        out: frozenset[str] = frozenset()
        for arg in self.args:
            out |= arg.free_parameters()
        return out

    def substitute(self, mapping: Mapping[str, Expression]) -> Expression:
        return Call(self.name, tuple(a.substitute(mapping) for a in self.args))

    def children(self) -> tuple[Expression, ...]:
        return self.args

    def to_dict(self) -> dict:
        return {
            "kind": "call",
            "name": self.name,
            "args": [a.to_dict() for a in self.args],
        }

    def __str__(self) -> str:
        return f"{self.name}({', '.join(str(a) for a in self.args)})"


def _from_dict(data: dict, leaves: dict) -> Expression:
    """:meth:`Expression.from_dict` building each distinct ``const``/``param``
    leaf once per ``leaves`` memo (the DSL loader passes one per document).
    A constant is keyed on its bits, so ``-0.0`` and ``0.0`` stay apart."""
    kind = data.get("kind")
    if kind == "const":
        value = float(data["value"])
        key = (kind, struct.pack("<d", value))
    elif kind == "param":
        value = str(data["name"])
        key = (kind, value)
    elif kind == "binary":
        return Binary(
            data["op"],
            _from_dict(data["left"], leaves),
            _from_dict(data["right"], leaves),
        )
    elif kind == "unary":
        return Unary(_from_dict(data["operand"], leaves))
    elif kind == "call":
        return Call(data["name"], tuple(_from_dict(a, leaves) for a in data["args"]))
    else:
        raise SymbolicError(f"unknown expression kind {kind!r}")
    leaf = leaves.get(key)
    if leaf is None:
        leaf = leaves[key] = Constant(value) if kind == "const" else Parameter(value)
    return leaf
