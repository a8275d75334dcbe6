"""Compile symbolic closed forms to flat, CSE-optimized numpy kernels.

The paper derives ``Pfail`` as closed forms (eqs. 15–22) precisely so that
evaluation avoids repeated matrix solves — but a closed form held as an
:class:`~repro.symbolic.expr.Expression` *tree* still pays one recursive
Python dispatch per node on every sweep point, Monte-Carlo sample batch,
and sensitivity probe.  Worse, composition by substitution (the
``N := list * log(list)`` splice below eq. 18) duplicates entire subtrees,
so the tree re-computes the same sub-values many times per evaluation.

This module lowers a tree into an array program once:

1. **DAG construction by hash-consing** — every subexpression is interned
   under a shallow structural key over already-interned children, so
   structurally equal subtrees (however they were produced) collapse into
   a single node.  This *is* common-subexpression elimination: a value is
   computed once per evaluation no matter how often the tree repeats it.
2. **Constant folding** — an operation whose inputs are all constants is
   evaluated at compile time with the *same* numpy implementation the tree
   walk would use, and kept only when the result is finite (non-finite
   folds stay in the tape so runtime warnings/NaN behavior is unchanged).
3. **Tape emission** — the remaining DAG becomes a flat SSA-style tape of
   numpy ufunc ops writing into numbered slots.
4. **Specialization** — the tape is rendered to straight-line Python
   source (one assignment per op, operands as locals) per *array
   signature* — which parameters are bound to arrays — so executing the
   tape costs one function call per op with zero interpreter bookkeeping.
   Array-valued ops write into preallocated ``out=`` buffers, held
   thread-locally so kernels are safe under the thread-pooled sweep paths.

The resulting :class:`CompiledKernel` evaluates identically to
``Expression.evaluate`` — same ufuncs applied in the same order, same
:class:`~repro.errors.UnboundParameterError` for missing parameters, same
guarded-function semantics (``log`` clamping etc.) — which the equivalence
property tests assert to 1e-12 over random trees, and bitwise on shared
subtrees.

Kernels are memoized in a :class:`KernelCache` (the shared
:class:`repro.caching.LRUCache` machinery, with hit/miss statistics) keyed
by the expression itself; the memoized structural hashes on expression
nodes make those lookups cheap.  A process-wide default cache backs the
engine plans, the analysis layer, and the CLI; ``Expression.evaluate``
remains the tree-walk reference the kernels are tested against.
"""

from __future__ import annotations

import math
import threading
from collections.abc import Mapping

import numpy as np

from repro.caching import CacheStats, LRUCache
from repro.errors import UnboundParameterError
from repro.symbolic.expr import (
    _BINARY_OPS,
    Binary,
    Call,
    Constant,
    Expression,
    Parameter,
    Unary,
    Value,
)
from repro.symbolic.functions import get_function

__all__ = [
    "CompiledKernel",
    "KernelCache",
    "compile_expression",
    "default_kernel_cache",
    "gradient_kernels",
    "kernel_cache_stats",
    "reset_default_kernel_cache",
]


class _Op:
    """One tape instruction: ``slots[out] = func(*slots[ins])``.

    ``ufunc`` ops are true numpy ufuncs and may write into preallocated
    ``out=`` buffers; ``call`` ops are registered-function implementations
    (possibly plain Python, e.g. the guarded ``log``) and always allocate.
    """

    __slots__ = ("func", "out", "ins", "kind", "label")

    def __init__(self, func, out: int, ins: tuple[int, ...], kind: str, label: str):
        self.func = func
        self.out = out
        self.ins = ins
        self.kind = kind
        self.label = label


#: Source templates for ops the specialized variants can emit as Python
#: operators instead of ufunc calls (less dispatch overhead).  Only the
#: IEEE-exact operations qualify: their results are fully determined by
#: the standard, so scalar-operator and ufunc paths are bit-identical.
#: ``**`` is deliberately absent — ``pow`` is not correctly rounded and
#: ``np.float64.__pow__`` can differ from ``np.power`` in the last ulp.
_OPERATOR_FORM = {
    "+": "({0} + {1})",
    "-": "({0} - {1})",
    "*": "({0} * {1})",
    "/": "({0} / {1})",
    "neg": "(-{0})",
}


class CompiledKernel:
    """A flat numpy program equivalent to one :class:`Expression`.

    Attributes:
        parameters: free parameter names, in first-use order.
        tree_nodes: node count of the source expression *tree*.
        dag_nodes: unique nodes after CSE (including leaves and folded
            constants).
        op_count: executed operations per evaluation — the number CSE and
            constant folding are measured by (``tree_nodes`` minus leaves
            is the tree-walk op count).
        folded: operations eliminated by constant folding.
    """

    def __init__(
        self,
        ops: list[_Op],
        consts: list[tuple[int, float]],
        params: list[tuple[str, int]],
        result_slot: int,
        tree_nodes: int,
        dag_nodes: int,
        folded: int,
    ):
        self._ops = ops
        self._consts = consts
        self._params = params
        self._result_slot = result_slot
        self._result_is_op = result_slot in {op.out for op in ops}
        self._variants: dict[tuple, tuple] = {}  # array signature -> (fn, n_buffers)
        self._variants_lock = threading.Lock()
        self._local = threading.local()  # per-thread out= buffers
        self.parameters = tuple(name for name, _ in params)
        self.tree_nodes = tree_nodes
        self.dag_nodes = dag_nodes
        self.op_count = len(ops)
        self.folded = folded

    # -- evaluation --------------------------------------------------------

    def evaluate(self, env: Mapping[str, Value] | None = None) -> Value:
        """Evaluate under ``env`` exactly as the source tree would.

        The tape runs through straight-line code specialized to the call's
        *array signature* (which parameters are arrays); array-valued ops
        write into preallocated per-thread buffers.  Arrays of differing
        but broadcast-compatible shapes (a ``(models, 1)`` column against a
        ``(1, points)`` row of a stacked grid) are broadcast up front —
        zero-copy views — and run through the same straight-line code.
        Non-broadcastable shapes raise :class:`ValueError` before any op
        runs, and missing parameters raise
        :class:`~repro.errors.UnboundParameterError` — the types the tree
        walk raises.
        """
        values = []
        sig = []
        shape = None
        mixed = False
        for name, _slot in self._params:
            if env is None or name not in env:
                raise UnboundParameterError(name)
            value = env[name]
            if isinstance(value, np.ndarray):
                value = value.astype(float, copy=False)
                is_array = value.shape != ()
                if is_array:
                    if shape is None:
                        shape = value.shape
                    elif value.shape != shape:
                        mixed = True
            else:
                # np.float64 (not float) so the specialized variants can
                # use scalar operators under numpy arithmetic semantics
                # (division by zero -> inf, not ZeroDivisionError)
                value = np.float64(value)
                is_array = False
            values.append(value)
            sig.append(is_array)

        if mixed:
            # broadcast up front (views, no copies) so the stacked call
            # runs the same straight-line code as a uniform one
            shape = np.broadcast_shapes(
                *[v.shape for v, a in zip(values, sig) if a]
            )
            values = [
                np.broadcast_to(v, shape) if a else v
                for v, a in zip(values, sig)
            ]
        result = self._run_uniform(tuple(sig), values, shape)

        if isinstance(result, np.ndarray) and result.shape == ():
            return float(result)
        return result

    def _run_uniform(self, key: tuple, values: list, shape: tuple | None):
        """One straight-line pass over values sharing a single grid shape."""
        variant = self._variants.get(key)
        if variant is None:
            variant = self._make_variant(key)
        fn, n_buffers = variant
        if n_buffers:
            return fn(*values, *self._buffers(key, shape, n_buffers))
        return fn(*values)

    def evaluate_stack(self, columns: Mapping[str, Value], n: int) -> np.ndarray:
        """Evaluate ``n`` independent points in one straight-line pass.

        ``columns`` binds each parameter to either a ``(n,)`` float column
        (one value per point) or a scalar shared by every point — the
        stacked form a batch engine builds from ``(models × points)``
        request groups.  Always returns a freshly allocated ``(n,)`` array
        (never a view of an input column or a reused internal buffer),
        elementwise bitwise-identical to ``n`` scalar :meth:`evaluate`
        calls.  Missing parameters raise
        :class:`~repro.errors.UnboundParameterError`.
        """
        values = []
        sig = []
        for name, _slot in self._params:
            if columns is None or name not in columns:
                raise UnboundParameterError(name)
            value = columns[name]
            if isinstance(value, np.ndarray) and value.shape != ():
                if value.shape != (n,):
                    raise ValueError(
                        f"stacked column {name!r} has shape {value.shape}, "
                        f"expected ({n},)"
                    )
                values.append(value.astype(float, copy=False))
                sig.append(True)
            else:
                values.append(np.float64(value))
                sig.append(False)
        result = self._run_uniform(tuple(sig), values, (n,))
        if not isinstance(result, np.ndarray) or result.shape == ():
            # the closed form folded to a constant (or every column was
            # scalar): materialize the stack
            return np.full(n, float(result))
        if self._result_is_op:
            # the final op never writes into a reused buffer, so the
            # result is already freshly allocated
            return result
        # degenerate tape (result is a bare parameter): do not alias the
        # caller's column
        return result.copy()

    __call__ = evaluate

    # -- specialized straight-line execution -------------------------------

    def _make_variant(self, sig: tuple) -> tuple:
        """Render the tape as straight-line Python for one array signature.

        Which slots hold arrays is fully determined by which *parameters*
        do, so array-ness propagates statically through the tape: every
        ufunc op with an array result (except the one producing the final
        result, which must not alias a reused buffer) gets an ``out=``
        buffer argument.  Funcs and folded constants bind as default
        arguments, so the generated body is pure ``LOAD_FAST`` + one call
        per op — no interpreter loop, no per-op shape resolution.
        """
        with self._variants_lock:
            variant = self._variants.get(sig)
            if variant is not None:
                return variant
            names: dict[int, str] = {}
            is_array: dict[int, bool] = {}
            const_slots: set[int] = set()
            ns: dict = {"__builtins__": {}}
            defaults: list[str] = []
            for j, (slot, value) in enumerate(self._consts):
                names[slot] = f"c{j}"
                is_array[slot] = False
                const_slots.add(slot)
                # np.float64 (not float) so a const operand mixed with a
                # scalar op output keeps numpy arithmetic semantics
                # (0.0 / 0.0 -> nan, not ZeroDivisionError)
                ns[f"c{j}"] = (
                    np.float64(value) if isinstance(value, float) else value
                )
                defaults.append(f"c{j}=c{j}")
            args: list[str] = []
            for i, ((_name, slot), arr) in enumerate(zip(self._params, sig)):
                names[slot] = f"v{i}"
                is_array[slot] = arr
                args.append(f"v{i}")
            buf_args: list[str] = []
            lines: list[str] = []
            for k, op in enumerate(self._ops):
                array_out = any(is_array[i] for i in op.ins)
                is_array[op.out] = array_out
                operands = [names[i] for i in op.ins]
                out_name = f"t{op.out}"
                names[op.out] = out_name
                template = _OPERATOR_FORM.get(op.label)
                if (
                    op.kind == "ufunc"
                    and array_out
                    and op.out != self._result_slot
                ):
                    # ufunc into a reused out= buffer, no allocation
                    buffer = f"b{len(buf_args)}"
                    buf_args.append(buffer)
                    ns[f"f{k}"] = op.func
                    defaults.append(f"f{k}=f{k}")
                    lines.append(
                        f"    {out_name} = f{k}({', '.join(operands)}, "
                        f"out={buffer})"
                    )
                elif template is not None and not all(
                    i in const_slots for i in op.ins
                ):
                    # operator form skips the full ufunc dispatch; with at
                    # least one numpy-typed operand (parameters bind as
                    # np.float64/ndarray, op outputs are numpy types) the
                    # arithmetic semantics are numpy's, bit-for-bit.  The
                    # all-consts case is exactly the non-finite folds kept
                    # in the tape — those stay ufunc calls so plain Python
                    # floats never meet a Python operator (1.0/0.0 must be
                    # inf, not ZeroDivisionError).
                    lines.append(
                        "    " + out_name + " = " + template.format(*operands)
                    )
                else:
                    ns[f"f{k}"] = op.func
                    defaults.append(f"f{k}=f{k}")
                    lines.append(
                        f"    {out_name} = f{k}({', '.join(operands)})"
                    )
            lines.append(f"    return {names[self._result_slot]}")
            source = (
                "def _run(" + ", ".join(args + buf_args + defaults) + "):\n"
                + "\n".join(lines) + "\n"
            )
            exec(source, ns)  # noqa: S102 - source built from the tape only
            variant = (ns["_run"], len(buf_args))
            self._variants[sig] = variant
            return variant

    def _buffers(self, sig: tuple, shape: tuple, n_buffers: int) -> list:
        """Per-thread, per-signature ``out=`` buffers.

        Backed by grow-only flat capacity arrays: a call hands out
        ``flat[:size].reshape(shape)`` views, so batch sizes that
        fluctuate (a 60-point sweep after a 240-point stack) reuse the
        same storage instead of reallocating per shape change.  The views
        themselves are memoized per stable shape — repeated same-shape
        calls (the hot sweep loop) pay zero per-call allocation."""
        store = getattr(self._local, "variant_buffers", None)
        if store is None:
            store = self._local.variant_buffers = {}
        entry = store.get(sig)
        if entry is not None and entry[1] == shape:
            return entry[2]
        size = 1
        for dim in shape:
            size *= dim
        flats = entry[0] if entry is not None else None
        if flats is None or flats[0].size < size:
            flats = [np.empty(size, dtype=float) for _ in range(n_buffers)]
        views = [flat[:size].reshape(shape) for flat in flats]
        store[sig] = (flats, shape, views)
        return views

    def describe(self) -> str:
        """A human-readable listing of the tape (debugging aid)."""
        lines = [
            f"kernel: {self.op_count} ops over {self.dag_nodes} DAG nodes "
            f"(tree: {self.tree_nodes} nodes, {self.folded} folded)",
        ]
        for name, slot in self._params:
            lines.append(f"  s{slot} <- param {name}")
        for slot, value in self._consts:
            lines.append(f"  s{slot} <- const {value!r}")
        for op in self._ops:
            ins = ", ".join(f"s{i}" for i in op.ins)
            lines.append(f"  s{op.out} <- {op.label}({ins})")
        lines.append(f"  return s{self._result_slot}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"CompiledKernel(params={self.parameters!r}, "
            f"ops={self.op_count}, tree_nodes={self.tree_nodes})"
        )


def _compile(expr: Expression) -> CompiledKernel:
    """Lower one expression tree into a :class:`CompiledKernel`."""
    slot_of_key: dict[tuple, int] = {}   # hash-consing index (CSE)
    const_value: dict[int, float] = {}   # slots known constant at compile
    consts: list[tuple[int, float]] = []
    params: list[tuple[str, int]] = []
    ops: list[_Op] = []
    next_slot = 0
    folded = 0

    def intern(key: tuple, make) -> int:
        nonlocal next_slot
        slot = slot_of_key.get(key)
        if slot is None:
            slot = next_slot
            next_slot += 1
            slot_of_key[key] = slot
            make(slot)
        return slot

    def add_const(value: float) -> int:
        def make(slot: int) -> None:
            const_value[slot] = value
            consts.append((slot, value))
        # the sign term keeps -0.0 distinct from 0.0 (they compare equal
        # but 1/x diverges to opposite infinities)
        return intern(("const", value, math.copysign(1.0, value)), make)

    def try_fold(func, in_slots: tuple[int, ...]) -> int | None:
        """Fold an all-constant op at compile time, keeping it in the tape
        when the result is non-finite so runtime warning/NaN behavior is
        exactly the tree walk's."""
        nonlocal folded
        if not all(slot in const_value for slot in in_slots):
            return None
        with np.errstate(all="ignore"):
            try:
                value = float(func(*[const_value[s] for s in in_slots]))
            except Exception:
                return None
        if not math.isfinite(value):
            return None
        folded += 1
        return add_const(value)

    def add_op(label: str, kind: str, func, in_slots: tuple[int, ...]) -> int:
        foldable = try_fold(func, in_slots)
        if foldable is not None:
            return foldable

        def make(slot: int) -> None:
            ops.append(_Op(func, slot, in_slots, kind, label))
        return intern((label, *in_slots), make)

    # iterative post-order walk (closed forms can out-run Python's
    # recursion limit); each node is pushed unexpanded, then expanded
    # after its children have been interned
    slot_of_node: dict[int, int] = {}  # id(node) -> slot, per-tree memo
    stack: list[tuple[Expression, bool]] = [(expr, False)]
    while stack:
        node, expanded = stack.pop()
        if id(node) in slot_of_node:
            continue
        if not expanded:
            stack.append((node, True))
            for child in node.children():
                if id(child) not in slot_of_node:
                    stack.append((child, False))
            continue
        if isinstance(node, Constant):
            slot = add_const(node.value)
        elif isinstance(node, Parameter):
            def make(slot: int, name=node.name) -> None:
                params.append((name, slot))
            slot = intern(("param", node.name), make)
        elif isinstance(node, Binary):
            ins = (slot_of_node[id(node.left)], slot_of_node[id(node.right)])
            slot = add_op(node.op, "ufunc", _BINARY_OPS[node.op], ins)
        elif isinstance(node, Unary):
            slot = add_op("neg", "ufunc", np.negative, (slot_of_node[id(node.operand)],))
        elif isinstance(node, Call):
            ins = tuple(slot_of_node[id(a)] for a in node.args)
            impl = get_function(node.name).impl
            # registered functions backed by true ufuncs (exp, sqrt, min, ...)
            # get out= buffers; guarded Python impls (log's zero clamp) do not
            kind = "ufunc" if isinstance(impl, np.ufunc) else "call"
            slot = add_op(f"call:{node.name}", kind, impl, ins)
        else:  # pragma: no cover - the AST has exactly five node kinds
            raise TypeError(f"cannot compile expression node {type(node)!r}")
        slot_of_node[id(node)] = slot

    return CompiledKernel(
        ops=ops,
        consts=consts,
        params=params,
        result_slot=slot_of_node[id(expr)],
        tree_nodes=expr.node_count(),
        dag_nodes=next_slot,
        folded=folded,
    )


class KernelCache:
    """A bounded LRU cache of compiled kernels, keyed by expression.

    Structural equality of expressions keys the cache, so the same closed
    form compiled through different plans (or re-derived for an identical
    model) shares one kernel.  ``stats`` exposes the shared
    :class:`~repro.caching.CacheStats` counters.
    """

    def __init__(self, max_size: int | None = 256):
        self._lru = LRUCache(max_size, name="kernel")

    @property
    def stats(self) -> CacheStats:
        return self._lru.stats

    def __len__(self) -> int:
        return len(self._lru)

    def get_or_compile(self, expr: Expression) -> CompiledKernel:
        """The kernel for ``expr``, compiling on first sight."""
        return self._lru.get_or_create(expr, lambda: _compile(expr))

    def clear(self) -> None:
        """Drop every cached kernel (statistics are kept)."""
        self._lru.clear()


_default_kernel_cache: KernelCache | None = None
_default_lock = threading.Lock()


def default_kernel_cache() -> KernelCache:
    """The process-wide shared :class:`KernelCache` (created on first use)."""
    global _default_kernel_cache
    with _default_lock:
        if _default_kernel_cache is None:
            _default_kernel_cache = KernelCache()
        return _default_kernel_cache


def reset_default_kernel_cache() -> None:
    """Replace the process-wide cache with a fresh one (test isolation)."""
    global _default_kernel_cache
    with _default_lock:
        _default_kernel_cache = None


def kernel_cache_stats() -> dict[str, float]:
    """Snapshot of the default kernel cache's counters (JSON-friendly)."""
    return default_kernel_cache().stats.snapshot()


def compile_expression(
    expr: Expression,
    cache: KernelCache | None | bool = None,
) -> CompiledKernel:
    """Compile ``expr`` into a :class:`CompiledKernel`.

    Args:
        expr: the expression to lower.
        cache: ``None`` (default) memoizes through the process-wide
            :func:`default_kernel_cache`; ``False`` compiles fresh and
            uncached; any :class:`KernelCache` memoizes through it.
    """
    if cache is False:
        return _compile(expr)
    if cache is None or cache is True:
        cache = default_kernel_cache()
    return cache.get_or_compile(expr)


_gradient_cache: LRUCache = LRUCache(max_size=512)


def gradient_kernels(
    expr: Expression,
    names: tuple[str, ...] | list[str],
    cache: KernelCache | None | bool = None,
) -> dict[str, CompiledKernel]:
    """Kernels for ``d expr / d name`` for each requested parameter.

    The derivative *expressions* are memoized under ``(expr, name)`` in a
    module-level LRU, so repeated sensitivity probes of the same closed
    form differentiate each parameter once, ever, instead of re-walking
    the derivative tree per call; the kernels themselves go through the
    usual kernel cache.
    """
    kernels: dict[str, CompiledKernel] = {}
    for name in names:
        derivative = _gradient_cache.get_or_create(
            (expr, name), lambda name=name: expr.differentiate(name)
        )
        kernels[name] = compile_expression(derivative, cache=cache)
    return kernels
