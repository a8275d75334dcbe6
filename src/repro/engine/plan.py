"""Reusable, picklable evaluation plans.

Every evaluation backend in this library front-loads work that depends only
on the *model* (deriving closed forms, validating structure, building solve
skeletons) and then repeats it for every point of a sweep, every trial
block, every batch entry.  An :class:`EvaluationPlan` hoists that
model-dependent work out of the per-point loop once and for all:

- the **symbolic** backend compiles to the service's closed-form
  :class:`~repro.symbolic.Expression` — evaluating a point is one
  (vectorizable) expression evaluation, no matrix solves at all;
- the **robust** backend (the fallback for models the symbolic derivation
  refuses, e.g. cyclic assemblies) compiles to a *solve skeleton*: the
  canonical JSON of the assembly plus the degradation-chain configuration,
  rebuilt into a per-process :class:`~repro.runtime.RobustEvaluator` on
  first use.

Plans are deliberately **picklable** (expressions are plain AST objects;
assemblies travel as canonical JSON because live ``Assembly`` objects do
not pickle), so a plan compiled once in the parent process can be shipped
to every worker of a :class:`~repro.engine.batch.BatchEngine` pool.  Each
plan records the :func:`~repro.engine.fingerprint.assembly_fingerprint` it
was compiled from, which is what the plan cache keys on.

The ``plan.compilations`` counter of the metrics registry records how many
plan compilations — i.e. real symbolic derivations or skeleton builds —
have happened in this process.  The cache-correctness tests assert "warm
cache ⇒ zero re-derivations" directly against it.
"""

from __future__ import annotations

import threading
from collections.abc import Mapping, Sequence

import numpy as np

from repro import observability as obs
from repro.engine.fingerprint import canonical_json, service_fingerprint
from repro.errors import (
    BudgetExceededError,
    CyclicAssemblyError,
    EvaluationError,
    SymbolicError,
    UnboundParameterError,
)
from repro.model.assembly import Assembly
from repro.model.service import Service
from repro.runtime.budget import EvaluationBudget
from repro.runtime.guards import check_probability
from repro.symbolic import Expression
from repro.symbolic.compiler import CompiledKernel, compile_expression

__all__ = [
    "EvaluationPlan",
    "compile_plan",
]


class EvaluationPlan:
    """One compiled evaluation target, reusable across points and workers.

    Attributes:
        service: the evaluated service name.
        fingerprint: the :func:`~repro.engine.fingerprint.service_fingerprint`
            of the (assembly, service) pair the plan was compiled from —
            plans with equal fingerprints are interchangeable.
        backend: ``"symbolic"`` (closed form) or ``"robust"`` (degradation
            chain rebuilt per process).
        formals: the service's formal parameter names.
        symbolic_attributes: whether interface attributes were left free
            (``service::attribute`` symbols) at compilation.

    A robust plan builds its :class:`~repro.runtime.RobustEvaluator` once
    per process (pool workers keep the plans they are sent) and runs each
    call under that call's budget, or under none, one call at a time: the
    evaluator keeps per-call state (the budget, a fixed-point solve's
    sweeps), and the daemon's threads share cached plans.
    """

    def __init__(
        self,
        service: str,
        fingerprint: str,
        backend: str,
        formals: tuple[str, ...],
        expression: Expression | None = None,
        assembly_json: str | None = None,
        symbolic_attributes: bool = False,
    ):
        if backend not in ("symbolic", "robust"):
            raise EvaluationError(f"unknown plan backend {backend!r}")
        if backend == "symbolic" and expression is None:
            raise EvaluationError("a symbolic plan needs an expression")
        if backend == "robust" and assembly_json is None:
            raise EvaluationError("a robust plan needs the assembly JSON")
        self.service = service
        self.fingerprint = fingerprint
        self.backend = backend
        self.formals = tuple(formals)
        self.expression = expression
        self.assembly_json = assembly_json
        self.symbolic_attributes = bool(symbolic_attributes)
        self._evaluator = None  # per-process, rebuilt after pickling
        self._kernel_obj = None  # lazy CompiledKernel, rebuilt after pickling
        self._lock = threading.Lock()  # one robust evaluation at a time

    # -- pickling ----------------------------------------------------------

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state["_evaluator"] = None  # evaluators hold live assemblies
        state["_kernel_obj"] = None  # kernels hold thread-local buffers
        del state["_lock"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()

    # -- evaluation --------------------------------------------------------

    def kernel(self) -> CompiledKernel | None:
        """The compiled numpy kernel of a symbolic plan (lazy, memoized
        through the process-wide kernel cache; ``None`` for robust plans)."""
        if self.backend != "symbolic":
            return None
        if self._kernel_obj is None:
            self._kernel_obj = compile_expression(self.expression)
        return self._kernel_obj

    def pfail(
        self,
        actuals: Mapping[str, float] | None = None,
        *,
        budget: EvaluationBudget | None = None,
        **kwargs: float,
    ) -> float:
        """``Pfail(service, actuals)`` through the compiled backend.

        Actuals may be passed as a mapping, as keyword arguments, or both
        (keywords win).  Extra bindings are ignored by the symbolic
        backend (closed forms often eliminate parameters), so batch
        callers can pass one uniform binding set.  The symbolic backend
        runs the compiled kernel; ``self.expression.evaluate`` is the
        tree-walk reference it must match.
        """
        bound = {**(dict(actuals) if actuals else {}), **kwargs}
        if budget is not None:
            budget.check_deadline(f"plan evaluation of {self.service!r}")
        if self.backend == "symbolic":
            env = {name: float(value) for name, value in bound.items()}
            value = float(np.asarray(self.kernel().evaluate(env), dtype=float))
            return check_probability(f"Pfail({self.service})", value)
        relevant = {k: v for k, v in bound.items() if k in self.formals}
        with self._lock:
            evaluator = self._robust_evaluator(budget)
            return float(evaluator.evaluate(self.service, **relevant).pfail)

    def reliability(
        self,
        actuals: Mapping[str, float] | None = None,
        *,
        budget: EvaluationBudget | None = None,
        **kwargs: float,
    ) -> float:
        """``1 - Pfail`` through the compiled backend."""
        return 1.0 - self.pfail(actuals, budget=budget, **kwargs)

    def pfail_grid(
        self,
        parameter: str,
        values: Sequence[float] | np.ndarray,
        fixed: Mapping[str, float] | None = None,
        *,
        budget: EvaluationBudget | None = None,
    ) -> np.ndarray:
        """``Pfail`` over a whole grid of one parameter.

        The symbolic backend evaluates the compiled kernel vectorized over
        the numpy array; the robust backend falls back to a per-point loop
        with cooperative deadline checks.
        """
        grid = np.asarray(values, dtype=float)
        if grid.ndim != 1 or grid.size == 0:
            raise EvaluationError("grid values must be a non-empty 1-D sequence")
        fixed = dict(fixed or {})
        if budget is not None:
            budget.check_deadline(f"grid evaluation of {self.service!r}")
        if self.backend == "symbolic":
            env = {**{k: float(v) for k, v in fixed.items()}, parameter: grid}
            result = np.asarray(self.kernel().evaluate(env), dtype=float)
            if result.shape == grid.shape:
                # the kernel's final op allocates a fresh array, so the
                # result is safe to hand out — unless the closed form
                # degenerates to the bare parameter and "result" is the
                # caller's own grid
                if np.shares_memory(result, grid):
                    return result.copy()
                return result
            # the closed form eliminated the swept parameter: a scalar
            return np.full(grid.shape, float(result))
        out = np.empty(grid.shape, dtype=float)
        env = dict(fixed)
        for i, value in enumerate(grid):
            env[parameter] = float(value)
            try:
                out[i] = self.pfail(env, budget=budget)
            except BudgetExceededError as exc:
                exc.add_note(self._partial_note("grid", i, grid.size))
                raise
        return out

    def pfail_stack(
        self,
        points: Sequence[Mapping[str, float]],
        *,
        budget: EvaluationBudget | None = None,
    ) -> np.ndarray:
        """``Pfail`` at many independent points in one fused pass.

        ``points`` is a sequence of actual-parameter bindings — the shape a
        batch engine holds after grouping same-fingerprint requests.  The
        symbolic backend stacks each parameter into one ``(n,)`` column and
        runs the compiled kernel **once** over the stack (no per-point
        Python dispatch, no per-point dict building), returning results
        bitwise-identical to ``n`` :meth:`pfail` calls.  A point missing a
        parameter the closed form needs raises
        :class:`~repro.errors.UnboundParameterError`, exactly as the
        per-point path would.

        The robust backend keeps its per-point loop (each point is a full
        degradation-chain evaluation); a budget deadline hit mid-stack
        raises with a partial-progress note rather than silently
        truncating.
        """
        points = [dict(point) for point in points]
        n = len(points)
        if n == 0:
            raise EvaluationError("pfail_stack needs at least one point")
        if budget is not None:
            budget.check_deadline(f"stacked evaluation of {self.service!r}")
        if self.backend == "symbolic":
            kernel = self.kernel()
            columns: dict[str, np.ndarray] = {}
            for name in kernel.parameters:
                try:
                    columns[name] = np.fromiter(
                        (point[name] for point in points), dtype=float, count=n
                    )
                except KeyError:
                    raise UnboundParameterError(name) from None
            stacked = kernel.evaluate_stack(columns, n)
            return check_probability(f"Pfail({self.service})", stacked)
        out = np.empty(n, dtype=float)
        for i, point in enumerate(points):
            try:
                out[i] = self.pfail(point, budget=budget)
            except BudgetExceededError as exc:
                exc.add_note(self._partial_note("stacked", i, n))
                raise
        return out

    def _partial_note(self, what: str, done: int, total: int) -> str:
        return (
            f"{what} evaluation of {self.service!r} stopped at point "
            f"{done + 1}/{total} ({done} completed); partial results "
            "discarded"
        )

    # -- internals ---------------------------------------------------------

    def _robust_evaluator(self, budget: EvaluationBudget | None):
        from repro.dsl import load_assembly
        from repro.runtime.robust import RobustEvaluator

        if self._evaluator is None:
            self._evaluator = RobustEvaluator(load_assembly(self.assembly_json))
        # each call runs under its own budget, or an unlimited one: a
        # reused evaluator must not keep an earlier call's clock or caps
        self._evaluator.budget = budget if budget is not None else EvaluationBudget()
        return self._evaluator

    def __repr__(self) -> str:
        return (
            f"EvaluationPlan({self.service!r}, backend={self.backend!r}, "
            f"fingerprint={self.fingerprint[:12]}...)"
        )


def compile_plan(
    assembly: Assembly,
    service: str | Service,
    *,
    symbolic_attributes: bool = False,
    backend: str = "auto",
    budget: EvaluationBudget | None = None,
) -> EvaluationPlan:
    """Compile an (assembly, service) pair into an :class:`EvaluationPlan`.

    Args:
        assembly: the assembly to compile against.
        service: the evaluation target.
        symbolic_attributes: leave interface attributes free (for
            attribute sweeps/sensitivities); symbolic backend only.
        backend: ``"symbolic"`` or ``"auto"`` (try the closed-form
            derivation, fall back to the robust skeleton when the assembly
            is cyclic or the derivation fails with a typed symbolic
            error).
        budget: optional budget charged during the derivation.

    Every call performs real work and bumps the ``plan.compilations``
    counter; reuse compiled plans through
    :class:`repro.engine.cache.PlanCache` rather than calling this in a
    loop.
    """
    from repro.core.symbolic_evaluator import SymbolicEvaluator

    name = service.name if isinstance(service, Service) else str(service)
    svc = assembly.service(name)
    fingerprint = service_fingerprint(assembly, name)
    if backend not in ("auto", "symbolic"):
        raise EvaluationError(f"unknown plan backend {backend!r}")

    obs.count("plan.compilations")

    with obs.span("plan.compile", service=name, requested=backend) as sp:
        try:
            expression = SymbolicEvaluator(
                assembly,
                symbolic_attributes=symbolic_attributes,
                budget=budget,
            ).pfail_expression(name)
        except (CyclicAssemblyError, SymbolicError):
            if backend == "symbolic":
                raise
        else:
            sp.set_tag(backend="symbolic")
            obs.count("plan.compiled.symbolic")
            return EvaluationPlan(
                name,
                fingerprint,
                "symbolic",
                svc.formal_parameters,
                expression=expression,
                symbolic_attributes=symbolic_attributes,
            )

        if symbolic_attributes:
            raise EvaluationError(
                "symbolic_attributes requires the symbolic backend; the robust "
                "skeleton binds attributes numerically"
            )
        sp.set_tag(backend="robust")
        obs.count("plan.compiled.robust")
        return EvaluationPlan(
            name,
            fingerprint,
            "robust",
            svc.formal_parameters,
            assembly_json=canonical_json(assembly),
        )
