"""The recursive reliability-evaluation procedure of section 3.3.

:class:`ReliabilityEvaluator` implements ``Pfail_Alg(S, fp)``: for a service
``S`` of an assembly with concrete actual parameters,

1. **simple services** (the recursion base) evaluate their published
   closed-form unreliability;
2. **composite services** evaluate, for each flow state, the internal and
   external failure probability of every request — recursively obtaining
   ``Pfail(S_j, ap_j)`` for the bound provider and ``Pfail(C_j, [S_j,
   ap_j])`` for the connector, with actual parameters computed from the
   caller's formals (the parametric composition of section 2) — combines
   them per the state's completion/sharing models (eqs. 4–13), augments the
   flow with the failure structure (Figure 5) and returns
   ``1 - p*(Start, End)`` (eq. 3).

Results are memoized on ``(service, actual parameters)``: a service invoked
many times with the same actuals (e.g. ``cpu1`` throughout the section 4
example) is analyzed once, keeping the procedure polynomial on DAG
assemblies.

Cyclic assemblies are detected (re-entry on a service already on the
evaluation stack) and rejected with :class:`CyclicAssemblyError`, making the
infinite loop the paper warns about impossible; see
:class:`repro.core.fixed_point.FixedPointEvaluator` for the fixed-point
treatment the paper proposes instead.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from repro import observability as obs
from repro.errors import (
    CyclicAssemblyError,
    EvaluationError,
    ModelError,
)
from repro.core.failure_structure import augment_with_failures
from repro.core.state_failure import _check_probability, completion_class_failure
from repro.markov import AbsorbingChainAnalysis
from repro.model.assembly import Assembly
from repro.model.flow import END, START
from repro.model.service import CompositeService, Service, SimpleService
from repro.model.validation import validate_assembly
from repro.runtime.budget import EvaluationBudget
from repro.symbolic import Environment

__all__ = ["ReliabilityEvaluator", "StateBreakdown", "EvaluationReport"]


@dataclass(frozen=True, repr=False)
class StateBreakdown:
    """Per-state diagnostic record produced by :meth:`ReliabilityEvaluator.report`."""

    state: str
    failure_probability: float
    request_internal: tuple[float, ...]
    request_external: tuple[float, ...]
    expected_visits: float

    def __repr__(self) -> str:
        return (
            f"StateBreakdown({self.state!r}, p_fail={self.failure_probability:.3e}, "
            f"visits={self.expected_visits:.3f})"
        )


class EvaluationReport:
    """Full diagnostic output for one composite-service evaluation.

    Attributes:
        service: evaluated service name.
        actuals: the actual parameters used.
        pfail: the overall unreliability ``Pfail(S, fp)``.
        states: per-state breakdowns (failure probability, per-request
            internal/external probabilities, expected visit counts from the
            augmented chain — the states that dominate unreliability are the
            architectural hot spots).
    """

    def __init__(
        self,
        service: str,
        actuals: Mapping[str, float],
        pfail: float,
        states: tuple[StateBreakdown, ...],
    ):
        self.service = service
        self.actuals = dict(actuals)
        self.pfail = pfail
        self.states = states

    @property
    def reliability(self) -> float:
        """``1 - Pfail``."""
        return 1.0 - self.pfail

    def dominant_state(self) -> StateBreakdown | None:
        """The state contributing the largest ``visits * p_fail`` mass."""
        if not self.states:
            return None
        return max(
            self.states, key=lambda s: s.expected_visits * s.failure_probability
        )

    def __str__(self) -> str:
        lines = [
            f"service {self.service!r} with {self.actuals}: "
            f"Pfail = {self.pfail:.6e} (R = {self.reliability:.6f})"
        ]
        for s in self.states:
            lines.append(
                f"  state {s.state:20s} p_fail={s.failure_probability:.6e} "
                f"E[visits]={s.expected_visits:.4f}"
            )
        return "\n".join(lines)


class RequestTable:
    """A composite service's requests, resolved once per evaluator.

    ``states`` names the flow states in order; ``requests`` holds their
    resolved requests (:class:`~repro.model.assembly.ResolvedRequest`) in
    the same order, state ``i`` owning the slice ``bounds[i]``.
    ``classes`` groups the states with requests into completion classes
    (same required successes ``k`` and dependency partition ``groups``) as
    ``(k, groups, rows, columns)``: ``rows`` indexes ``states``, the
    ``(len(rows), n)`` matrix ``columns`` indexes ``requests``.
    """

    def __init__(self, assembly: Assembly, service: CompositeService):
        self.states = tuple(state.name for state in service.flow.states)
        self.requests = []
        self.bounds = []
        members: dict[tuple, tuple[list[int], list[range]]] = {}
        for row, state in enumerate(service.flow.states):
            start = len(self.requests)
            self.requests += [
                assembly.resolve_request(service.name, request)
                for request in state.requests
            ]
            self.bounds.append((start, len(self.requests)))
            n = len(state.requests)
            if n:
                key = (state.completion.required_successes(n), state.effective_groups())
                rows, columns = members.setdefault(key, ([], []))
                rows.append(row)
                columns.append(range(start, start + n))
        self.classes = [
            (k, groups, np.array(rows), np.array(columns))
            for (k, groups), (rows, columns) in members.items()
        ]

    def split(self, values: np.ndarray) -> list[tuple[float, ...]]:
        """Per-request ``values`` cut into one tuple per state."""
        return [tuple(values[start:stop].tolist()) for start, stop in self.bounds]


class ReliabilityEvaluator:
    """Numeric implementation of ``Pfail_Alg`` over one assembly.

    Args:
        assembly: the service assembly to analyze.
        validate: run structural validation up front (recommended; the
            errors raised later by an invalid assembly are less direct).
        check_domains: verify actual parameters against the declared
            abstract domains on every call (disable for speed inside tight
            sweeps over real-valued interpolations of integer domains).
        budget: optional :class:`~repro.runtime.EvaluationBudget`; the
            evaluator load-sheds with
            :class:`~repro.errors.BudgetExceededError` when the deadline,
            recursion-depth or DTMC-state limits trip.
        solver: linear-solver backend for the absorbing solves —
            ``"auto"`` (default; structure-aware), ``"dense"`` or
            ``"sparse"``; see :mod:`repro.markov.solvers`.
        incremental: serve absorbing solves of structurally repeated
            chains through low-rank (Sherman-Morrison-Woodbury) updates of
            the cached base factorization instead of re-factoring
            (:mod:`repro.markov.updates`) — the what-if fast path for
            sensitivity probes, crossover bisection and architecture
            comparison; results stay within solver tolerance of the full
            solve (automatic fallback otherwise).
    """

    def __init__(
        self,
        assembly: Assembly,
        validate: bool = True,
        check_domains: bool = True,
        budget: EvaluationBudget | None = None,
        solver: str = "auto",
        incremental: bool = False,
    ):
        from repro.markov.solvers import validate_solver

        self.assembly = assembly
        self.check_domains = check_domains
        self.budget = budget
        self.solver = validate_solver(solver)
        self.incremental = bool(incremental)
        #: Absorbing-chain solves performed (cache hits never solve); the
        #: engine-layer cache tests assert re-evaluation costs zero solves.
        self.solve_count = 0
        if validate:
            report = validate_assembly(assembly)
            report.raise_if_invalid()
        self._cache: dict[tuple, float] = {}
        self._tables: dict[str, RequestTable] = {}
        self._stack: list[str] = []

    # -- public API ----------------------------------------------------------

    def pfail(self, service: str | Service, **actuals: float) -> float:
        """``Pfail(S, fp)`` for concrete actual parameters."""
        svc = self._coerce(service)
        with obs.span("evaluator.pfail", service=svc.name):
            return self._pfail_service(svc, self._normalize(svc, actuals))

    def reliability(self, service: str | Service, **actuals: float) -> float:
        """``1 - Pfail(S, fp)``."""
        return 1.0 - self.pfail(service, **actuals)

    def report(self, service: str | Service, **actuals: float) -> EvaluationReport:
        """Evaluate a composite service and return per-state diagnostics."""
        svc, normalized, env, (table, internal, external, failures) = (
            self._composite_states("report", service, actuals)
        )
        analysis = self._solve_chain(
            svc.name, augment_with_failures(svc.flow, env, failures)
        )
        breakdowns = tuple(
            StateBreakdown(name, failures[name], request_internal, request_external,
                           analysis.expected_visits(START, name))
            for name, request_internal, request_external in zip(
                table.states, table.split(internal), table.split(external)
            )
        )
        pfail = 1.0 - analysis.absorption_probability(START, END)
        return EvaluationReport(svc.name, dict(normalized), pfail, breakdowns)

    def state_probabilities(
        self, service: str | Service, **actuals: float
    ) -> dict[str, tuple[tuple[float, ...], tuple[float, ...]]]:
        """Per-state ``(internal, external)`` request failure probabilities
        of a composite service under concrete actuals.

        This exposes the raw inputs of eqs. (4)-(13) — used by the
        related-work adapters in :mod:`repro.baselines` and by diagnostic
        tooling.  A value outside ``[0, 1]`` (NaN included) raises
        :class:`~repro.errors.ProbabilityRangeError`, as in :meth:`pfail`.
        """
        _, _, _, (table, internal, external, _) = self._composite_states(
            "state_probabilities", service, actuals
        )
        return dict(zip(table.states, zip(table.split(internal), table.split(external))))

    def clear_cache(self) -> None:
        """Drop all memoized results and request tables (e.g. after
        mutating the assembly)."""
        self._cache.clear()
        self._tables.clear()

    # -- internals ---------------------------------------------------------

    def _coerce(self, service: str | Service) -> Service:
        if isinstance(service, Service):
            return service
        return self.assembly.service(service)

    def _normalize(
        self, service: Service, actuals: Mapping[str, float]
    ) -> tuple[tuple[str, float], ...]:
        """Validate and canonicalize actuals into a hashable memo key part."""
        formals = service.formal_parameters
        missing = [f for f in formals if f not in actuals]
        if missing:
            raise EvaluationError(
                f"service {service.name!r}: missing actual parameters {missing}"
            )
        extra = [a for a in actuals if a not in formals]
        if extra:
            raise EvaluationError(
                f"service {service.name!r}: unknown actual parameters {extra}"
            )
        values = []
        for name in formals:
            value = actuals[name]
            if isinstance(value, np.ndarray):
                raise EvaluationError(
                    "the numeric evaluator takes scalar actuals; use "
                    "repro.analysis.sweep or the symbolic evaluator for "
                    "vectorized sweeps"
                )
            values.append((name, float(value)))
        return tuple(values)

    def _composite_states(
        self, caller: str, service: str | Service, actuals: Mapping[str, float]
    ) -> tuple:
        """``(service, normalized actuals, environment, _state_failures)``
        of a composite service evaluated on behalf of ``caller``."""
        svc = self._coerce(service)
        if not isinstance(svc, CompositeService):
            raise EvaluationError(
                f"{caller}() requires a composite service; {svc.name!r} is simple"
            )
        normalized = self._normalize(svc, actuals)
        self._budget_check()
        env = svc.evaluation_environment(dict(normalized), check=self.check_domains)
        self._stack.append(svc.name)
        try:
            return svc, normalized, env, self._state_failures(svc, env)
        finally:
            self._stack.pop()

    def _budget_check(self) -> None:
        """Deadline + recursion-depth load shedding (no-op without budget)."""
        if self.budget is not None:
            self.budget.check_deadline("reliability evaluation")
            self.budget.check_depth(
                len(self._stack) + 1, "service-composition recursion"
            )

    def _solve_chain(self, service_name: str, chain) -> AbsorbingChainAnalysis:
        """The guarded absorbing-chain solve, gated on the state budget."""
        if self.budget is not None:
            self.budget.check_states(
                chain.matrix.shape[0], f"absorbing solve for {service_name!r}"
            )
        self.solve_count += 1
        return AbsorbingChainAnalysis(
            chain, solver=self.solver, incremental=self.incremental
        )

    def _pfail_service(self, service: Service, actuals: tuple[tuple[str, float], ...]) -> float:
        self._budget_check()
        key = (service.name, actuals)
        if key in self._cache:
            return self._cache[key]
        if service.name in self._stack:
            start = self._stack.index(service.name)
            return self._handle_cycle(
                key, tuple(self._stack[start:]) + (service.name,)
            )
        self._stack.append(service.name)
        try:
            value = self._compute(service, dict(actuals))
        finally:
            self._stack.pop()
        value = _check_probability(f"Pfail({service.name})", value)
        self._cache[key] = value
        return value

    def _handle_cycle(self, key: tuple, cycle: tuple[str, ...]) -> float:
        """Hook invoked on re-entrant evaluation of a service.

        The base evaluator treats a cycle as fatal, exactly where the
        paper's procedure would loop forever.
        :class:`~repro.core.fixed_point.FixedPointEvaluator` overrides this
        to return the current fixed-point estimate instead.
        """
        raise CyclicAssemblyError(cycle)

    def _compute(self, service: Service, actuals: dict[str, float]) -> float:
        # Abstract domains constrain what callers may request of the
        # assembly, so they are enforced on the top-level actuals only;
        # derived actuals (e.g. list * log2(list)) may fall between the
        # representative elements of an integer domain.
        check = self.check_domains and len(self._stack) == 1
        if isinstance(service, SimpleService):
            env = service.evaluation_environment(actuals, check=check)
            return float(service.failure_probability.evaluate(env))
        if not isinstance(service, CompositeService):
            raise ModelError(f"cannot evaluate service of type {type(service)!r}")
        env = service.evaluation_environment(actuals, check=check)
        _, _, _, failures = self._state_failures(service, env)
        chain = augment_with_failures(service.flow, env, failures)
        analysis = self._solve_chain(service.name, chain)
        return 1.0 - analysis.absorption_probability(START, END)

    def _state_failures(
        self, service: CompositeService, env: Environment
    ) -> tuple[RequestTable, np.ndarray, np.ndarray, dict[str, float]]:
        """``p(i, Fail)`` of every flow state under the caller's environment
        (eqs. 4–13), with the per-request internal and external failure
        probabilities they came from.

        One pass over the service's :class:`RequestTable` fills the
        internal, external and masking vectors — provider and connector
        ``Pfail`` through the memoized recursion, in request order — then
        each vector is range-checked once and each completion class is one
        :func:`~repro.core.state_failure.completion_class_failure` call.
        """
        table = self._tables.get(service.name)
        if table is None:
            table = self._tables[service.name] = RequestTable(self.assembly, service)
        count = len(table.requests)
        internal, masking = np.empty(count), np.empty(count)
        p_service, p_connector = np.empty(count), np.zeros(count)
        for j, resolved in enumerate(table.requests):
            request, connector = resolved.request, resolved.connector
            internal[j] = request.internal_failure.evaluate(env)
            p_service[j] = self._pfail_service(resolved.provider, tuple(
                (name, float(request.actuals[name].evaluate(env)))
                for name in resolved.provider.formal_parameters
            ))
            if connector is not None:
                p_connector[j] = self._pfail_service(connector, tuple(
                    (name, float(resolved.connector_actuals[name].evaluate(env)))
                    for name in connector.formal_parameters
                ))
            masking[j] = request.masking.evaluate(env)
        internal = _check_probability("internal failure probability", internal)
        # eq. (13)
        external = _check_probability(
            "external failure probability", 1.0 - (1.0 - p_service) * (1.0 - p_connector)
        )
        masking = _check_probability("masking probability", masking)
        failures = np.zeros(len(table.states))
        for k, groups, rows, columns in table.classes:
            failures[rows] = completion_class_failure(
                k, groups, internal[columns], external[columns], masking[columns]
            )
        return table, internal, external, dict(zip(table.states, failures.tolist()))
