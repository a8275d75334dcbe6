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
assemblies.  What a composite evaluation needs that does not depend on
its callees' ``Pfail`` sits in an :class:`EvaluationFrame`, which the
fixed-point sweeps of a recursive assembly reuse.

Recursive assemblies, where the paper's procedure would loop forever, get
the least fixed point the paper proposes instead: a ``(service, actuals)``
key re-entered while it is still being evaluated is answered with an
estimate, and :mod:`repro.core.fixed_point` solves for the estimates.  A
value that read an estimate is memoized for the current sweep only, so a
recursive answer never depends on what the evaluator evaluated before.  A
service re-entered under *other* actuals than the ones it is being
evaluated with is no unknown of that equation and is refused with
:class:`CyclicAssemblyError`.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from repro import observability as obs
from repro.core import fixed_point
from repro.errors import (
    CyclicAssemblyError,
    EvaluationError,
    ModelError,
)
from repro.core.failure_structure import AugmentationFrame
from repro.core.state_failure import completion_class_failure
from repro.markov import AbsorbingChainAnalysis
from repro.model.assembly import Assembly
from repro.model.flow import END, START
from repro.model.requests import ServiceRequest
from repro.model.service import CompositeService, Service, SimpleService
from repro.model.validation import validate_assembly
from repro.runtime.budget import EvaluationBudget
from repro.runtime.guards import check_probability

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


def _content(request: ServiceRequest) -> tuple:
    """A request's content as a dict key: target, internal failure,
    masking, actuals and connector actuals (not its label).  Expressions
    compare structurally, constants by their bits, so equal keys evaluate
    to the same bits."""
    connector = request.connector_actuals
    return (
        request.target, request.internal_failure, request.masking,
        tuple(request.actuals.items()),
        connector if connector is None else tuple(connector.items()),
    )


class RequestTable:
    """A composite service's requests, resolved once per distinct request.

    ``states`` names the flow states in order; the flow's requests, taken
    state by state, are numbered so that state ``i`` owns the slice
    ``bounds[i]``.  Requests with the same content (target, actuals,
    internal failure, masking and connector actuals) share one entry of
    ``requests`` (the resolved requests,
    :class:`~repro.model.assembly.ResolvedRequest`, in first-seen order),
    and the intp array ``inverse`` maps each request to its entry.
    ``classes`` groups the states with requests into completion classes
    (same required successes ``k`` and dependency partition ``groups``) as
    ``(k, groups, rows, columns)``: ``rows`` indexes ``states``, the
    ``(len(rows), n)`` matrix ``columns`` indexes the requests.
    """

    def __init__(self, assembly: Assembly, service: CompositeService):
        self.states = tuple(state.name for state in service.flow.states)
        self.requests = []
        self.bounds = []
        inverse: list[int] = []
        distinct: dict[tuple, int] = {}
        members: dict[tuple, tuple[list[int], list[int]]] = {}
        for row, state in enumerate(service.flow.states):
            start = len(inverse)
            for request in state.requests:
                index = distinct.setdefault(_content(request), len(self.requests))
                if index == len(self.requests):
                    self.requests.append(assembly.resolve_request(service.name, request))
                inverse.append(index)
            self.bounds.append((start, len(inverse)))
            n = len(state.requests)
            if n:
                key = (state.completion.required_successes(n), state.effective_groups())
                rows, starts = members.setdefault(key, ([], []))
                rows.append(row)
                starts.append(start)
        self.inverse = np.array(inverse, dtype=np.intp)
        self.classes = [
            (k, groups, np.array(rows),
             np.add.outer(starts, np.arange(sum(map(len, groups)))))
            for (k, groups), (rows, starts) in members.items()
        ]

    def split(self, values: np.ndarray) -> list[tuple[float, ...]]:
        """Per-request ``values`` cut into one tuple per state."""
        return [tuple(values[start:stop].tolist()) for start, stop in self.bounds]


class EvaluationFrame:
    """What one ``(composite service, actuals)`` evaluation needs that does
    not depend on the callees' ``Pfail``: per distinct request of
    ``table``, the ``calls`` ``(provider, actuals, connector, actuals)``
    (memo-key tuples; ``None`` for no connector); per request, the
    range-checked ``internal`` and ``masking`` vectors; and the flow's
    ``augmentation`` frame.  Each distinct request is bound and evaluated
    once, and its values are gathered to every request that holds it
    before the range check, so a violation names the same first
    offender as a request-by-request evaluation."""

    def __init__(self, table: RequestTable, service: CompositeService, actuals: tuple):
        self.table = table
        env = service.evaluation_environment(dict(actuals), check=False)
        count = len(table.requests)
        internal, masking = np.empty(count), np.empty(count)

        def bind(callee, actuals):
            return tuple(
                (name, float(actuals[name].evaluate(env)))
                for name in callee.formal_parameters
            )

        self.calls = []
        for j, resolved in enumerate(table.requests):
            request, connector = resolved.request, resolved.connector
            internal[j] = request.internal_failure.evaluate(env)
            self.calls.append((
                resolved.provider, bind(resolved.provider, request.actuals),
                connector, connector and bind(connector, resolved.connector_actuals),
            ))
            masking[j] = request.masking.evaluate(env)
        self.internal = check_probability(
            "internal failure probability", internal[table.inverse]
        )
        self.masking = check_probability("masking probability", masking[table.inverse])
        self.augmentation = AugmentationFrame(service.flow, env)


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
        incremental: accepted and ignored; the flag of the retired
            low-rank update tier, still passed by ``perfbench``.

    After a call that solved a fixed point, :attr:`fixed_point` holds the
    solve's :class:`~repro.core.fixed_point.FixedPointSolve` (sweeps,
    Newton steps, fallback, error bound); it is ``None`` after an acyclic
    call.
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
        #: Absorbing-chain solves performed (cache hits never solve); the
        #: engine-layer cache tests assert re-evaluation costs zero solves.
        self.solve_count = 0
        if validate:
            report = validate_assembly(assembly)
            report.raise_if_invalid()
        #: values that read no fixed-point estimate, kept across calls
        self._cache: dict[tuple, float] = {}
        #: values that read an estimate, kept for the current sweep only
        self._sweep: dict[tuple, float] = {}
        #: estimate reads so far; a value whose evaluation reads none is final
        self._reads = 0
        #: re-entered keys of the current call in first-seen order (the
        #: fixed-point unknowns) and their estimates (0.0 until solved)
        self._unknowns: dict[tuple, None] = {}
        self._estimates: dict[tuple, float] = {}
        self.fixed_point: fixed_point.FixedPointSolve | None = None
        self._tables: dict[str, RequestTable] = {}
        #: frames of the current top-level call, kept across fixed-point sweeps
        self._frames: dict[tuple, EvaluationFrame] = {}
        #: ``(service, actuals)`` keys under evaluation, outermost first
        self._stack: list[tuple] = []

    # -- public API ----------------------------------------------------------

    def pfail(self, service: str | Service, **actuals: float) -> float:
        """``Pfail(S, fp)`` for concrete actual parameters (the least fixed
        point on a recursive assembly)."""
        svc = self._coerce(service)
        with obs.span("evaluator.pfail", service=svc.name):
            return self._solve(svc, self._normalize(svc, actuals))

    def reliability(self, service: str | Service, **actuals: float) -> float:
        """``1 - Pfail(S, fp)``."""
        return 1.0 - self.pfail(service, **actuals)

    def report(self, service: str | Service, **actuals: float) -> EvaluationReport:
        """Evaluate a composite service and return per-state diagnostics."""
        svc, normalized, frame, (external, failures) = (
            self._composite_states("report", service, actuals)
        )
        analysis = self._solve_chain(svc.name, frame.augmentation.chain(failures))
        table = frame.table
        breakdowns = tuple(
            StateBreakdown(name, failure, request_internal, request_external,
                           analysis.expected_visits(START, name))
            for name, failure, request_internal, request_external in zip(
                table.states, failures.tolist(), table.split(frame.internal),
                table.split(external),
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
        _, _, frame, (external, _) = self._composite_states(
            "state_probabilities", service, actuals
        )
        table = frame.table
        return dict(zip(
            table.states, zip(table.split(frame.internal), table.split(external))
        ))

    def clear_cache(self) -> None:
        """Drop all memoized results, request tables and frames (e.g. after
        mutating the assembly)."""
        self._cache.clear()
        self._sweep.clear()
        self._tables.clear()
        self._frames.clear()

    # -- internals ---------------------------------------------------------

    def _coerce(self, service: str | Service) -> Service:
        if isinstance(service, Service):
            return service
        return self.assembly.service(service)

    def _normalize(
        self, service: Service, actuals: Mapping[str, float]
    ) -> tuple[tuple[str, float], ...]:
        """Validate and canonicalize actuals into a hashable memo key part."""
        service.check_actual_names(actuals)
        values = []
        for name in service.formal_parameters:
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
        """``(service, normalized actuals, frame, _state_failures)`` of a
        composite service evaluated on behalf of ``caller``."""
        svc = self._coerce(service)
        if not isinstance(svc, CompositeService):
            raise EvaluationError(
                f"{caller}() requires a composite service; {svc.name!r} is simple"
            )
        normalized = self._normalize(svc, actuals)
        self._budget_check()
        if self.check_domains:
            svc.interface.check_actuals(dict(normalized))
        self._restart()
        states = self._states(svc, normalized)
        if self._unknowns:
            # recursive: break the states down where the solve's last
            # sweep left its values, the top itself re-entering as its
            # estimate, as in that sweep
            self._solve(svc, normalized)
            self._sweep.pop((svc.name, normalized), None)
            states = self._states(svc, normalized)
        return svc, normalized, *states

    def _states(self, svc: CompositeService, normalized: tuple) -> tuple:
        """``(frame, _state_failures)`` of a top-level composite."""
        self._stack.append((svc.name, normalized))
        try:
            frame = self._frame(svc, normalized)
            return frame, self._state_failures(frame)
        finally:
            self._stack.pop()

    def _restart(self) -> None:
        """Forget the last call's frames, estimates, unknowns and the
        values that read them."""
        self._frames.clear()
        self._sweep.clear()
        self._unknowns.clear()
        self._estimates = {}
        self.fixed_point = None

    def _solve(self, svc: Service, normalized: tuple) -> float:
        """``Pfail`` of a top-level call: one pass of the recursive
        procedure, then the least fixed point when a key re-entered."""
        self._restart()
        top = self._pfail_service(svc, normalized)
        if not self._unknowns:
            return top
        keys = tuple(self._unknowns)
        progress = self.fixed_point = fixed_point.FixedPointSolve(svc.name)
        if self.budget is not None:
            self.budget.check_sweeps(1, "fixed-point iteration")

        def image() -> np.ndarray:
            """``F(x)``: each unknown's value in the last sweep."""
            return np.array([self._sweep.get(key, 0.0) for key in keys])

        def sweep(x: np.ndarray) -> tuple[float, np.ndarray]:
            if self.budget is not None:
                self.budget.check_deadline("fixed-point iteration")
                self.budget.check_sweeps(progress.sweeps, "fixed-point iteration")
            self._estimates = dict(zip(keys, x.tolist()))
            self._sweep.clear()
            return self._pfail_service(svc, normalized), image()

        with obs.span("fixed_point.solve", service=svc.name) as span:
            try:
                return fixed_point.solve(progress, sweep, top, image())
            finally:
                span.set_tag(
                    sweeps=progress.sweeps, newton_steps=progress.newton_steps,
                    fallback=progress.fell_back, error_bound=progress.error_bound,
                )
                obs.count("fixed_point.sweeps", progress.sweeps)
                if progress.fell_back:
                    obs.count("fixed_point.fallbacks")

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
            self.budget.check_states(len(chain), f"absorbing solve for {service_name!r}")
        self.solve_count += 1
        return AbsorbingChainAnalysis(chain, solver=self.solver)

    def _pfail_service(self, service: Service, actuals: tuple[tuple[str, float], ...]) -> float:
        self._budget_check()
        key = (service.name, actuals)
        if key in self._cache:
            return self._cache[key]
        if key in self._sweep:
            self._reads += 1
            return self._sweep[key]
        names = [name for name, _ in self._stack]
        if service.name in names:
            if key not in self._stack:
                # re-entry under other actuals: no unknown of the fixed-point
                # equation, and a descent no sweep would finish
                start = names.index(service.name)
                raise CyclicAssemblyError(tuple(names[start:]) + (service.name,))
            # a fixed-point unknown: its estimate (0.0, the least fixed
            # point's start, until the solve has one)
            self._unknowns[key] = None
            self._reads += 1
            return self._estimates.get(key, 0.0)
        reads = self._reads
        self._stack.append(key)
        try:
            value = self._compute(service, actuals)
        finally:
            self._stack.pop()
        value = check_probability(f"Pfail({service.name})", value)
        (self._cache if self._reads == reads else self._sweep)[key] = value
        return value

    def _compute(self, service: Service, actuals: tuple[tuple[str, float], ...]) -> float:
        # Abstract domains constrain what callers may request of the
        # assembly, so they are enforced on the top-level actuals only;
        # derived actuals (e.g. list * log2(list)) may fall between the
        # representative elements of an integer domain.
        check = self.check_domains and len(self._stack) == 1
        if isinstance(service, SimpleService):
            env = service.evaluation_environment(dict(actuals), check=check)
            return float(service.failure_probability.evaluate(env))
        if not isinstance(service, CompositeService):
            raise ModelError(f"cannot evaluate service of type {type(service)!r}")
        if check:
            service.interface.check_actuals(dict(actuals))
        frame = self._frame(service, actuals)
        _, failures = self._state_failures(frame)
        analysis = self._solve_chain(service.name, frame.augmentation.chain(failures))
        return 1.0 - analysis.absorption_probability(START, END)

    def _frame(self, service: CompositeService, actuals: tuple) -> EvaluationFrame:
        key = (service.name, actuals)
        frame = self._frames.get(key)
        if frame is None:
            table = self._tables.get(service.name)
            if table is None:
                table = self._tables[service.name] = RequestTable(self.assembly, service)
            frame = self._frames[key] = EvaluationFrame(table, service, actuals)
        return frame

    def _state_failures(self, frame: EvaluationFrame) -> tuple[np.ndarray, np.ndarray]:
        """A frame's per-request external failure probabilities and each
        flow state's ``p(i, Fail)`` (eqs. 4–13): provider and connector
        ``Pfail`` come through the memoized recursion once per distinct
        request, in request order, and each completion class is one
        :func:`~repro.core.state_failure.completion_class_failure` call."""
        table = frame.table
        count = len(table.requests)
        p_service, p_connector = np.empty(count), np.zeros(count)
        for j, (provider, provider_actuals, connector, connector_actuals) in enumerate(
            frame.calls
        ):
            p_service[j] = self._pfail_service(provider, provider_actuals)
            if connector is not None:
                p_connector[j] = self._pfail_service(connector, connector_actuals)
        # eq. (13), per distinct call, gathered to every request
        external = check_probability(
            "external failure probability",
            (1.0 - (1.0 - p_service) * (1.0 - p_connector))[table.inverse],
        )
        failures = np.zeros(len(table.states))
        for k, groups, rows, columns in table.classes:
            failures[rows] = completion_class_failure(
                k, groups, frame.internal[columns], external[columns],
                frame.masking[columns],
            )
        return external, failures
