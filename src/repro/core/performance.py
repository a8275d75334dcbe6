"""Performance prediction over the same architectural model.

The paper closes with: *"even if our focus is on reliability issues, the
presented ideas can also be extended, with appropriate modifications, to
other QoS aspects (e.g. performance)"* (section 6).  This module is that
extension: the **expected execution time** of a composite service, computed
compositionally from the same analytic interfaces, flows, bindings and
connectors as the reliability prediction — so the reliability/performance
trade-off of an architectural decision (local vs remote in section 4!) can
be read off one model.

Semantics ("appropriate modifications"):

- a **simple service** publishes a deterministic duration expression over
  its formals (``N / speed`` for cpu, ``B / bandwidth`` for net — the
  durations already implicit in eqs. 1/2's exponents); perfect modeling
  connectors cost 0; a simple service with no published duration makes the
  assembly's performance question unanswerable
  (:class:`~repro.errors.EvaluationError`);
- a **request** costs its connector's duration plus its provider's
  (transport and execution serialize);
- a **state** dispatches its requests in parallel; under the abstract
  deterministic-duration model, AND completes at the **max** request
  duration, OR at the **min**, and k-of-n at the k-th smallest —
  completion models reinterpreted on the time axis;
- a **flow** costs the visit-weighted sum of its state durations, with
  expected visits from the *pure usage-profile* chain (performance is
  reported for the functional behavior; failure-truncated executions are
  the reliability evaluator's department — the standard separation in the
  architecture-based QoS literature).
"""

from __future__ import annotations

import numpy as np

from repro.core.failure_structure import AugmentationFrame
from repro.errors import CyclicAssemblyError, EvaluationError, ModelError
from repro.markov import AbsorbingChainAnalysis
from repro.model.assembly import Assembly
from repro.model.flow import START, FlowState, ServiceFlow
from repro.model.service import CompositeService, Service, SimpleService
from repro.model.validation import validate_assembly
from repro.symbolic import Environment

__all__ = ["PerformanceEvaluator"]


class PerformanceEvaluator:
    """Expected-duration evaluation over one (acyclic) assembly.

    Mirrors :class:`~repro.core.evaluator.ReliabilityEvaluator`: same
    recursion over bindings, same memoization, same cycle refusal —
    different metric.

    Args:
        assembly: the service assembly to analyze.
        validate: run structural validation up front.
    """

    def __init__(self, assembly: Assembly, validate: bool = True):
        self.assembly = assembly
        if validate:
            validate_assembly(assembly).raise_if_invalid()
        self._cache: dict[tuple, float] = {}
        self._stack: list[str] = []

    # -- public API ----------------------------------------------------------

    def expected_duration(self, service: str | Service, **actuals: float) -> float:
        """Expected execution time of one invocation of ``service``."""
        svc = service if isinstance(service, Service) else self.assembly.service(service)
        svc.check_actual_names(actuals)
        return self._duration(
            svc, tuple((name, float(actuals[name])) for name in svc.formal_parameters)
        )

    def state_durations(
        self, service: str | Service, **actuals: float
    ) -> dict[str, tuple[float, float]]:
        """Per-state ``(duration, expected visits)`` diagnostics for a
        composite service — where the time goes."""
        svc = service if isinstance(service, Service) else self.assembly.service(service)
        if not isinstance(svc, CompositeService):
            raise EvaluationError(
                f"state_durations() requires a composite service; "
                f"{svc.name!r} is simple"
            )
        env = svc.evaluation_environment(actuals, check=False)
        analysis = _usage_chain_analysis(svc.flow, env)
        out: dict[str, tuple[float, float]] = {}
        self._stack.append(svc.name)
        try:
            for state in svc.flow.states:
                duration = self._state_duration(svc, state, env)
                visits = analysis.expected_visits(START, state.name)
                out[state.name] = (duration, visits)
        finally:
            self._stack.pop()
        return out

    # -- recursion ----------------------------------------------------------

    def _duration(self, service: Service, actuals: tuple) -> float:
        key = (service.name, actuals)
        if key in self._cache:
            return self._cache[key]
        if service.name in self._stack:
            start = self._stack.index(service.name)
            raise CyclicAssemblyError(
                tuple(self._stack[start:]) + (service.name,)
            )
        self._stack.append(service.name)
        try:
            value = self._compute(service, dict(actuals))
        finally:
            self._stack.pop()
        if value < 0.0:
            raise EvaluationError(
                f"negative duration {value} for {service.name!r}"
            )
        self._cache[key] = value
        return value

    def _compute(self, service: Service, actuals: dict) -> float:
        if isinstance(service, SimpleService):
            if service.duration is None:
                raise EvaluationError(
                    f"simple service {service.name!r} publishes no duration; "
                    f"performance analysis needs one (pass duration=... when "
                    f"building the service)"
                )
            env = service.evaluation_environment(actuals, check=False)
            return float(service.duration.evaluate(env))
        if not isinstance(service, CompositeService):
            raise ModelError(f"cannot evaluate service type {type(service)!r}")

        env = service.evaluation_environment(actuals, check=False)
        analysis = _usage_chain_analysis(service.flow, env)
        total = 0.0
        for state in service.flow.states:
            visits = analysis.expected_visits(START, state.name)
            if visits <= 0.0:
                continue
            total += visits * self._state_duration(service, state, env)
        return total

    def _state_duration(
        self, service: CompositeService, state: FlowState, env: Environment
    ) -> float:
        if not state.requests:
            return 0.0
        durations = []
        for request in state.requests:
            resolved = self.assembly.resolve_request(service.name, request)
            callee_actuals = tuple(
                (name, float(request.actuals[name].evaluate(env)))
                for name in resolved.provider.formal_parameters
            )
            duration = self._duration(resolved.provider, callee_actuals)
            if resolved.connector is not None:
                connector_actuals = tuple(
                    (name, float(resolved.connector_actuals[name].evaluate(env)))
                    for name in resolved.connector.formal_parameters
                )
                duration += self._duration(resolved.connector, connector_actuals)
            durations.append(duration)
        # parallel dispatch: the state completes at the k-th fastest request
        k = state.completion.required_successes(len(durations))
        return sorted(durations)[k - 1] if k >= 1 else 0.0


def _usage_chain_analysis(
    flow: ServiceFlow, env: Environment
) -> AbsorbingChainAnalysis:
    """Expected-visit analysis of the *pure* usage profile (no failure
    structure): the functional behavior whose cost is being predicted."""
    frame = AugmentationFrame(flow, env)
    return AbsorbingChainAnalysis(frame.chain(np.zeros(len(frame.names))))
