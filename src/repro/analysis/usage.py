"""Expected-invocation analysis of an assembly.

The usage-profile flows define not only *whether* a service completes but
*how often* each provider is invoked along the way.  For capacity planning
and for interpreting reliability predictions ("sort1 dominates because it
is both weak and always on the path"), this module computes, for a
composite service at concrete actuals, the **expected number of
invocations of every service in the assembly** during one top-level
invocation, under the same failure-aware semantics as the evaluator:

- the expected visits of each flow state come from the fundamental matrix
  of the *failure-augmented* chain (states after likely-failing ones are
  reached less often — matching the fail-stop semantics);
- each visit of a state issues all of its requests once (the completion
  model governs transition success, not request issue);
- requests recurse: invoking a composite provider triggers the expected
  invocations of *its* callees, scaled by the caller's expectation, and
  connectors count as invocations too (one per transported request).

The result is an :class:`InvocationProfile` mapping service names to
expected invocation counts.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field

from repro.core.evaluator import ReliabilityEvaluator
from repro.errors import CyclicAssemblyError
from repro.markov import AbsorbingChainAnalysis
from repro.model.assembly import Assembly
from repro.model.flow import START
from repro.model.service import CompositeService, Service

__all__ = ["InvocationProfile", "expected_invocations"]


@dataclass(frozen=True)
class InvocationProfile:
    """Expected invocation counts for one top-level service invocation.

    Attributes:
        service: the invoked top-level service.
        actuals: the actual parameters of the invocation.
        counts: service name -> expected number of invocations (the
            top-level service itself counts once).
    """

    service: str
    actuals: Mapping[str, float]
    counts: Mapping[str, float] = field(default_factory=dict)

    def most_invoked(self, top: int = 5) -> list[tuple[str, float]]:
        """The ``top`` services by expected invocation count (excluding the
        top-level service itself)."""
        ranked = sorted(
            ((name, count) for name, count in self.counts.items()
             if name != self.service),
            key=lambda item: item[1],
            reverse=True,
        )
        return ranked[:top]

    def __str__(self) -> str:
        lines = [
            f"expected invocations per call of {self.service!r} "
            f"with {dict(self.actuals)}:"
        ]
        for name, count in sorted(
            self.counts.items(), key=lambda item: item[1], reverse=True
        ):
            lines.append(f"  {name:24s} {count:.6f}")
        return "\n".join(lines)


def expected_invocations(
    assembly: Assembly, service: str, **actuals: float
) -> InvocationProfile:
    """Compute the expected-invocation profile of one service invocation.

    Raises :class:`CyclicAssemblyError` for recursive assemblies (the
    expectation would need the fixed-point machinery; invocation counts of
    a terminating recursion are finite but not computed here).
    """
    cycle = assembly.find_cycle()
    if cycle is not None:
        raise CyclicAssemblyError(cycle)
    evaluator = ReliabilityEvaluator(assembly, check_domains=False)
    counts: dict[str, float] = {}
    top = assembly.service(service)
    _accumulate(
        evaluator, top,
        {name: float(value) for name, value in actuals.items()},
        weight=1.0, counts=counts,
    )
    return InvocationProfile(service, dict(actuals), counts)


def _accumulate(
    evaluator: ReliabilityEvaluator,
    service: Service,
    actuals: dict[str, float],
    weight: float,
    counts: dict[str, float],
) -> None:
    counts[service.name] = counts.get(service.name, 0.0) + weight
    if not isinstance(service, CompositeService):
        return

    frame = evaluator._frame(service, tuple(actuals.items()))
    # failure-aware expected visits of each state
    _, failures = evaluator._state_failures(frame)
    analysis = AbsorbingChainAnalysis(frame.augmentation.chain(failures))

    for state, (start, stop) in zip(frame.table.states, frame.table.bounds):
        visits = analysis.expected_visits(START, state)
        if visits <= 0.0:
            continue
        for entry in frame.table.inverse[start:stop]:
            provider, provider_actuals, connector, connector_actuals = (
                frame.calls[entry]
            )
            _accumulate(
                evaluator, provider, dict(provider_actuals),
                weight * visits, counts,
            )
            if connector is not None:
                _accumulate(
                    evaluator, connector, dict(connector_actuals),
                    weight * visits, counts,
                )
