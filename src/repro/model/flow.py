"""Service flows — the abstract usage profile DTMC of a composite service.

Section 2(b): the flow of requests a composite service generates is a
discrete-time Markov chain whose nodes each hold a set of service requests
that must be fulfilled (under a completion model) before the transition to
the next node; section 3 adds the dependency (sharing) model per node and
the ``Start``/``End`` conventions:

- ``Start`` is the entry point, models no real behavior, and can never fail
  (the failure structure adds no ``Start -> Fail`` edge);
- ``End`` is the absorbing state marking successful completion.

Transition probabilities are :class:`~repro.symbolic.Expression`s over the
service's formal parameters (the paper allows "both the transition
probabilities and the actual parameters ... defined as functions of the
formal parameters").  A flow is therefore a *template*; instantiating it for
concrete parameter values yields a concrete DTMC.

Use :class:`FlowBuilder` for readable construction::

    flow = (
        FlowBuilder(formals=("elem", "list", "res"))
        .state("sort", requests=[sort_request], completion=AND)
        .state("search", requests=[cpu_request])
        .transition("Start", "sort", q)
        .transition("Start", "search", 1 - q)
        .transition("sort", "search", 1)
        .transition("search", "End", 1)
        .build()
    )
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, field

from repro.errors import InvalidFlowError, InvalidSharingError
from repro.model.completion import AND, CompletionModel
from repro.model.requests import ServiceRequest
from repro.symbolic import Environment, Expression, ExpressionLike, as_expression

__all__ = ["FlowState", "FlowTransition", "ServiceFlow", "FlowBuilder", "START", "END"]

#: Reserved state names.
START = "Start"
END = "End"
#: Name used by the failure-structure augmentation (reserved here so user
#: flows cannot collide with it).
FAIL = "Fail"

_RESERVED = {START, END, FAIL}

#: How far a transition probability may stray outside [0, 1], and a row
#: sum from one, in :meth:`ServiceFlow.check_probabilities`.
PROBABILITY_TOL = 1e-12
ROW_SUM_TOL = 1e-9


@dataclass(frozen=True)
class FlowState:
    """An internal node of a flow: a set of requests plus the completion and
    dependency (sharing) models that govern them.

    Attributes:
        name: unique state name (not one of ``Start``/``End``/``Fail``).
        requests: the request set ``A_i1 .. A_in``.
        completion: AND / OR / k-of-n completion model (default AND).
        shared: dependency model — ``True`` means the requests share one
            common external service through one connector (section 3.2's
            sharing model, with the paper's stated restriction that all
            requests then target the same service; enforced by
            :meth:`ServiceFlow.validate`).
        sharing_groups: the **extended dependency model** (the paper's
            section 6 asks for "more complex dependencies"): a partition of
            the request indices into groups; requests in the same multi-
            request group share one external service (one failure kills the
            group, as in eqs. 9/10), while distinct groups are independent.
            ``None`` (default) means the classic binary model via
            ``shared``; mutually exclusive with ``shared=True``.  Each
            multi-request group must target a single slot (the per-group
            form of the paper's restriction).
    """

    name: str
    requests: tuple[ServiceRequest, ...] = ()
    completion: CompletionModel = AND
    shared: bool = False
    sharing_groups: tuple[tuple[int, ...], ...] | None = None
    _groups: tuple[tuple[int, ...], ...] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if not isinstance(self.name, str) or not self.name:
            raise InvalidFlowError(f"invalid state name {self.name!r}")
        if self.name in _RESERVED:
            raise InvalidFlowError(
                f"state name {self.name!r} is reserved; internal states must "
                f"not be named Start/End/Fail"
            )
        object.__setattr__(self, "requests", tuple(self.requests))
        if not all(isinstance(r, ServiceRequest) for r in self.requests):
            raise InvalidFlowError("state requests must be ServiceRequest instances")
        if not isinstance(self.completion, CompletionModel):
            raise InvalidFlowError(
                f"completion must be a CompletionModel, got {self.completion!r}"
            )
        if self.shared and len(self.requests) < 2:
            raise InvalidFlowError(
                f"state {self.name!r}: sharing is only meaningful with at "
                f"least two requests"
            )
        if self.sharing_groups is not None:
            if self.shared:
                raise InvalidFlowError(
                    f"state {self.name!r}: 'shared' and 'sharing_groups' are "
                    f"mutually exclusive"
                )
            groups = tuple(tuple(int(i) for i in g) for g in self.sharing_groups)
            object.__setattr__(self, "sharing_groups", groups)
            flattened = sorted(i for g in groups for i in g)
            if flattened != list(range(len(self.requests))):
                raise InvalidFlowError(
                    f"state {self.name!r}: sharing_groups {groups} must "
                    f"partition the request indices 0..{len(self.requests) - 1}"
                )
        # The completion model must be applicable to this request count at
        # all (e.g. 3-of-n needs n >= 3); fail early rather than at
        # evaluation time.
        if self.requests:
            self.completion.required_successes(len(self.requests))
        n = len(self.requests)
        if self.sharing_groups is not None:
            groups = self.sharing_groups
        elif self.shared:
            groups = (tuple(range(n)),)
        else:
            groups = tuple((i,) for i in range(n))
        object.__setattr__(self, "_groups", groups)

    def effective_groups(self) -> tuple[tuple[int, ...], ...]:
        """The dependency partition in normalized form: explicit
        ``sharing_groups`` if given, one all-request group for
        ``shared=True``, else all singletons (independence).  Derived
        once per state."""
        return self._groups

    def check_sharing_restriction(self) -> None:
        """Enforce the paper's sharing restriction per dependency group:
        all requests of a multi-request group target the same service slot
        (hence the same connector)."""
        for group in self.effective_groups():
            if len(group) < 2:
                continue
            targets = {self.requests[i].target for i in group}
            if len(targets) != 1:
                raise InvalidSharingError(
                    f"shared state {self.name!r} has a dependency group with "
                    f"requests targeting {sorted(targets)}; the sharing model "
                    f"requires a single common service accessed through a "
                    f"single connector per group"
                )


@dataclass(frozen=True)
class FlowTransition:
    """A directed edge of the flow with a parametric probability."""

    source: str
    target: str
    probability: Expression

    def __post_init__(self) -> None:
        object.__setattr__(self, "probability", as_expression(self.probability))


class ServiceFlow:
    """The validated usage-profile template of a composite service.

    Args:
        formal_parameters: names of the owning service's formal parameters
            (every expression in the flow may reference only these).
        states: the internal states (``Start`` and ``End`` are implicit).
        transitions: the edges, including those leaving ``Start`` and
            entering ``End``.
    """

    def __init__(
        self,
        formal_parameters: Sequence[str],
        states: Iterable[FlowState],
        transitions: Iterable[FlowTransition],
    ):
        self._formals = tuple(formal_parameters)
        self._states: dict[str, FlowState] = {}
        for state in states:
            if state.name in self._states:
                raise InvalidFlowError(f"duplicate flow state {state.name!r}")
            self._states[state.name] = state
        self._transitions = tuple(transitions)
        self._targets = frozenset(
            r.target for s in self._states.values() for r in s.requests
        )
        self._outgoing: dict[str, list[FlowTransition]] = {}
        for t in self._transitions:
            self._outgoing.setdefault(t.source, []).append(t)
        self.validate()

    # -- accessors -----------------------------------------------------------

    @property
    def formal_parameters(self) -> tuple[str, ...]:
        """Formal-parameter names of the owning service."""
        return self._formals

    @property
    def states(self) -> tuple[FlowState, ...]:
        """Internal states in insertion order."""
        return tuple(self._states.values())

    @property
    def transitions(self) -> tuple[FlowTransition, ...]:
        """All transitions."""
        return self._transitions

    def state(self, name: str) -> FlowState:
        """Look up an internal state by name."""
        try:
            return self._states[name]
        except KeyError:
            raise InvalidFlowError(f"unknown flow state {name!r}") from None

    def outgoing(self, name: str) -> tuple[FlowTransition, ...]:
        """Transitions leaving ``name``."""
        return tuple(self._outgoing.get(name, ()))

    def request_targets(self) -> frozenset[str]:
        """All required-service slot names referenced by this flow."""
        return self._targets

    # -- validation --------------------------------------------------------

    def validate(self) -> None:
        """Structural validation (raised eagerly by the constructor)."""
        known = set(self._states) | {START, END}
        for t in self._transitions:
            if t.source == END:
                raise InvalidFlowError("End is absorbing; no outgoing transitions")
            if t.target == START:
                raise InvalidFlowError("Start must have no incoming transitions")
            for endpoint in (t.source, t.target):
                if endpoint not in known:
                    raise InvalidFlowError(
                        f"transition {t.source!r}->{t.target!r} references "
                        f"unknown state {endpoint!r}"
                    )
        if not self._outgoing.get(START):
            raise InvalidFlowError("flow must have at least one transition from Start")
        for name in self._states:
            if not self._outgoing.get(name):
                raise InvalidFlowError(
                    f"state {name!r} has no outgoing transition; every "
                    f"internal state must eventually reach End"
                )
        # End must be reachable from Start (template-level check: positive
        # probability is parameter-dependent, but connectivity is not).
        reachable = {START}
        frontier = [START]
        while frontier:
            node = frontier.pop()
            for t in self._outgoing.get(node, ()):
                if t.target not in reachable:
                    reachable.add(t.target)
                    frontier.append(t.target)
        if END not in reachable:
            raise InvalidFlowError("End is not reachable from Start")
        unreachable = set(self._states) - reachable
        if unreachable:
            raise InvalidFlowError(
                f"states {sorted(unreachable)} are unreachable from Start"
            )
        # expressions must only use declared formal parameters
        declared = set(self._formals)
        for t in self._transitions:
            extra = t.probability.free_parameters() - declared
            if extra:
                raise InvalidFlowError(
                    f"transition {t.source!r}->{t.target!r} probability uses "
                    f"undeclared parameters {sorted(extra)}"
                )
        for state in self._states.values():
            state.check_sharing_restriction()

    def check_probabilities(self, env: Environment | Mapping[str, float]) -> None:
        """Validate that, under ``env``, every row of transition
        probabilities is a distribution (non-negative, sums to one).

        Flows are parametric, so this check requires concrete parameter
        values; the evaluator performs it implicitly when instantiating the
        failure-augmented chain.
        """
        for source in [START, *self._states]:
            total = 0.0
            for t in self._outgoing.get(source, ()):
                p = float(t.probability.evaluate(env))
                if not -PROBABILITY_TOL <= p <= 1.0 + PROBABILITY_TOL:
                    raise InvalidFlowError(
                        f"transition {t.source!r}->{t.target!r} has "
                        f"probability {p} outside [0, 1] under {dict(env)!r}"
                    )
                total += p
            if abs(total - 1.0) > ROW_SUM_TOL:
                raise InvalidFlowError(
                    f"outgoing probabilities of {source!r} sum to {total} "
                    f"under {dict(env)!r}"
                )

    def describe(self) -> str:
        """Multi-line textual rendering in the style of Figure 1."""
        lines = [f"flow({', '.join(self._formals)}):"]
        for state in self._states.values():
            mode = state.completion.describe(len(state.requests)) if state.requests else "-"
            share = " [shared]" if state.shared else ""
            lines.append(f"  state {state.name} ({mode}){share}:")
            for request in state.requests:
                lines.append(f"    {request.describe()}")
        for t in self._transitions:
            lines.append(f"  {t.source} -> {t.target} : {t.probability}")
        return "\n".join(lines)


class FlowBuilder:
    """Fluent construction of a :class:`ServiceFlow`."""

    def __init__(self, formals: Sequence[str] = ()):
        self._formals = tuple(formals)
        self._states: list[FlowState] = []
        self._transitions: list[FlowTransition] = []

    def state(
        self,
        name: str,
        requests: Sequence[ServiceRequest] = (),
        completion: CompletionModel = AND,
        shared: bool = False,
        sharing_groups: Sequence[Sequence[int]] | None = None,
    ) -> "FlowBuilder":
        """Add an internal state."""
        self._states.append(
            FlowState(
                name,
                tuple(requests),
                completion=completion,
                shared=shared,
                sharing_groups=(
                    None
                    if sharing_groups is None
                    else tuple(tuple(g) for g in sharing_groups)
                ),
            )
        )
        return self

    def transition(
        self, source: str, target: str, probability: ExpressionLike = 1
    ) -> "FlowBuilder":
        """Add a transition edge."""
        self._transitions.append(
            FlowTransition(source, target, as_expression(probability))
        )
        return self

    def sequence(self, *names: str) -> "FlowBuilder":
        """Chain ``Start -> names[0] -> ... -> names[-1] -> End`` with
        probability-1 edges — the shape of the sort and LPC/RPC flows."""
        path = [START, *names, END]
        for source, target in zip(path, path[1:]):
            self.transition(source, target, 1)
        return self

    def build(self) -> ServiceFlow:
        """Validate and freeze the flow."""
        return ServiceFlow(self._formals, self._states, self._transitions)
