"""Exception hierarchy for the :mod:`repro` library.

All library-specific errors derive from :class:`ReproError`, so callers can
catch one base class at an API boundary.  The hierarchy mirrors the layers of
the library:

- :class:`SymbolicError` — expression construction/evaluation problems;
- :class:`MarkovError` — malformed or non-analyzable Markov chains;
- :class:`ModelError` — malformed architectural models (services, flows,
  assemblies);
- :class:`EvaluationError` — failures of the reliability evaluator itself,
  including :class:`CyclicAssemblyError`, raised where the paper's recursive
  procedure (section 3.3) would loop forever;
- :class:`BudgetExceededError` — an :class:`repro.runtime.EvaluationBudget`
  limit (deadline, state count, recursion depth, sweeps, trials) was hit;
- :class:`NumericalInstabilityError` — a linear solve or probability
  computation produced numbers that cannot be trusted (near-singular
  system, NaN/Inf contamination, out-of-range drift beyond tolerance).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library.

    Every subclass pickles as itself: class, ``args`` and attributes come
    back as they were, without re-running the subclass ``__init__`` (whose
    structured arguments would otherwise be fed the rendered message), and
    the cause chain, which pickling drops, comes back as ``caused by …``
    notes.  A pool worker can therefore return or raise its error, and the
    parent gets the same class, message and attributes.
    """

    def __reduce__(self):
        return restore_error, (
            type(self), self.args, self.__dict__, error_chain(self)[1:]
        )


def restore_error(cls, args, state, causes) -> ReproError:
    """A ``cls`` error with these ``args`` and attributes, ``__init__`` unrun.

    The inverse of :meth:`ReproError.__reduce__`, and the one way a typed
    error crosses a process or journal boundary.  Each entry of ``causes``
    (``"Type: message"``, as :func:`error_chain` renders it) is appended
    as a ``caused by …`` note.
    """
    error = cls.__new__(cls)
    error.args = tuple(args)
    error.__dict__.update(state)
    if causes:
        error.__notes__ = [
            *getattr(error, "__notes__", ()),
            *(f"caused by {link}" for link in causes),
        ]
    return error


def error_chain(error: BaseException) -> tuple[str, ...]:
    """The ``"Type: message"`` rendering of an exception and its causes.

    Walks ``__cause__`` first (explicit ``raise ... from``), then implicit
    ``__context__``, skipping suppressed contexts — the same order a
    traceback would print.  Cycles are guarded, so a pathological
    self-referencing chain terminates.
    """
    chain: list[str] = []
    seen: set[int] = set()
    current: BaseException | None = error
    while current is not None and id(current) not in seen:
        seen.add(id(current))
        chain.append(f"{type(current).__name__}: {current}")
        if current.__cause__ is not None:
            current = current.__cause__
        elif not current.__suppress_context__:
            current = current.__context__
        else:
            current = None
    return tuple(chain)


def format_error_chain(error: BaseException) -> str:
    """One line: ``"Type: msg (caused by Type2: msg2; caused by ...)"``.

    The full cause chain of a nested failure, flattened for transport
    through string-only channels (fuzz-case records, campaign journals) —
    so an isolation boundary never swallows the root cause.
    """
    chain = error_chain(error)
    if len(chain) <= 1:
        return chain[0] if chain else ""
    return chain[0] + " (caused by " + "; caused by ".join(chain[1:]) + ")"


# ---------------------------------------------------------------------------
# symbolic layer
# ---------------------------------------------------------------------------


class SymbolicError(ReproError):
    """Base class for expression-engine errors."""


class UnboundParameterError(SymbolicError):
    """An expression was evaluated without a binding for some parameter."""

    def __init__(self, name: str):
        super().__init__(f"parameter {name!r} is not bound in the environment")
        self.name = name


class UnknownFunctionError(SymbolicError):
    """An expression refers to a function not present in the registry."""

    def __init__(self, name: str):
        super().__init__(f"unknown function {name!r}")
        self.name = name


class ExpressionParseError(SymbolicError):
    """The textual form of an expression could not be parsed."""


# ---------------------------------------------------------------------------
# markov layer
# ---------------------------------------------------------------------------


class MarkovError(ReproError):
    """Base class for Markov-chain errors."""


class InvalidDistributionError(MarkovError):
    """Transition probabilities are negative or do not sum to one."""


class UnknownStateError(MarkovError):
    """A transition or query refers to a state not present in the chain."""

    def __init__(self, state: object):
        super().__init__(f"unknown state {state!r}")
        self.state = state


class NotAbsorbingError(MarkovError):
    """Absorbing-chain analysis was requested on a chain with no absorbing
    state reachable from the queried start state."""


# ---------------------------------------------------------------------------
# model layer
# ---------------------------------------------------------------------------


class ModelError(ReproError):
    """Base class for architectural-model errors."""


class DuplicateNameError(ModelError):
    """Two entities in one scope (registry, assembly, flow) share a name."""

    def __init__(self, kind: str, name: str):
        super().__init__(f"duplicate {kind} name {name!r}")
        self.kind = kind
        self.name = name


class UnknownServiceError(ModelError):
    """A binding or request refers to a service that is not defined."""

    def __init__(self, name: str):
        super().__init__(f"unknown service {name!r}")
        self.name = name


class UnboundRequirementError(ModelError):
    """A composite service requires a service that the assembly never binds."""

    def __init__(self, service: str, requirement: str):
        super().__init__(
            f"service {service!r} requires {requirement!r}, "
            f"but the assembly does not bind it"
        )
        self.service = service
        self.requirement = requirement


class InvalidFlowError(ModelError):
    """A service flow violates a structural rule (missing Start/End,
    bad probabilities, requests attached to Start/End, ...)."""


class InvalidSharingError(ModelError):
    """A state declares the sharing dependency model but its requests do not
    all target the same service through the same connector (the restriction
    stated in section 3.2 of the paper)."""


# ---------------------------------------------------------------------------
# evaluation layer
# ---------------------------------------------------------------------------


class EvaluationError(ReproError):
    """Base class for reliability-evaluation errors."""


class CyclicAssemblyError(EvaluationError):
    """An evaluation path cannot handle a cycle of service requirements.

    Section 3.3 of the paper notes that the recursive procedure "does not
    work in the case of a service assembly where some services recursively
    call each other" — the reliability is then the solution of a fixed-point
    equation.  :class:`repro.core.ReliabilityEvaluator` solves it when a
    service re-enters under the actuals it is being evaluated with, and
    raises this error when it re-enters under other actuals (a descent the
    model language cannot bound).  The closed-form derivation, the
    performance and invocation-count analyses raise it on any cycle.
    """

    def __init__(self, cycle: tuple[str, ...]):
        super().__init__(
            "cyclic service assembly: " + " -> ".join(cycle)
            + " (the numeric evaluator solves recursion that re-enters a "
            "service under the same actuals)"
        )
        self.cycle = cycle


class FixedPointDivergenceError(EvaluationError):
    """The least-fixed-point solve of a recursive assembly did not converge
    within its sweep cap."""


class ProbabilityRangeError(EvaluationError):
    """A computed or supplied probability fell outside [0, 1]."""

    def __init__(self, what: str, value: float):
        super().__init__(f"{what} = {value!r} is outside [0, 1]")
        self.what = what
        self.value = value


class NumericalInstabilityError(EvaluationError):
    """A numeric result cannot be trusted.

    Raised instead of silently returning garbage when the absorbing-chain
    solve is ill-conditioned, a residual check fails, or NaN/Inf/negative
    values contaminate a probability computation.  The optional
    ``diagnostics`` mapping carries the offending quantities (condition
    estimate, residual norm, drift, ...) for logging and reports.
    """

    def __init__(self, message: str, **diagnostics: float):
        detail = ""
        if diagnostics:
            detail = " (" + ", ".join(
                f"{k}={v:.3e}" if isinstance(v, float) else f"{k}={v!r}"
                for k, v in sorted(diagnostics.items())
            ) + ")"
        super().__init__(message + detail)
        self.diagnostics = dict(diagnostics)


# ---------------------------------------------------------------------------
# runtime layer
# ---------------------------------------------------------------------------


class BudgetExceededError(ReproError):
    """An :class:`repro.runtime.EvaluationBudget` limit was exhausted.

    Attributes:
        resource: which limit tripped — one of ``"deadline"``,
            ``"states"``, ``"depth"``, ``"sweeps"``, ``"trials"``.
        limit: the configured cap.
        used: the amount consumed (or attempted) when the check fired.
    """

    def __init__(self, resource: str, limit: float, used: float, what: str = ""):
        where = f" during {what}" if what else ""
        super().__init__(
            f"evaluation budget exceeded{where}: "
            f"{resource} limit {limit:g} (used {used:g})"
        )
        self.resource = resource
        self.limit = limit
        self.used = used


class WorkerCrashedError(EvaluationError):
    """A pool worker process died without reporting back.

    Raised where a raw :class:`concurrent.futures.process.BrokenProcessPool`
    would otherwise escape the engine: a worker was killed hard (SIGKILL,
    the kernel OOM killer, a segfault in a native library) and its pending
    results are gone.  ``indices`` carries the positions of the affected
    work entries (batch entry indices, grid-point indices, fuzz case
    indices, trial-block indices), so callers know exactly which results
    are missing — the campaign layer (:mod:`repro.workunits`) uses the
    same signal to retry or quarantine individual units instead of failing
    the whole run.
    """

    def __init__(self, what: str = "", indices=()):
        indices = tuple(sorted(int(i) for i in indices))
        where = f" during {what}" if what else ""
        detail = ""
        if indices:
            shown = ", ".join(str(i) for i in indices[:10])
            if len(indices) > 10:
                shown += f", ... ({len(indices)} total)"
            detail = f"; affected entry indices: [{shown}]"
        super().__init__(
            f"worker process died unexpectedly{where} "
            f"(killed by SIGKILL/OOM or crashed in native code){detail}"
        )
        self.indices = indices


class CampaignStoreError(EvaluationError):
    """A work-unit results store cannot serve the requested campaign.

    Raised when ``--resume`` points at a journal written for a different
    campaign (mismatched campaign fingerprint) or at a file that is not a
    ``repro/workunits/1`` journal at all — resuming against the wrong
    store would silently mix results from different models/configs.
    """


# ---------------------------------------------------------------------------
# server layer
# ---------------------------------------------------------------------------


class ServerError(ReproError):
    """Base class for :mod:`repro.server` errors (configuration problems,
    request-shape violations, overload shedding)."""


class RequestValidationError(ServerError):
    """An HTTP request body does not match the endpoint's schema.

    The server maps this to ``400 Bad Request`` — the same class of
    failure the CLI reports as exit code 3 (malformed input document).
    ``problems`` lists every violation found, one human-readable line
    each, so clients can fix a whole payload in one round trip.
    """

    def __init__(self, endpoint: str, problems):
        problems = tuple(problems)
        shown = "; ".join(problems[:5])
        if len(problems) > 5:
            shown += f"; ... ({len(problems)} problems total)"
        super().__init__(f"invalid request for {endpoint}: {shown}")
        self.endpoint = endpoint
        self.problems = problems


class ServerOverloadedError(ServerError):
    """The daemon is at its concurrent-request capacity.

    Raised (and mapped to ``429 Too Many Requests``) when accepting one
    more evaluation would exceed the server's ``max_inflight`` bound —
    load shedding at admission, before any model parsing or compilation
    is paid for the doomed request.
    """

    def __init__(self, inflight: int, limit: int):
        super().__init__(
            f"server at capacity: {inflight} requests in flight "
            f"(limit {limit}); retry after the backlog drains"
        )
        self.inflight = inflight
        self.limit = limit


class AllTiersFailedError(EvaluationError):
    """Every tier of a :class:`repro.runtime.RobustEvaluator` degradation
    chain failed; ``diagnostics`` records each tier's typed error."""

    def __init__(self, service: str, diagnostics):
        lines = "; ".join(
            f"{d.tier}: {type(d.error).__name__}: {d.error}" for d in diagnostics
        )
        super().__init__(
            f"all evaluation tiers failed for service {service!r} ({lines})"
        )
        self.service = service
        self.diagnostics = tuple(diagnostics)
