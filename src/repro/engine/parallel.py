"""Worker-pool plumbing: executors, picklable workers, budget cooperation.

The batch engine fans independent work units — plan evaluations, sweep
chunks, Monte-Carlo trial blocks, fuzz cases — across a
:mod:`concurrent.futures` pool.  This module holds everything that must be
importable from a fresh worker process:

- **executor selection** (:func:`resolve_jobs`, :func:`make_executor`):
  ``jobs <= 1`` short-circuits to the serial path (no pool, no pickling);
  otherwise a process pool gives true CPU parallelism for the pure-Python
  solve paths (numpy-vectorized symbolic work never needs a pool: it runs
  fused, in-process);
- **module-level worker functions** (process pools can only call picklable
  top-level callables) that receive plain-data payloads: compiled
  :class:`~repro.engine.plan.EvaluationPlan` objects, canonical assembly
  JSON, mutation documents — never live model objects, which do not pickle;
- **cooperative budget semantics**: the parent computes the *remaining*
  deadline at dispatch (:func:`remaining_deadline`) and each worker
  enforces it locally through its own :class:`~repro.runtime.EvaluationBudget`;
  consumption caps (Monte-Carlo trials) are charged once, in the parent,
  before dispatch.  A worker that trips its local budget reports a typed
  :class:`WorkerFailure` which the parent rehydrates into the original
  error class (:func:`rebuild_error`), so ``--jobs 8`` surfaces the same
  exit codes as ``--jobs 1``.
"""

from __future__ import annotations

import os
import threading
import time
import warnings
from concurrent.futures import Executor
from dataclasses import dataclass, field

import repro.errors as _errors
from repro import observability as obs
from repro.errors import (
    BudgetExceededError,
    EvaluationError,
    ReproError,
    error_chain,
)
from repro.runtime.budget import EvaluationBudget

__all__ = [
    "WorkerFailure",
    "broken_pool_error",
    "evaluate_plan_points",
    "fused_counts",
    "fuzz_block",
    "make_executor",
    "numeric_sweep_chunk",
    "observe_token",
    "rebuild_error",
    "remaining_deadline",
    "reset_clamp_warning",
    "reset_fused_counts",
    "resolve_jobs",
    "simulate_block",
    "split_evenly",
    "unpack_worker_payload",
]


# ---------------------------------------------------------------------------
# fused-execution counters (shared by the batch engine and the sweep layer)
# ---------------------------------------------------------------------------

_fused_lock = threading.Lock()
_fused = {"groups": 0, "entries": 0, "fallbacks": 0}


def fused_counts() -> dict:
    """Process-wide fused-execution counters.

    ``groups``: same-fingerprint groups served by one stacked kernel call;
    ``entries``: individual (model, point) evaluations those calls fused;
    ``fallbacks``: groups the fused path handed back to the per-point path
    (a poisoned point, so errors stay per-entry).
    """
    with _fused_lock:
        return dict(_fused)


def reset_fused_counts() -> None:
    """Zero the fused counters (test isolation helper)."""
    with _fused_lock:
        for key in _fused:
            _fused[key] = 0


def charge_fused(groups: int = 0, entries: int = 0, fallbacks: int = 0) -> None:
    """Charge fused-execution work to the module counters and metrics."""
    with _fused_lock:
        _fused["groups"] += groups
        _fused["entries"] += entries
        _fused["fallbacks"] += fallbacks
    if groups:
        obs.count("engine.fused.groups", groups)
    if entries:
        obs.count("engine.fused.entries", entries)
    if fallbacks:
        obs.count("engine.fused.fallbacks", fallbacks)


def split_evenly(items: list, parts: int) -> list[list]:
    """Split ``items`` into at most ``parts`` contiguous, near-equal chunks.

    Contiguity preserves result ordering under simple concatenation; the
    first ``len(items) % parts`` chunks carry one extra element.  Empty
    chunks are never produced.
    """
    parts = max(1, min(int(parts), len(items)))
    base, extra = divmod(len(items), parts)
    chunks: list[list] = []
    start = 0
    for i in range(parts):
        size = base + (1 if i < extra else 0)
        chunks.append(items[start:start + size])
        start += size
    return chunks


#: Environment marker that makes the clamp-warning once-flag survive
#: process boundaries: child processes (including the fresh workers a
#: :class:`~repro.workunits.Supervisor` spawns after a
#: ``BrokenProcessPool`` pool restart) inherit the parent's environment,
#: import this module with the marker set, and stay silent instead of
#: re-emitting a warning the user already saw.
_CLAMP_WARNED_ENV = "REPRO_JOBS_CLAMP_WARNED"

#: Process-wide once-flag for the jobs-clamp warning.  Campaign layers call
#: :func:`resolve_jobs` once per dispatch round; repeating the same warning
#: every round is noise, so it fires once per process *tree* — the flag is
#: seeded from :data:`_CLAMP_WARNED_ENV` so restarted/spawned pools do not
#: re-warn (tests reset it via :func:`reset_clamp_warning`).
_clamp_warning_emitted = os.environ.get(_CLAMP_WARNED_ENV) == "1"


def reset_clamp_warning() -> None:
    """Re-arm the once-per-process-tree jobs-clamp warning (test helper)."""
    global _clamp_warning_emitted
    _clamp_warning_emitted = False
    os.environ.pop(_CLAMP_WARNED_ENV, None)


def resolve_jobs(jobs: int | None) -> int:
    """Normalize a ``--jobs`` request: ``None``/1 → serial, 0 → all cores.

    Explicit requests are clamped to ``os.cpu_count()`` with a
    :class:`RuntimeWarning` — benchmarking showed an oversubscribed pool
    is strictly *slower* than a right-sized one on this workload (workers
    are CPU-bound; extra processes only add spawn and pickling overhead).
    The warning is emitted once per process tree — the once-flag is
    mirrored into the environment (:data:`_CLAMP_WARNED_ENV`) so worker
    processes, including pools the work-unit supervisor restarts after a
    ``BrokenProcessPool``, never repeat it; every call still records the
    resolved count on the ``engine.jobs.resolved`` gauge.
    """
    global _clamp_warning_emitted
    if jobs is None:
        obs.gauge("engine.jobs.resolved", 1)
        return 1
    jobs = int(jobs)
    if jobs < 0:
        raise EvaluationError(f"jobs must be >= 0, got {jobs}")
    cores = os.cpu_count() or 1
    if jobs == 0:
        resolved = cores
    elif jobs > cores:
        if not _clamp_warning_emitted:
            _clamp_warning_emitted = True
            os.environ[_CLAMP_WARNED_ENV] = "1"
            warnings.warn(
                f"requested jobs={jobs} exceeds the {cores} available "
                f"core(s); clamping to {cores} (oversubscribed pools are "
                f"slower, not faster, on CPU-bound evaluation)",
                RuntimeWarning,
                stacklevel=2,
            )
        resolved = cores
    else:
        resolved = jobs
    obs.gauge("engine.jobs.resolved", resolved)
    return resolved


def make_executor(jobs: int, mode: str = "process") -> Executor | None:
    """A process pool for ``jobs`` workers, or ``None`` for the serial path.

    Args:
        jobs: resolved worker count (see :func:`resolve_jobs`).
        mode: ``"process"`` or ``"serial"``.
    """
    if mode not in ("process", "serial"):
        raise EvaluationError(f"unknown executor mode {mode!r}")
    if jobs <= 1 or mode == "serial":
        return None
    # the process-pool stack (multiprocessing included) loads only here
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor(max_workers=jobs)


def remaining_deadline(budget: EvaluationBudget | None) -> float | None:
    """Seconds of deadline left to hand a worker, or ``None`` if unlimited.

    Checks the parent's budget first, so dispatching past the deadline
    raises in the parent rather than fanning out doomed work.
    """
    if budget is None or budget.deadline is None:
        return None
    budget.check_deadline("parallel dispatch")
    return budget.remaining_time()


def worker_budget(deadline: float | None, **limits) -> EvaluationBudget | None:
    """A worker-local budget enforcing the parent's remaining envelope."""
    if deadline is None and not any(v is not None for v in limits.values()):
        return None
    return EvaluationBudget(deadline=deadline, **limits)


def broken_pool_error(
    what: str, indices, cause: BaseException
) -> "ReproError":
    """Map a raw :class:`BrokenProcessPool` into the typed taxonomy.

    A worker killed hard (SIGKILL, OOM, native crash) breaks the whole
    pool: every pending ``future.result()`` raises
    ``concurrent.futures.process.BrokenProcessPool``, which is not a
    :class:`ReproError` and would escape as a traceback.  Collection loops
    catch it and raise the returned
    :class:`~repro.errors.WorkerCrashedError` instead, carrying the
    indices of the entries whose results were lost.
    """
    from repro.errors import WorkerCrashedError

    obs.count("engine.worker_crashes")
    error = WorkerCrashedError(what, indices)
    error.__cause__ = cause
    return error


# ---------------------------------------------------------------------------
# typed-error transport
# ---------------------------------------------------------------------------


@dataclass
class WorkerFailure:
    """A typed error captured in a worker, in picklable form.

    Custom :class:`~repro.errors.ReproError` subclasses take structured
    ``__init__`` arguments, so the live exceptions do not survive pickling
    across a process boundary; workers ship this transport record and the
    parent rebuilds an equivalent error with :func:`rebuild_error`.

    ``cause_chain`` carries the stringified ``__cause__``/``__context__``
    chain of the original error (outermost first), so nested failures keep
    their root cause across the process boundary instead of flattening to
    the outer message alone.
    """

    kind: str
    message: str
    resource: str | None = None  # BudgetExceededError fields, when present
    limit: float | None = None
    used: float | None = None
    cause_chain: tuple[str, ...] = field(default_factory=tuple)

    @classmethod
    def from_error(cls, error: ReproError) -> "WorkerFailure":
        chain = error_chain(error)[1:]  # [0] repeats kind/message
        if isinstance(error, BudgetExceededError):
            return cls(
                type(error).__name__, str(error),
                resource=error.resource, limit=error.limit, used=error.used,
                cause_chain=chain,
            )
        return cls(type(error).__name__, str(error), cause_chain=chain)


def rebuild_error(failure: WorkerFailure) -> ReproError:
    """Rehydrate a :class:`WorkerFailure` into a raisable typed error.

    Budget trips reconstruct exactly (resource/limit/used survive the
    transport); other classes are rebuilt by name when their constructor
    takes a bare message, and fall back to the nearest base class
    otherwise — the CLI exit-code taxonomy keys on ``isinstance``, so a
    base-class fallback still maps to the right exit code family.

    A transported ``cause_chain`` is re-attached as exception notes
    (``add_note``), so ``--jobs 8`` tracebacks show the same root causes
    as ``--jobs 1``.
    """
    if failure.resource is not None:
        error: ReproError | None = BudgetExceededError(
            failure.resource, failure.limit, failure.used, failure.message
        )
    else:
        error = None
        cls = getattr(_errors, failure.kind, None)
        if isinstance(cls, type) and issubclass(cls, ReproError):
            try:
                error = cls(failure.message)
            except TypeError:
                for base in cls.__mro__[1:]:
                    if issubclass(base, ReproError):
                        try:
                            error = base(f"[{failure.kind}] {failure.message}")
                            break
                        except TypeError:
                            continue
        if error is None:
            error = EvaluationError(f"[{failure.kind}] {failure.message}")
    for link in getattr(failure, "cause_chain", ()):
        error.add_note(f"caused by {link}")
    return error


# ---------------------------------------------------------------------------
# worker-side observability (metrics/span shipping across the pool)
# ---------------------------------------------------------------------------


def observe_token() -> int | None:
    """The ``observe`` value of a worker payload: the dispatching
    process's pid while collection is on, ``None`` otherwise."""
    return os.getpid() if obs.enabled() else None


def _begin_worker_observation(payload: dict) -> bool:
    """Start a private collection scope in this worker, if asked to.

    Returns True when this call owns a scope whose data must be shipped
    back: exactly when the payload's ``observe`` pid (see
    :func:`observe_token`) is another process.  A forked worker inherits
    the parent's enabled flag, so the flag cannot tell; the pid can.  A
    payload run in the dispatching process itself (the supervisor's
    inline mode) writes straight into the live registry instead.
    """
    owner = payload.get("observe")
    if not owner or owner == os.getpid():
        return False
    obs.reset()
    obs.enable()
    dispatched = payload.get("dispatched_at")
    if dispatched is not None:
        obs.observe("batch.queue.seconds", max(0.0, time.time() - dispatched))
    return True


def _ship_worker_observation(results, owned: bool):
    """Wrap worker results with this scope's metrics/span deltas."""
    if not owned:
        return results
    snapshot = obs.registry().snapshot()
    spans = obs.tracer().export()
    obs.reset()  # pooled workers are reused: next payload gets a clean delta
    return {"results": results, "metrics": snapshot, "spans": spans}


def unpack_worker_payload(outcome):
    """Parent-side inverse of :func:`_ship_worker_observation`.

    Merges any shipped metrics into the parent registry and adopts shipped
    spans under the parent's current span, then returns the bare results.
    Plain (unwrapped) outcomes pass through untouched, so callers can
    unpack unconditionally.
    """
    if isinstance(outcome, dict) and "results" in outcome:
        metrics = outcome.get("metrics")
        if metrics:
            obs.registry().merge(metrics)
        spans = outcome.get("spans")
        if spans:
            obs.tracer().merge(spans)
        return outcome["results"]
    return outcome


# ---------------------------------------------------------------------------
# worker functions (must stay module-level: process pools pickle by name)
# ---------------------------------------------------------------------------


def evaluate_plan_points(payload: dict) -> list:
    """Evaluate one compiled plan at many actual-parameter points.

    Payload: ``plan`` (:class:`EvaluationPlan`), ``points`` (list of
    name→value dicts), ``deadline`` (remaining seconds or ``None``).
    Returns one entry per point: a float ``Pfail`` or a
    :class:`WorkerFailure` (per-point isolation: one bad point does not
    poison the block).
    """
    owned = _begin_worker_observation(payload)
    plan = payload["plan"]
    budget = worker_budget(payload.get("deadline"))
    results: list = []
    for point in payload["points"]:
        t0 = time.perf_counter()
        try:
            results.append(plan.pfail(point, budget=budget))
        except ReproError as exc:
            results.append(WorkerFailure.from_error(exc))
        obs.observe("batch.entry.seconds", time.perf_counter() - t0)
    return _ship_worker_observation(results, owned)


def numeric_sweep_chunk(payload: dict) -> list[float] | WorkerFailure:
    """Evaluate one grid chunk through the recursive numeric evaluator.

    Payload: ``assembly_json`` (canonical ``repro/1`` text), ``service``,
    ``parameter``, ``values``, ``fixed``, ``deadline``, optional
    ``solver`` and ``incremental``.  The assembly is rebuilt from JSON
    because live assemblies do not pickle.
    """
    from repro.core.evaluator import ReliabilityEvaluator
    from repro.dsl import load_assembly

    owned = _begin_worker_observation(payload)
    budget = worker_budget(payload.get("deadline"))
    t0 = time.perf_counter()
    try:
        assembly = load_assembly(payload["assembly_json"])
        evaluator = ReliabilityEvaluator(
            assembly, validate=False, check_domains=False, budget=budget,
            solver=payload.get("solver", "auto"),
            incremental=payload.get("incremental", False),
        )
        fixed = payload["fixed"]
        parameter = payload["parameter"]
        result: list[float] | WorkerFailure = [
            evaluator.pfail(
                payload["service"], **{**fixed, parameter: float(v)}
            )
            for v in payload["values"]
        ]
    except ReproError as exc:
        result = WorkerFailure.from_error(exc)
    obs.observe("batch.entry.seconds", time.perf_counter() - t0)
    return _ship_worker_observation(result, owned)


def simulate_block(payload: dict) -> tuple[int, int] | WorkerFailure:
    """Run one Monte-Carlo trial block; returns ``(trials, failures)``.

    Payload: ``assembly_json``, ``service``, ``actuals``, ``trials``,
    ``seed``, ``deadline``.  Trials were already charged against the
    parent's budget; the worker enforces only the remaining deadline.
    """
    from repro.dsl import load_assembly
    from repro.simulation.engine import MonteCarloSimulator

    owned = _begin_worker_observation(payload)
    budget = worker_budget(payload.get("deadline"))
    t0 = time.perf_counter()
    try:
        assembly = load_assembly(payload["assembly_json"])
        simulator = MonteCarloSimulator(
            assembly, seed=payload["seed"], validate=False, budget=budget
        )
        estimate = simulator.estimate_pfail(
            payload["service"], payload["trials"], **payload["actuals"]
        )
        result: tuple[int, int] | WorkerFailure = (
            estimate.trials, estimate.failures
        )
    except ReproError as exc:
        result = WorkerFailure.from_error(exc)
    obs.observe("batch.entry.seconds", time.perf_counter() - t0)
    return _ship_worker_observation(result, owned)


def fuzz_block(payload: dict) -> list:
    """Run a block of fuzz cases; returns the list of ``FuzzCase`` records.

    Payload: ``cases`` (list of ``(index, mutation)`` pairs — mutations
    are picklable documents), ``service``, ``actuals``, ``seed``,
    ``trials``, ``deadline``.  Case classification already treats every
    outcome as data (ok / typed-error / violation), so no failure
    transport is needed here.
    """
    from repro.robustness.harness import run_fuzz_case

    owned = _begin_worker_observation(payload)
    results = []
    for index, mutation in payload["cases"]:
        t0 = time.perf_counter()
        results.append(
            run_fuzz_case(
                index,
                mutation,
                service=payload["service"],
                actuals=payload["actuals"],
                seed=payload["seed"],
                trials=payload["trials"],
                deadline=payload["deadline"],
            )
        )
        obs.observe("batch.entry.seconds", time.perf_counter() - t0)
    return _ship_worker_observation(results, owned)
