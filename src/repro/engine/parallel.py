"""Worker-pool plumbing: executors, picklable workers, budget cooperation.

The batch engine fans independent work units — plan evaluations, sweep
chunks, Monte-Carlo trial blocks, fuzz cases — across a
:mod:`concurrent.futures` pool.  This module holds everything that must be
importable from a fresh worker process:

- **the fail-fast fan-out** (:func:`resolve_jobs`, :func:`fan_out`):
  ``jobs <= 1`` runs each payload through the same worker, in process;
  otherwise one process pool gives true CPU parallelism for the
  pure-Python solve paths (numpy-vectorized symbolic work runs fused, in
  process).  The batch engine, numeric sweeps, Monte-Carlo trial blocks
  and fuzz shards all dispatch through :func:`fan_out`, which keeps one
  warm pool per worker count for the life of the process; a dead worker
  fails the whole fan-out with a typed
  :class:`~repro.errors.WorkerCrashedError` and retires that pool.  Retry
  and quarantine live in :mod:`repro.workunits`, which keeps its own pool;
- **module-level worker functions** (process pools can only call picklable
  top-level callables) that receive plain-data payloads: compiled
  :class:`~repro.engine.plan.EvaluationPlan` objects, canonical assembly
  JSON, mutation documents — never live model objects, which do not pickle;
- **one budget envelope**: every payload carries a ``budget``, the
  caller's live :class:`~repro.runtime.EvaluationBudget` in process and
  its :meth:`~repro.runtime.EvaluationBudget.for_worker` copy on the pool
  (trials are charged once, by the caller, before dispatch);
- **typed errors travel as themselves**: a worker returns the
  :class:`~repro.errors.ReproError` it caught (every subclass pickles as
  itself, its cause chain as ``caused by …`` notes), and :func:`fan_out`
  raises a returned error in the parent — so ``--jobs 8`` raises the same
  class, message and exit code as ``--jobs 1``.  Batch workers return one
  outcome per point (a ``Pfail`` or the point's error), so one bad point
  fails only its own entry.
"""

from __future__ import annotations

import atexit
import os
import threading
import time
import warnings

from repro import observability as obs
from repro.caching import LRUCache
from repro.errors import EvaluationError, ReproError
from repro.runtime.budget import EvaluationBudget

__all__ = [
    "broken_pool_error",
    "evaluate_plan_points",
    "fan_out",
    "fused_counts",
    "fuzz_block",
    "numeric_sweep_chunk",
    "observe_token",
    "reset_clamp_warning",
    "resolve_jobs",
    "simulate_block",
    "split_evenly",
    "unpack_worker_payload",
]


# ---------------------------------------------------------------------------
# fused-execution counters (shared by the batch engine and the sweep layer)
# ---------------------------------------------------------------------------


def fused_counts() -> dict:
    """Process-wide fused-execution counters (``engine.fused.*``).

    ``groups``: same-fingerprint groups served by one stacked kernel call;
    ``entries``: individual (model, point) evaluations those calls fused;
    ``fallbacks``: groups the fused path handed back to the per-point path
    (a poisoned point, so errors stay per-entry).
    """
    read = obs.registry().counter_value
    return {key: read(f"engine.fused.{key}")
            for key in ("groups", "entries", "fallbacks")}


def split_evenly(items: list, parts: int) -> list[list]:
    """Split ``items`` into at most ``parts`` contiguous, near-equal chunks.

    Contiguity preserves result ordering under simple concatenation; the
    first ``len(items) % parts`` chunks carry one extra element.  Empty
    chunks are never produced: no items give no chunks.
    """
    if not items:
        return []
    parts = max(1, min(int(parts), len(items)))
    base, extra = divmod(len(items), parts)
    chunks: list[list] = []
    start = 0
    for i in range(parts):
        size = base + (1 if i < extra else 0)
        chunks.append(items[start:start + size])
        start += size
    return chunks


#: Process-wide once-flag for the jobs-clamp warning.  Campaign layers call
#: :func:`resolve_jobs` once per dispatch round; repeating the same warning
#: every round is noise, so it fires once per process (tests reset it via
#: :func:`reset_clamp_warning`).  Pool and campaign workers run at
#: ``jobs=1`` and never reach the clamp.
_clamp_warning_emitted = False


def reset_clamp_warning() -> None:
    """Re-arm the once-per-process jobs-clamp warning (test helper)."""
    global _clamp_warning_emitted
    _clamp_warning_emitted = False


def resolve_jobs(jobs: int | None) -> int:
    """Normalize a ``--jobs`` request: ``None``/1 → serial, 0 → all cores.

    Explicit requests are clamped to ``os.cpu_count()`` with a
    :class:`RuntimeWarning` — benchmarking showed an oversubscribed pool
    is strictly *slower* than a right-sized one on this workload (workers
    are CPU-bound; extra processes only add spawn and pickling overhead).
    The warning is emitted once per process; every call still records
    the resolved count on the ``engine.jobs.resolved`` gauge.
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


def broken_pool_error(
    what: str, indices, cause: BaseException
) -> "ReproError":
    """Map a raw :class:`BrokenProcessPool` into the typed taxonomy.

    A worker killed hard (SIGKILL, OOM, native crash) breaks the whole
    pool: every pending ``future.result()`` raises
    ``concurrent.futures.process.BrokenProcessPool``, which is not a
    :class:`ReproError` and would escape as a traceback.  :func:`fan_out`
    catches it and raises the returned
    :class:`~repro.errors.WorkerCrashedError` instead, carrying the
    indices of the entries whose results were lost.
    """
    from repro.errors import WorkerCrashedError

    obs.count("engine.worker_crashes")
    error = WorkerCrashedError(what, indices)
    error.__cause__ = cause
    return error


#: The warm pools, one per ``(pid, worker count)``: a forked child never
#: looks up the pools it inherited, whose workers belong to its parent.
_pools: dict[tuple[int, int], object] = {}
_pools_lock = threading.Lock()


def _pool(jobs: int):
    """This process's pool of ``jobs`` workers, created on first need and
    shut down by :func:`_shutdown_pools` at exit."""
    from concurrent.futures import ProcessPoolExecutor

    key = (os.getpid(), jobs)
    with _pools_lock:
        executor = _pools.get(key)
        if executor is None:
            executor = _pools[key] = ProcessPoolExecutor(
                max_workers=jobs, initializer=_exit_with_parent
            )
        return executor


@atexit.register
def _shutdown_pools() -> None:
    """Exit hook: shut this process's warm pools down and drop them while
    the modules they use are still loaded.  An executor left for module
    teardown is collected after ``concurrent.futures`` has lost its
    globals, and its weakref callback prints "Exception ignored in …
    weakref_cb" on the way out."""
    with _pools_lock:
        mine = [key for key in _pools if key[0] == os.getpid()]
        executors = [_pools.pop(key) for key in mine]
    for executor in executors:
        executor.shutdown(wait=True)


def _exit_with_parent() -> None:
    """Pool-worker initializer: end the worker once its parent is gone.

    A parent killed hard runs no exit hook, and an idle worker blocked on
    the call queue would otherwise outlive it for good.
    """
    parent = os.getppid()

    def watch() -> None:
        while os.getppid() == parent:
            time.sleep(1.0)
        os._exit(0)

    threading.Thread(target=watch, daemon=True).start()


def fan_out(
    what: str,
    worker,
    payloads,
    covers,
    *,
    jobs: int,
    budget: EvaluationBudget | None = None,
) -> list:
    """Run ``worker`` over ``payloads``: in this process at ``jobs <= 1``,
    otherwise on the warm ``jobs``-process pool (started on first need).

    Each payload is stamped with the observability keys (``observe``,
    ``dispatched_at``), the dispatching pid (``origin``) and a ``budget``:
    the caller's live one in process, a fresh
    :meth:`~repro.runtime.EvaluationBudget.for_worker` copy on the pool.
    Results come back in submission order, unpacked of shipped metrics and
    spans (:func:`unpack_worker_payload`); a returned
    :class:`~repro.errors.ReproError` is raised here, in the caller.

    On the pool, the caller's deadline is checked before each dispatch and
    after each result.  Fail-fast: the first error cancels this call's
    payloads that have not started (no other call's).  A worker killed
    hard breaks the pool; that becomes a
    :class:`~repro.errors.WorkerCrashedError` carrying the union of
    ``covers[i]`` (the entry indices payload ``i`` serves) over every
    payload not collected, and the broken pool is retired.
    """
    if jobs <= 1:
        return [
            _collect(worker(_stamp(payload, budget))) for payload in payloads
        ]

    # the process-pool stack (multiprocessing included) loads only here
    from concurrent.futures.process import BrokenProcessPool

    executor = None
    futures: list = []
    results: list = []
    try:
        for payload in payloads:
            shipped = None
            if budget is not None:
                budget.check_deadline("parallel dispatch")
                shipped = budget.for_worker()
            if executor is None:
                executor = _pool(jobs)
            futures.append(executor.submit(worker, _stamp(payload, shipped)))
        for future in futures:
            results.append(_collect(future.result()))
            if budget is not None:
                budget.check_deadline(what)
    except BrokenProcessPool as exc:
        with _pools_lock:  # retire it, unless another call already did
            if _pools.get((os.getpid(), jobs)) is executor:
                del _pools[(os.getpid(), jobs)]
        lost = [index for cover in covers[len(results):] for index in cover]
        raise broken_pool_error(what, lost, exc) from exc
    except BaseException:
        for future in futures:
            future.cancel()
        raise
    return results


def _stamp(payload: dict, budget: EvaluationBudget | None) -> dict:
    """``payload`` plus the keys :func:`fan_out` hands every worker."""
    return {
        **payload,
        "observe": observe_token(),
        "dispatched_at": time.time(),
        "origin": os.getpid(),
        "budget": budget,
    }


def _collect(outcome):
    """A worker's result, raised if it is a :class:`ReproError`."""
    result = unpack_worker_payload(outcome)
    if isinstance(result, ReproError):
        raise result
    return result


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
    payload run in the dispatching process itself (:func:`fan_out` at
    ``jobs <= 1``, the supervisor's inline mode) writes straight into the
    live registry instead.
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


#: Plans this worker has been sent, so a warm worker reuses a robust
#: plan's evaluator instead of rebuilding it from JSON on every payload.
#: Only unpickled copies go through it: in process, the caller's own plan
#: object is evaluated as it is.
_worker_plans = LRUCache(8)


def evaluate_plan_points(payload: dict) -> list:
    """Evaluate one compiled plan at many actual-parameter points.

    Payload: ``plan`` (:class:`EvaluationPlan`), ``points`` (list of
    name→value dicts), ``budget`` (an
    :class:`~repro.runtime.EvaluationBudget` or ``None``).  An equal plan
    sent again from another process is evaluated on the worker's warm
    copy.  Returns one entry per point: a float ``Pfail`` or the point's
    :class:`~repro.errors.ReproError` (per-point isolation: one bad point
    does not poison the block).
    """
    owned = _begin_worker_observation(payload)
    plan = payload["plan"]
    if payload.get("origin") != os.getpid():
        plan = _worker_plans.get_or_create(
            (plan.fingerprint, plan.backend, plan.symbolic_attributes),
            lambda: plan,
        )
    budget = payload.get("budget")
    results: list = []
    for point in payload["points"]:
        t0 = time.perf_counter()
        try:
            if budget is not None:
                budget.check_deadline("batch evaluation")
            results.append(plan.pfail(point, budget=budget))
        except ReproError as exc:
            results.append(exc)
        obs.observe("batch.entry.seconds", time.perf_counter() - t0)
    return _ship_worker_observation(results, owned)


def numeric_sweep_chunk(payload: dict) -> list[float] | ReproError:
    """Evaluate one grid chunk as a serial numeric
    :func:`~repro.analysis.sweep.sweep_parameter`.

    Payload: ``assembly_json`` (canonical ``repro/1`` text), ``service``,
    ``parameter``, ``values``, ``fixed``, ``budget``.  The assembly is
    rebuilt from JSON because live assemblies do not pickle.
    """
    from repro.analysis.sweep import sweep_parameter
    from repro.dsl import load_assembly

    return _run_worker(payload, lambda budget: sweep_parameter(
        load_assembly(payload["assembly_json"]), payload["service"],
        payload["parameter"], payload["values"], payload["fixed"],
        method="numeric", budget=budget,
    ).pfail.tolist())


def simulate_block(payload: dict) -> tuple[int, int] | ReproError:
    """Run one Monte-Carlo trial block; returns ``(trials, failures)``.

    Payload: ``assembly_json``, ``service``, ``actuals``, ``trials``,
    ``seed``, ``budget``.  Trials were already charged against the
    caller's budget; the shipped budget carries every other limit and no
    trial cap.
    """
    from repro.dsl import load_assembly
    from repro.simulation.engine import MonteCarloSimulator

    def simulate(budget) -> tuple[int, int]:
        estimate = MonteCarloSimulator(
            load_assembly(payload["assembly_json"]),
            seed=payload["seed"], validate=False, budget=budget,
        ).estimate_pfail(
            payload["service"], payload["trials"], **payload["actuals"]
        )
        return estimate.trials, estimate.failures

    return _run_worker(payload, simulate)


def _run_worker(payload: dict, work):
    """Run ``work(budget)`` under the payload's budget; the result, or
    the typed error it raised, goes back with this scope's observations."""
    owned = _begin_worker_observation(payload)
    t0 = time.perf_counter()
    try:
        result = work(payload.get("budget"))
    except ReproError as exc:
        result = exc
    obs.observe("batch.entry.seconds", time.perf_counter() - t0)
    return _ship_worker_observation(result, owned)


def fuzz_block(payload: dict) -> list:
    """Run a block of fuzz cases; returns the list of ``FuzzCase`` records.

    Payload: ``cases`` (list of ``(index, mutation)`` pairs — mutations
    are picklable documents), ``service``, ``actuals``, ``seed``,
    ``trials``, ``deadline`` (the per-case budget, not the fan-out's).
    Case classification already treats every outcome as data (ok /
    typed-error / violation), so no failure transport is needed here.
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
