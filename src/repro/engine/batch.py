"""The batch-evaluation engine: many models × many points, one pass.

The paper frames reliability prediction as the inner loop of *runtime
service selection* (§5): a broker holds many candidate assemblies and must
rank them all, fast, under a deadline.  :class:`BatchEngine` is that loop's
engine room:

1. every distinct ``(model, service)`` target is compiled **once** into a
   reusable :class:`~repro.engine.plan.EvaluationPlan` through the
   :class:`~repro.engine.cache.PlanCache` (same fingerprint ⇒ zero
   re-derivations, warm across requests);
2. the evaluation points fan out across a ``concurrent.futures`` pool
   (:mod:`repro.engine.parallel`), with the parent's
   :class:`~repro.runtime.EvaluationBudget` enforced cooperatively — the
   remaining deadline travels with every chunk;
3. failures stay **per-point**: a bad point yields a typed error *entry*
   in the :class:`BatchResult` while the rest of the batch completes —
   the graceful-degradation contract of the runtime layer, extended to
   batches.

Typical use::

    engine = BatchEngine(jobs=4)
    result = engine.evaluate(assembly, "search", points)   # one model
    result = engine.run([BatchRequest(a1, "s"), ...])      # many models

The per-run :class:`BatchStats` (plan compilations, cache hits, wall
clock, worker count) are the numbers ``BENCH_engine.json`` publishes.
"""

from __future__ import annotations

import time
from collections.abc import Mapping, Sequence
from concurrent.futures import FIRST_COMPLETED, wait
from dataclasses import dataclass, field

from repro import observability as obs
from repro.engine.cache import PlanCache
from repro.engine.parallel import (
    WorkerFailure,
    broken_pool_error,
    charge_fused,
    evaluate_plan_points,
    make_executor,
    rebuild_error,
    remaining_deadline,
    resolve_jobs,
    split_evenly,
    unpack_worker_payload,
)
from repro.engine.plan import EvaluationPlan, compile_plan, compilation_count
from repro.errors import EvaluationError, ReproError
from repro.model.assembly import Assembly
from repro.model.service import Service
from repro.runtime.budget import EvaluationBudget

__all__ = ["BatchEngine", "BatchEntry", "BatchRequest", "BatchResult", "BatchStats"]


@dataclass(frozen=True)
class BatchRequest:
    """One evaluation request: a model, a target service, one point.

    Attributes:
        assembly: the assembly to evaluate (parent-side object; workers
            receive compiled plans, never the assembly itself).
        service: the target service name.
        actuals: the actual parameters for this point.
        label: optional caller tag carried through to the result entry
            (e.g. a candidate id in a selection loop).
    """

    assembly: Assembly
    service: str
    actuals: Mapping[str, float] = field(default_factory=dict)
    label: str = ""


@dataclass
class BatchEntry:
    """Outcome of one request: a prediction or a typed error, never both.

    Attributes:
        index: position in the submitted batch (results keep order).
        label: the request's caller tag.
        service: evaluated service name.
        actuals: the point evaluated.
        pfail: predicted unreliability, or ``None`` on failure.
        backend: ``"symbolic"``/``"robust"`` plan backend that served it.
        error: the typed error for failed entries, or ``None``.
    """

    index: int
    label: str
    service: str
    actuals: dict[str, float]
    pfail: float | None = None
    backend: str = ""
    error: ReproError | None = None

    @property
    def ok(self) -> bool:
        """True when a prediction was produced."""
        return self.error is None

    @property
    def reliability(self) -> float | None:
        """``1 - pfail`` for successful entries."""
        return None if self.pfail is None else 1.0 - self.pfail


@dataclass
class BatchStats:
    """Accounting of one batch run (the ``BENCH_engine.json`` payload).

    Attributes:
        entries: number of points evaluated.
        plans: distinct (model, service) targets in the batch.
        compilations: plan compilations this run actually performed —
            with a warm cache this is 0 regardless of batch size.
        cache_hits / cache_misses: cache traffic attributable to this run.
        jobs: worker count used.
        fused_entries: entries served by stacked (fused) kernel calls
            instead of per-point dispatch.
        elapsed: wall-clock seconds for the whole batch.
    """

    entries: int = 0
    plans: int = 0
    compilations: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    jobs: int = 1
    fused_entries: int = 0
    elapsed: float = 0.0

    def snapshot(self) -> dict[str, float]:
        """Plain-dict copy for JSON reporters."""
        return {
            "entries": self.entries,
            "plans": self.plans,
            "compilations": self.compilations,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "jobs": self.jobs,
            "fused_entries": self.fused_entries,
            "elapsed": self.elapsed,
        }


class BatchResult:
    """Ordered outcomes of a batch run plus its accounting."""

    def __init__(self, entries: list[BatchEntry], stats: BatchStats):
        self.entries = entries
        self.stats = stats

    @property
    def ok(self) -> bool:
        """True when every entry produced a prediction."""
        return all(entry.ok for entry in self.entries)

    @property
    def failures(self) -> list[BatchEntry]:
        """Entries that ended in a typed error."""
        return [entry for entry in self.entries if not entry.ok]

    def pfails(self) -> list[float | None]:
        """Predictions in submission order (``None`` for failed entries)."""
        return [entry.pfail for entry in self.entries]

    def best(self) -> BatchEntry | None:
        """The most reliable successful entry (selection-loop helper)."""
        candidates = [entry for entry in self.entries if entry.ok]
        if not candidates:
            return None
        return min(candidates, key=lambda entry: entry.pfail)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)


class BatchEngine:
    """Parallel batch evaluation over cached plans.

    Args:
        jobs: worker count — 1 (default) runs serially in-process, 0 means
            one worker per CPU core, ``N > 1`` fans out across ``N``
            workers (see ``mode``).
        mode: ``"process"`` (default; true CPU parallelism — plans are
            pickled to workers), ``"thread"`` (cheaper startup, suits the
            numpy-vectorized symbolic backend), or ``"serial"``.
        cache: a :class:`~repro.engine.cache.PlanCache` to reuse plans
            across runs, ``None`` for a private per-engine cache, or
            ``False`` to disable caching (every point recompiles — the
            cold baseline the benchmarks measure against).
        budget: optional shared :class:`~repro.runtime.EvaluationBudget`;
            the deadline is enforced in the parent at dispatch/collection
            and cooperatively inside every worker.
        compile: evaluate symbolic plans through compiled numpy kernels
            (default); ``False`` forces the recursive tree walk (the
            ``--no-compile`` escape hatch).
        solver: linear-solver backend threaded into every compiled plan
            (``"auto"``, ``"dense"`` or ``"sparse"``; see
            :mod:`repro.markov.solvers`).
        incremental: route robust plans' numeric solves through low-rank
            factorization updates (:mod:`repro.markov.updates`) when
            consecutive entries share chain structure.
        fused: serve each same-fingerprint symbolic group through **one**
            stacked kernel call in the parent (no per-point Python
            dispatch, no pool), and move multi-entry robust groups of a
            process pool onto the shared-memory transport
            (:mod:`repro.engine.shm`) so workers stop pickling model
            documents and per-entry results.  Default on; ``False``
            restores the pure per-point paths (the ``--no-fused`` escape
            hatch).
    """

    def __init__(
        self,
        jobs: int | None = 1,
        mode: str = "process",
        cache: PlanCache | None | bool = None,
        budget: EvaluationBudget | None = None,
        compile: bool = True,
        solver: str = "auto",
        incremental: bool = False,
        fused: bool = True,
    ):
        from repro.markov.solvers import validate_solver

        self.jobs = resolve_jobs(jobs)
        self.solver = validate_solver(solver)
        self.incremental = bool(incremental)
        if mode not in ("process", "thread", "serial"):
            raise EvaluationError(f"unknown executor mode {mode!r}")
        self.mode = mode
        if cache is False:
            self.cache = None
        elif cache is None or cache is True:
            self.cache = PlanCache()
        else:
            self.cache = cache
        self.budget = budget
        self.compile = bool(compile)
        self.fused = bool(fused)

    # -- public API --------------------------------------------------------

    def evaluate(
        self,
        assembly: Assembly,
        service: str | Service,
        points: Sequence[Mapping[str, float]],
        labels: Sequence[str] | None = None,
    ) -> BatchResult:
        """Evaluate one model at many actual-parameter points."""
        name = service.name if isinstance(service, Service) else str(service)
        if labels is not None and len(labels) != len(points):
            raise EvaluationError(
                f"got {len(labels)} labels for {len(points)} points"
            )
        requests = [
            BatchRequest(
                assembly, name, dict(point),
                label=labels[i] if labels is not None else "",
            )
            for i, point in enumerate(points)
        ]
        return self.run(requests)

    def run(self, requests: Sequence[BatchRequest]) -> BatchResult:
        """Evaluate a heterogeneous batch (many models, many points)."""
        started = time.monotonic()
        if self.budget is not None:
            self.budget.start()
        compilations_before = compilation_count()
        hits_before = self.cache.stats.hits if self.cache else 0
        misses_before = self.cache.stats.misses if self.cache else 0

        serial = self.jobs <= 1 or self.mode == "serial" or len(requests) <= 1
        obs.gauge("batch.jobs", 1 if serial else self.jobs)
        fused_entries = 0
        with obs.span(
            "batch.run", entries=len(requests), mode=self.mode
        ) as run_span:
            groups = self._compile_groups(requests)
            entries = [
                BatchEntry(i, r.label, r.service, dict(r.actuals))
                for i, r in enumerate(requests)
            ]
            remaining = groups
            if self.fused:
                remaining, fused_entries = self._run_fused(groups, entries)
            if remaining:
                left = sum(len(ix) for _, ix in remaining.values())
                if serial or left <= 1:
                    self._run_serial(remaining, entries)
                else:
                    self._run_parallel(remaining, entries)
            run_span.set_tag(
                plans=len(groups),
                fused=fused_entries,
                failures=sum(1 for e in entries if not e.ok),
            )

        stats = BatchStats(
            entries=len(entries),
            plans=len(groups),
            compilations=compilation_count() - compilations_before,
            cache_hits=(self.cache.stats.hits - hits_before) if self.cache else 0,
            cache_misses=(
                (self.cache.stats.misses - misses_before) if self.cache else 0
            ),
            jobs=self.jobs,
            fused_entries=fused_entries,
            elapsed=time.monotonic() - started,
        )
        return BatchResult(entries, stats)

    # -- internals ---------------------------------------------------------

    def _plan_for(self, assembly: Assembly, service: str) -> EvaluationPlan:
        if self.cache is not None:
            return self.cache.get_or_compile(
                assembly, service, budget=self.budget, solver=self.solver,
                incremental=self.incremental,
            )
        return compile_plan(
            assembly, service, budget=self.budget, solver=self.solver,
            incremental=self.incremental,
        )

    def _compile_groups(
        self, requests: Sequence[BatchRequest]
    ) -> dict[str, tuple[EvaluationPlan, list[int]]]:
        """Compile each distinct target once; group request indices by plan.

        Plans or compilation *errors* are shared across a group: if a
        model cannot compile, every entry of that group reports the same
        typed error instead of the whole batch raising.
        """
        groups: dict[str, tuple[EvaluationPlan | ReproError, list[int]]] = {}
        by_identity: dict[tuple[int, str], str] = {}
        for index, request in enumerate(requests):
            ident = (id(request.assembly), request.service)
            fingerprint = by_identity.get(ident)
            if fingerprint is None:
                try:
                    plan = self._plan_for(request.assembly, request.service)
                    fingerprint = plan.fingerprint
                except ReproError as exc:
                    plan = exc
                    fingerprint = f"error:{index}"
                by_identity[ident] = fingerprint
                groups.setdefault(fingerprint, (plan, []))
            groups[fingerprint][1].append(index)
        return groups

    def _run_fused(self, groups, entries: list[BatchEntry]):
        """Serve multi-entry symbolic groups through one stacked kernel
        call each, in the parent process.

        Returns the groups the fused path cannot serve — robust plans,
        compilation errors, singletons — plus the fused entry count.  A
        group whose stacked call raises (one poisoned point fails the
        whole stack) is handed back untouched so the per-point paths keep
        their per-entry error isolation; those hand-backs are counted as
        ``engine.fused.fallbacks``.
        """
        remaining: dict = {}
        fused_entries = 0
        for fingerprint, (plan, indices) in groups.items():
            if (
                isinstance(plan, ReproError)
                or plan.backend != "symbolic"
                or len(indices) <= 1
            ):
                remaining[fingerprint] = (plan, indices)
                continue
            t0 = time.perf_counter()
            try:
                if self.budget is not None:
                    self.budget.check_deadline("batch evaluation")
                stacked = plan.pfail_stack(
                    [entries[i].actuals for i in indices],
                    budget=self.budget,
                    use_kernel=self.compile,
                )
            except ReproError:
                charge_fused(fallbacks=1)
                remaining[fingerprint] = (plan, indices)
                continue
            elapsed = time.perf_counter() - t0
            per_entry = elapsed / len(indices)
            for offset, index in enumerate(indices):
                entry = entries[index]
                entry.backend = plan.backend
                entry.pfail = float(stacked[offset])
                obs.observe("batch.entry.seconds", per_entry)
            charge_fused(groups=1, entries=len(indices))
            fused_entries += len(indices)
        return remaining, fused_entries

    def _run_serial(self, groups, entries: list[BatchEntry]) -> None:
        for plan, indices in groups.values():
            for index in indices:
                entry = entries[index]
                if isinstance(plan, ReproError):
                    entry.error = plan
                    continue
                entry.backend = plan.backend
                t0 = time.perf_counter()
                try:
                    if self.budget is not None:
                        self.budget.check_deadline("batch evaluation")
                    entry.pfail = plan.pfail(
                        entry.actuals, budget=self.budget, use_kernel=self.compile
                    )
                except ReproError as exc:
                    entry.error = exc
                obs.observe("batch.entry.seconds", time.perf_counter() - t0)

    def _use_shm(self, plan, indices) -> bool:
        """Whether a group should ride the shared-memory transport: heavy
        (robust) plans fanning real work across a process pool."""
        if not (
            self.fused
            and self.mode == "process"
            and not isinstance(plan, ReproError)
            and plan.backend == "robust"
            and len(indices) > 1
        ):
            return False
        from repro.engine import shm

        return shm.available()

    def _submit_shm(self, executor, futures, plan, indices, entries, workspaces):
        """Lay out one shared workspace for a robust group and fan its
        rows across the pool — workers read the model document and write
        result rows in place; nothing heavy is pickled."""
        from repro.engine import shm

        formals = plan.formals
        n, k = len(indices), max(1, len(formals))
        workspace = shm.ShmWorkspace.create(
            plan.assembly_json.encode("utf-8"),
            {
                "points": ((n, k), "float64"),
                "mask": ((n, k), "uint8"),
                "results": ((n,), "float64"),
                "status": ((n,), "uint8"),
            },
        )
        workspaces.append(workspace)
        points = workspace.array("points")
        mask = workspace.array("mask")
        for row, index in enumerate(indices):
            actuals = entries[index].actuals
            for column, name in enumerate(formals):
                if name in actuals:
                    points[row, column] = float(actuals[name])
                    mask[row, column] = 1
        shm._charge(rows=n)
        config = {
            "service": plan.service,
            "fingerprint": plan.fingerprint,
            "formals": list(formals),
            "solver": plan.solver,
            "incremental": plan.incremental,
        }
        spec = workspace.spec()
        for rows in split_evenly(list(range(n)), self.jobs):
            payload = {
                "spec": spec,
                "config": config,
                "start": rows[0],
                "stop": rows[-1] + 1,
                "deadline": remaining_deadline(self.budget),
                "observe": obs.enabled(),
                "dispatched_at": time.time(),
            }
            futures[executor.submit(shm.shm_plan_rows, payload)] = (
                "shm",
                plan,
                indices[rows[0]:rows[-1] + 1],
                workspace,
                rows[0],
            )

    def _run_parallel(self, groups, entries: list[BatchEntry]) -> None:
        from concurrent.futures.process import BrokenProcessPool

        executor = make_executor(self.jobs, self.mode)
        if executor is None:  # pragma: no cover - guarded by caller
            return self._run_serial(groups, entries)
        futures = {}
        workspaces: list = []
        try:
            with executor:
                for plan, indices in groups.values():
                    if isinstance(plan, ReproError):
                        for index in indices:
                            entries[index].error = plan
                        continue
                    if self._use_shm(plan, indices):
                        self._submit_shm(
                            executor, futures, plan, indices, entries, workspaces
                        )
                        continue
                    for chunk in split_evenly(indices, self.jobs):
                        payload = {
                            "plan": plan,
                            "points": [entries[i].actuals for i in chunk],
                            "deadline": remaining_deadline(self.budget),
                            "use_kernel": self.compile,
                            "observe": obs.enabled(),
                            "dispatched_at": time.time(),
                        }
                        futures[executor.submit(evaluate_plan_points, payload)] = (
                            "points",
                            plan,
                            chunk,
                        )
                pending = set(futures)
                try:
                    while pending:
                        done, pending = wait(pending, return_when=FIRST_COMPLETED)
                        if self.budget is not None:
                            self.budget.check_deadline("batch collection")
                        for future in done:
                            tag = futures[future]
                            if tag[0] == "shm":
                                _, plan, chunk, workspace, start = tag
                                failures = unpack_worker_payload(future.result())
                                results = workspace.array("results")
                                for offset, index in enumerate(chunk):
                                    entry = entries[index]
                                    entry.backend = plan.backend
                                    failure = failures.get(start + offset)
                                    if failure is not None:
                                        entry.error = rebuild_error(failure)
                                    else:
                                        entry.pfail = float(results[start + offset])
                                continue
                            _, plan, chunk = tag
                            outcomes = unpack_worker_payload(future.result())
                            for index, outcome in zip(chunk, outcomes):
                                entry = entries[index]
                                entry.backend = plan.backend
                                if isinstance(outcome, WorkerFailure):
                                    entry.error = rebuild_error(outcome)
                                else:
                                    entry.pfail = float(outcome)
                except BrokenProcessPool as exc:
                    affected = [
                        e.index for e in entries
                        if e.pfail is None and e.error is None
                    ]
                    raise broken_pool_error(
                        "batch evaluation", affected, exc
                    ) from exc
        finally:
            for future in futures:
                future.cancel()
            for workspace in workspaces:
                workspace.close()
