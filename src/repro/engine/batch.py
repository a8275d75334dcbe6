"""The batch-evaluation engine: many models × many points, one pass.

The paper frames reliability prediction as the inner loop of *runtime
service selection* (§5): a broker holds many candidate assemblies and must
rank them all, fast, under a deadline.  :class:`BatchEngine` is that loop's
engine room:

1. every distinct ``(model, service)`` target is compiled **once** into a
   reusable :class:`~repro.engine.plan.EvaluationPlan` through the
   :class:`~repro.engine.cache.PlanCache` (same fingerprint ⇒ zero
   re-derivations, warm across requests);
2. each multi-point symbolic group runs as one stacked kernel call in the
   parent; the remaining points fan out across a process pool
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
from dataclasses import dataclass, field

from repro import observability as obs
from repro.engine.cache import PlanCache
from repro.engine.parallel import (
    evaluate_plan_points,
    fan_out,
    resolve_jobs,
    split_evenly,
)
from repro.engine.plan import EvaluationPlan, compile_plan
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
        compilations: plans this run compiled — with a warm cache this
            is 0 regardless of batch size.  Counted by the run itself, so
            concurrent runs sharing a cache never charge each other.
        cache_hits / cache_misses: this run's own plan-cache lookups.
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
            one worker per CPU core, ``N > 1`` fans the groups the fused
            path does not serve across ``N`` worker processes.
        mode: ``"process"``, the only pool: true CPU parallelism, plans
            are pickled to workers (``jobs=1`` is the serial path).
        cache: a :class:`~repro.engine.cache.PlanCache` to reuse plans
            across runs, ``None`` for a private per-engine cache, or
            ``False`` to disable caching (every point recompiles — the
            cold baseline the benchmarks measure against).
        budget: optional shared :class:`~repro.runtime.EvaluationBudget`;
            the deadline is enforced in the parent at dispatch/collection
            and cooperatively inside every worker.

    Each same-fingerprint symbolic group of two or more entries is served
    through **one** stacked kernel call in the parent (no per-point Python
    dispatch, no pool).  Robust groups, singletons and compilation errors
    take the per-point path; in a process pool each plan's points travel
    to the workers as pickled chunks (:func:`~repro.engine.parallel.fan_out`),
    and a worker killed hard fails the batch with
    :class:`~repro.errors.WorkerCrashedError` naming the lost entries.
    The pool is the process-wide warm pool of ``jobs`` workers, shared by
    every engine and reused across :meth:`run` calls; its workers keep the
    plans they are sent, so a repeated batch pays for neither the pool
    start-up nor the plans' evaluators again.
    """

    def __init__(
        self,
        jobs: int | None = 1,
        mode: str = "process",
        cache: PlanCache | None | bool = None,
        budget: EvaluationBudget | None = None,
    ):
        self.jobs = resolve_jobs(jobs)
        if mode != "process":
            raise EvaluationError(f"unknown executor mode {mode!r}")
        if cache is False:
            self.cache = None
        elif cache is None or cache is True:
            self.cache = PlanCache()
        else:
            self.cache = cache
        self.budget = budget

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
        stats = BatchStats(entries=len(requests), jobs=self.jobs)

        serial = self.jobs <= 1 or len(requests) <= 1
        obs.gauge("batch.jobs", 1 if serial else self.jobs)
        with obs.span("batch.run", entries=len(requests)) as run_span:
            groups = self._compile_groups(requests, stats)
            entries = [
                BatchEntry(i, r.label, r.service, dict(r.actuals))
                for i, r in enumerate(requests)
            ]
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

        stats.plans = len(groups)
        stats.fused_entries = fused_entries
        stats.elapsed = time.monotonic() - started
        return BatchResult(entries, stats)

    # -- internals ---------------------------------------------------------

    def _plan_for(
        self, assembly: Assembly, service: str, stats: BatchStats
    ) -> EvaluationPlan:
        if self.cache is None:
            plan = compile_plan(assembly, service, budget=self.budget)
            stats.compilations += 1
            return plan
        try:
            plan, compiled = self.cache.lookup(
                assembly, service,
                symbolic_attributes=False, backend="auto", budget=self.budget,
            )
        except ReproError:
            stats.cache_misses += 1  # a failed compile missed the cache
            raise
        if compiled:
            stats.cache_misses += 1
            stats.compilations += 1
        else:
            stats.cache_hits += 1
        return plan

    def _compile_groups(
        self, requests: Sequence[BatchRequest], stats: BatchStats
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
                    plan = self._plan_for(
                        request.assembly, request.service, stats
                    )
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
                    [entries[i].actuals for i in indices], budget=self.budget
                )
            except ReproError:
                obs.count("engine.fused.fallbacks")
                remaining[fingerprint] = (plan, indices)
                continue
            elapsed = time.perf_counter() - t0
            per_entry = elapsed / len(indices)
            for offset, index in enumerate(indices):
                entry = entries[index]
                entry.backend = plan.backend
                entry.pfail = float(stacked[offset])
                obs.observe("batch.entry.seconds", per_entry)
            obs.count("engine.fused.groups")
            obs.count("engine.fused.entries", len(indices))
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
                    entry.pfail = plan.pfail(entry.actuals, budget=self.budget)
                except ReproError as exc:
                    entry.error = exc
                obs.observe("batch.entry.seconds", time.perf_counter() - t0)

    def _run_parallel(self, groups, entries: list[BatchEntry]) -> None:
        payloads, covers = [], []
        for plan, indices in groups.values():
            if isinstance(plan, ReproError):
                for index in indices:
                    entries[index].error = plan
                continue
            for chunk in split_evenly(indices, self.jobs):
                payloads.append({
                    "plan": plan,
                    "points": [entries[i].actuals for i in chunk],
                })
                covers.append(chunk)
        outcomes = fan_out(
            "batch evaluation", evaluate_plan_points, payloads, covers,
            jobs=self.jobs, budget=self.budget,
        )
        for payload, chunk, chunk_outcomes in zip(payloads, covers, outcomes):
            for index, outcome in zip(chunk, chunk_outcomes):
                entry = entries[index]
                entry.backend = payload["plan"].backend
                if isinstance(outcome, ReproError):
                    entry.error = outcome
                else:
                    entry.pfail = float(outcome)
