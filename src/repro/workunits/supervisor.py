"""The campaign supervisor: dispatch, watch, retry, quarantine.

The supervisor turns the engine's fail-fast process pool into a
fault-tolerant campaign runner.  Its failure model is the BOINC/MapReduce
one — any worker may

- **crash** (SIGKILL, OOM): the pool breaks; every in-flight unit is
  charged a ``crashed`` attempt (attribution is impossible once the pool
  is dead), the pool is rebuilt and the survivors retry — so a *poison
  unit* that kills its host every time accumulates attempts fastest and
  ends in quarantine instead of an infinite crash loop;
- **hang** (stuck solve, livelock): each unit carries a hard wall-clock
  timeout enforced *from the parent*: overdue units get their pool
  processes terminated (then killed), a ``timeout`` attempt charged, and
  innocent co-scheduled units are re-enqueued uncharged;
- **lie** (bit flips, truncated writes): payloads are shape-validated on
  receipt; implausible ones are charged a ``corrupt`` attempt.

A typed error raised by the unit itself (a spent deadline aside) is
final: the same inputs would raise it again, so the unit is quarantined
at once.  Retries back off exponentially (capped) with **deterministic
jitter** derived from the unit id — reproducible schedules, no
thundering herd.  After ``retries`` failed attempts a unit is
quarantined: recorded, reported, and never allowed to sink the campaign.

Every attempt is journaled through :class:`~repro.workunits.store.ResultStore`
before the supervisor acts on it, so a campaign killed at *any* point
resumes exactly where the journal ends.
"""

from __future__ import annotations

import hashlib
import heapq
import itertools
import json
import time
from collections.abc import Iterator
from concurrent.futures import FIRST_COMPLETED, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

from repro import observability as obs
from repro.engine.parallel import (
    _exit_with_parent,
    _stamp,
    unpack_worker_payload,
)
from repro.errors import EvaluationError, format_error_chain
from repro.runtime.budget import EvaluationBudget

from repro.workunits.store import ResultStore, StoreState
from repro.workunits.units import Campaign, WorkUnit
from repro.workunits.worker import execute_unit, validate_payload

__all__ = ["CampaignReport", "Supervisor", "backoff_delay"]

#: Default retry envelope: 1 + RETRIES attempts per unit.
DEFAULT_RETRIES = 2
#: Retry backoff envelope in seconds (see :func:`backoff_delay`).
BACKOFF_BASE = 0.05
BACKOFF_CAP = 5.0


def backoff_delay(
    unit_id: str,
    attempt: int,
    base: float = BACKOFF_BASE,
    cap: float = BACKOFF_CAP,
) -> float:
    """Capped exponential backoff with deterministic jitter.

    ``min(cap, base * 2^(attempt-1))`` stretched by up to +50%, where the
    jitter is a hash of ``(unit id, attempt)`` — so retry schedules are
    reproducible run-to-run yet decorrelated unit-to-unit.
    """
    if base <= 0.0:
        return 0.0
    delay = min(cap, base * (2.0 ** (attempt - 1)))
    digest = hashlib.sha256(f"{unit_id}:{attempt}".encode("ascii")).hexdigest()
    jitter = int(digest[:8], 16) / 0xFFFFFFFF
    return delay * (1.0 + 0.5 * jitter)


@dataclass
class CampaignReport:
    """What happened to a campaign run (fresh or resumed)."""

    campaign: Campaign
    results: dict[str, object] = field(default_factory=dict)
    quarantined: dict[str, str] = field(default_factory=dict)
    executed: set[str] = field(default_factory=set)
    resumed: int = 0
    attempts: int = 0
    pool_restarts: int = 0
    validations: int = 0
    mismatches: dict[str, str] = field(default_factory=dict)
    elapsed: float = 0.0

    @property
    def complete(self) -> bool:
        """True when every unit is accounted for (done or quarantined)."""
        return len(self.results) + len(self.quarantined) == len(self.campaign)

    @property
    def ok(self) -> bool:
        """True when every unit completed and every validation matched."""
        return self.complete and not self.quarantined and not self.mismatches

    def payload_for(self, unit: WorkUnit):
        """The unit's result payload, or ``None`` if quarantined."""
        return self.results.get(unit.unit_id)

    def summary(self) -> str:
        """Human-readable campaign outcome (printed to stderr by the CLI)."""
        total = len(self.campaign)
        lines = [
            f"campaign {self.campaign.kind} "
            f"{self.campaign.campaign_id[:12]}: "
            f"{len(self.results)}/{total} units done "
            f"({self.resumed} resumed, {len(self.executed)} executed), "
            f"{len(self.quarantined)} quarantined",
            f"  attempts this run: {self.attempts}, "
            f"pool restarts: {self.pool_restarts}, "
            f"validations: {self.validations} "
            f"({len(self.mismatches)} mismatched), "
            f"elapsed: {self.elapsed:.1f}s",
        ]
        for unit_id, error in sorted(self.quarantined.items()):
            lines.append(f"  QUARANTINED {unit_id[:12]}: {error:.120}")
        for unit_id, error in sorted(self.mismatches.items()):
            lines.append(f"  MISMATCH {unit_id[:12]}: {error:.120}")
        return "\n".join(lines)


@dataclass
class _Flight:
    """Book-keeping for one dispatched attempt."""

    unit: WorkUnit
    attempt: int
    overdue_at: float | None  # monotonic deadline, None = no timeout


class _Outcome(NamedTuple):
    """One attempt's classified result."""

    status: str  # done / failed / timeout / crashed / corrupt
    payload: object = None
    error: str = ""
    elapsed: float = 0.0
    final: bool = False  # a typed failure a retry would only repeat


@dataclass
class _Run:
    """One run's books: the journal, its replayed state, the report and
    the ready heap of ``(not_before, seq, unit)``."""

    state: StoreState
    store: ResultStore
    report: CampaignReport
    ready: list = field(default_factory=list)
    seq: Iterator[int] = field(default_factory=itertools.count)

    def enqueue(self, unit: WorkUnit, not_before: float = 0.0) -> None:
        heapq.heappush(self.ready, (not_before, next(self.seq), unit))


class Supervisor:
    """Run a :class:`~repro.workunits.units.Campaign` to completion.

    Args:
        campaign: the sharded campaign to run.
        jobs: worker processes (``resolve_jobs`` semantics: 0 = all cores).
        unit_timeout: hard per-attempt wall-clock seconds (``None`` = no
            timeout; hung workers then run until the budget or forever).
        retries: failed attempts a unit may retry before quarantine
            (``max attempts = retries + 1``).
        validate_redundancy: when >= 2, every ``N``-th completed unit
            (deterministically sampled by id) is re-executed once and the
            payloads compared — a cheap nondeterminism tripwire.
        budget: optional campaign-wide :class:`EvaluationBudget`; every
            unit runs under :meth:`EvaluationBudget.for_worker` of it (its
            remaining time, capped by ``unit_timeout``, and its state,
            depth and sweep limits), and the supervisor load-sheds (typed
            error) when it expires.
        chaos: optional :class:`~repro.robustness.chaos.ChaosPolicy`
            shipped to workers — fault injection for tests and CI.
    """

    def __init__(
        self,
        campaign: Campaign,
        *,
        jobs: int = 1,
        unit_timeout: float | None = None,
        retries: int = DEFAULT_RETRIES,
        validate_redundancy: int = 0,
        budget: EvaluationBudget | None = None,
        chaos=None,
    ):
        from repro.engine.parallel import resolve_jobs

        if retries < 0:
            raise EvaluationError(f"retries must be >= 0, got {retries}")
        if unit_timeout is not None and unit_timeout <= 0:
            raise EvaluationError(
                f"unit timeout must be positive, got {unit_timeout}"
            )
        self.campaign = campaign
        self.jobs = max(1, resolve_jobs(jobs))
        self.unit_timeout = unit_timeout
        self.max_attempts = retries + 1
        self.validate_redundancy = int(validate_redundancy)
        self.budget = budget
        self.chaos = chaos

    # -- entry point -------------------------------------------------------

    def run(self, store_path: str | Path | None = None) -> CampaignReport:
        """Execute the campaign, journaling to ``store_path`` (if given).

        An existing journal for the *same* campaign is resumed: done units
        are skipped (their recorded payloads reused bit-for-bit),
        quarantined units stay quarantined with their journaled error, and
        interrupted units keep their attempt counts.  Returns a
        :class:`CampaignReport`.
        """
        started = time.monotonic()
        report = CampaignReport(self.campaign)
        with obs.span(
            "workunits.campaign",
            kind=self.campaign.kind,
            units=len(self.campaign),
            jobs=self.jobs,
        ) as sp:
            store, state = ResultStore.for_campaign(store_path, self.campaign)
            try:
                run = _Run(state, store, report)
                self._absorb_state(run)
                if run.ready:
                    self._run_pool(run)
                self._validate(run)
            finally:
                store.close()
            sp.set_tag(
                done=len(report.results),
                quarantined=len(report.quarantined),
                restarts=report.pool_restarts,
            )
        report.elapsed = time.monotonic() - started
        return report

    # -- resume ------------------------------------------------------------

    def _absorb_state(self, run: _Run) -> None:
        """Fold the replayed journal into the report; enqueue work left."""
        state, report = run.state, run.report
        for unit in self.campaign.units:
            if unit.unit_id in state.results:
                report.results[unit.unit_id] = state.results[unit.unit_id]
                report.resumed += 1
                obs.count("workunits.resume.skipped")
            elif unit.unit_id in state.quarantined:
                report.quarantined[unit.unit_id] = state.quarantined[unit.unit_id]
            else:
                run.enqueue(unit)

    # -- attempt bookkeeping -----------------------------------------------

    def _dispatch_payload(self, unit: WorkUnit, attempt: int, chaos) -> dict:
        """What :func:`execute_unit` gets for one attempt at ``unit``: its
        budget is the campaign budget's remaining deadline capped by the
        unit timeout, and its other limits."""
        campaign = self.budget if self.budget is not None else EvaluationBudget()
        return _stamp(
            {"unit": unit.to_dict(), "attempt": attempt, "chaos": chaos},
            campaign.for_worker(self.unit_timeout),
        )

    def _settle(self, run: _Run, flight: _Flight, outcome: _Outcome) -> None:
        """Journal an attempt, then keep its payload, quarantine the unit,
        or requeue it after its backoff."""
        unit_id = flight.unit.unit_id
        done = outcome.status == "done"
        run.store.record_attempt(
            unit_id, flight.attempt, outcome.status, elapsed=outcome.elapsed,
            result=outcome.payload, error=None if done else outcome.error,
        )
        obs.observe("workunits.attempt.seconds", outcome.elapsed)
        run.report.attempts += 1
        if done:
            run.report.results[unit_id] = outcome.payload
            run.report.executed.add(unit_id)
            return
        run.state.attempts[unit_id] = flight.attempt
        if outcome.final or flight.attempt >= self.max_attempts:
            run.store.record_quarantine(unit_id, flight.attempt, outcome.error)
            run.report.quarantined[unit_id] = outcome.error
            return
        delay = backoff_delay(unit_id, flight.attempt)
        obs.count("workunits.retry")
        obs.observe("workunits.backoff.seconds", delay)
        run.enqueue(flight.unit, time.monotonic() + delay)

    def _classify(self, unit: WorkUnit, raw) -> _Outcome:
        """Turn a worker return value into an :class:`_Outcome`."""
        outcome = unpack_worker_payload(raw)
        if not isinstance(outcome, dict) or "status" not in outcome:
            return _Outcome(
                "corrupt", error=f"malformed worker outcome {outcome!r:.80}"
            )
        elapsed = float(outcome.get("elapsed", 0.0) or 0.0)
        status = outcome["status"]
        if status == "failed":
            return _Outcome(
                "failed", error=str(outcome.get("error", "unknown")),
                elapsed=elapsed, final=bool(outcome.get("final")),
            )
        if status != "done":
            error = f"unknown outcome status {status!r}"
        elif (problem := validate_payload(unit.to_dict(), outcome.get("payload"))):
            error = f"implausible payload: {problem}"
        else:
            return _Outcome("done", outcome["payload"], elapsed=elapsed)
        return _Outcome("corrupt", error=error, elapsed=elapsed)

    # -- the scheduler -----------------------------------------------------

    def _run_pool(self, run: _Run) -> None:
        """Dispatch ``run.ready`` to a sacrificial pool until every unit is
        done or quarantined."""
        executor = self._make_pool()
        inflight: dict = {}  # future -> _Flight
        try:
            while run.ready or inflight:
                if self.budget is not None:
                    self.budget.check_deadline("work-unit campaign")
                now = time.monotonic()
                # dispatch up to `jobs` units so submission ~= start and
                # the per-unit timeout measures actual runtime
                while (
                    run.ready and len(inflight) < self.jobs
                    and run.ready[0][0] <= now
                ):
                    _, _, unit = heapq.heappop(run.ready)
                    attempt = run.state.attempts.get(unit.unit_id, 0) + 1
                    future = executor.submit(
                        execute_unit,
                        self._dispatch_payload(unit, attempt, self.chaos),
                    )
                    inflight[future] = _Flight(unit, attempt, (
                        now + self.unit_timeout if self.unit_timeout else None
                    ))
                    obs.count("workunits.dispatched")
                obs.gauge("workunits.pending", len(run.ready) + len(inflight))
                if not inflight:
                    # nothing running: sleep until the next retry matures
                    time.sleep(max(0.0, run.ready[0][0] - time.monotonic()))
                    continue
                broken = False
                for future in self._await_some(run.ready, inflight):
                    flight = inflight.pop(future)
                    try:
                        outcome = self._classify(flight.unit, future.result())
                    except BrokenProcessPool:
                        # the pool died; this future carried no result —
                        # keep harvesting the ones that finished before the
                        # break, then charge whatever is left in flight
                        inflight[future] = flight
                        broken = True
                        continue
                    except Exception as exc:  # worker bug surfaced via pickle
                        outcome = _Outcome("failed", error=format_error_chain(exc))
                    self._settle(run, flight, outcome)
                now = time.monotonic()
                charged = dict.fromkeys(inflight, "crashed") if broken else {
                    future: "timeout" for future, flight in inflight.items()
                    if flight.overdue_at is not None and now >= flight.overdue_at
                }
                if charged:
                    executor = self._restart_pool(run, executor, inflight, charged)
        finally:
            self._destroy_pool(executor)
        obs.gauge("workunits.pending", 0)

    def _make_pool(self):
        """A sacrificial process pool — even ``jobs=1`` gets one, because
        isolation (not parallelism) is what the supervisor needs.  Its
        workers end with this process, however it ends."""
        from concurrent.futures import ProcessPoolExecutor

        return ProcessPoolExecutor(
            max_workers=self.jobs, initializer=_exit_with_parent
        )

    def _await_some(self, ready, inflight):
        """Block until a future resolves, a timeout nears, or a retry matures."""
        now = time.monotonic()
        horizon = 0.5
        if ready:
            horizon = min(horizon, max(0.0, ready[0][0] - now))
        for flight in inflight.values():
            if flight.overdue_at is not None:
                horizon = min(horizon, max(0.0, flight.overdue_at - now))
        done, _ = wait(
            list(inflight), timeout=max(horizon, 0.01),
            return_when=FIRST_COMPLETED,
        )
        return done

    def _restart_pool(self, run: _Run, executor, inflight: dict, charged: dict):
        """Kill the pool, charge each ``charged`` flight its status and
        requeue the other flights uncharged; return a fresh pool.

        ``crashed``: the pool broke and attribution is impossible, so every
        flight is charged.  ``timeout``: the overdue flights are charged;
        innocents that were merely co-resident in the killed pool lose
        their work but not their retry budget.
        """
        self._destroy_pool(executor)
        if "crashed" in charged.values():
            obs.count("engine.worker_crashes")
        charges = {
            "crashed": _Outcome("crashed", error=(
                "worker process died unexpectedly (SIGKILL/OOM or native "
                "crash); attribution impossible, all in-flight units charged"
            )),
            "timeout": _Outcome("timeout", error=(
                f"hard per-unit timeout of {self.unit_timeout}s exceeded "
                f"(worker killed)"
            ), elapsed=self.unit_timeout or 0.0),
        }
        for future, flight in inflight.items():
            if future in charged:
                self._settle(run, flight, charges[charged[future]])
            else:
                run.enqueue(flight.unit, time.monotonic())
        inflight.clear()
        run.report.pool_restarts += 1
        obs.count("workunits.pool_restarts")
        return self._make_pool()

    @staticmethod
    def _destroy_pool(executor) -> None:
        """Hard-stop a process pool: terminate, then kill stragglers."""
        processes = list(getattr(executor, "_processes", {}).values())
        for process in processes:
            process.terminate()
        deadline = time.monotonic() + 2.0
        for process in processes:
            process.join(max(0.0, deadline - time.monotonic()))
        for process in processes:
            if process.is_alive():
                process.kill()
                process.join(1.0)
        try:
            executor.shutdown(wait=False, cancel_futures=True)
        except Exception:  # pragma: no cover - best-effort teardown
            pass

    # -- redundant validation ----------------------------------------------

    def _validate(self, run: _Run) -> None:
        """Re-execute a deterministic sample of this run's completed units.

        Only units *executed in this run* are sampled — resuming an
        already-complete store therefore schedules nothing, keeping
        resume a strict no-op (property-tested).  Validation runs in this
        process, without chaos, under the campaign budget.
        """
        if self.validate_redundancy < 2:
            return
        store, report = run.store, run.report
        for unit in self.campaign.units:
            if unit.unit_id not in report.executed:
                continue
            if int(unit.unit_id[:8], 16) % self.validate_redundancy != 0:
                continue
            check = self._classify(unit, execute_unit(
                self._dispatch_payload(unit, self.max_attempts + 1, chaos=None)
            ))
            report.validations += 1
            if check.status != "done":
                report.mismatches[unit.unit_id] = (
                    f"redundant execution failed: {check.error}"
                )
                store.record_validation(unit.unit_id, False, error=check.error)
                continue
            original = json.dumps(report.results[unit.unit_id], sort_keys=True)
            if original == json.dumps(check.payload, sort_keys=True):
                store.record_validation(unit.unit_id, True)
            else:
                detail = "redundant execution produced a different payload"
                report.mismatches[unit.unit_id] = detail
                store.record_validation(unit.unit_id, False, error=detail)
