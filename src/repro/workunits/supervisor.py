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

Retries back off exponentially (capped) with **deterministic jitter**
derived from the unit id — reproducible schedules, no thundering herd.
After ``retries`` failed attempts a unit is quarantined: recorded,
reported, and never allowed to sink the campaign.

Every attempt is journaled through :class:`~repro.workunits.store.ResultStore`
before the supervisor acts on it, so a campaign killed at *any* point
resumes exactly where the journal ends.
"""

from __future__ import annotations

import hashlib
import heapq
import time
from concurrent.futures import FIRST_COMPLETED, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from pathlib import Path

from repro import observability as obs
from repro.engine.parallel import observe_token
from repro.errors import EvaluationError, format_error_chain
from repro.runtime.budget import EvaluationBudget

from repro.workunits.store import ResultStore, StoreState
from repro.workunits.units import Campaign, WorkUnit
from repro.workunits.worker import execute_unit, validate_payload

__all__ = ["CampaignReport", "Supervisor", "backoff_delay"]

#: Default retry envelope: 1 + RETRIES attempts per unit.
DEFAULT_RETRIES = 2
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
        budget: optional campaign-wide :class:`EvaluationBudget`; its
            remaining time caps every unit's cooperative deadline and the
            supervisor load-sheds (typed error) when it expires.
        chaos: optional :class:`~repro.robustness.chaos.ChaosPolicy`
            shipped to workers — fault injection for tests and CI.
        mode: ``"process"`` (sacrificial pool, the default) or
            ``"inline"`` (in-process sequential execution; refuses
            crash/hang chaos, enforces no hard timeouts — for doctests
            and unit tests only).
        backoff_base / backoff_cap: retry backoff envelope in seconds.
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
        mode: str = "process",
        backoff_base: float = BACKOFF_BASE,
        backoff_cap: float = BACKOFF_CAP,
    ):
        from repro.engine.parallel import resolve_jobs

        if mode not in ("process", "inline"):
            raise EvaluationError(f"unknown supervisor mode {mode!r}")
        if retries < 0:
            raise EvaluationError(f"retries must be >= 0, got {retries}")
        if unit_timeout is not None and unit_timeout <= 0:
            raise EvaluationError(
                f"unit timeout must be positive, got {unit_timeout}"
            )
        if mode == "inline" and chaos is not None and chaos.needs_isolation:
            raise EvaluationError(
                "crash/hang chaos requires process isolation "
                "(mode='inline' would kill or stall the supervisor itself)"
            )
        self.campaign = campaign
        self.jobs = max(1, resolve_jobs(jobs))
        self.unit_timeout = unit_timeout
        self.max_attempts = retries + 1
        self.validate_redundancy = int(validate_redundancy)
        self.budget = budget
        self.chaos = chaos
        self.mode = mode
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap

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
            mode=self.mode,
        ) as sp:
            store, state = ResultStore.for_campaign(store_path, self.campaign)
            try:
                pending = self._absorb_state(state, report)
                if pending:
                    if self.mode == "inline":
                        self._run_inline(pending, state, store, report)
                    else:
                        self._run_pool(pending, state, store, report)
                self._validate(store, report)
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

    def _absorb_state(
        self, state: StoreState, report: CampaignReport
    ) -> list[WorkUnit]:
        """Fold the replayed journal into the report; return work left."""
        pending: list[WorkUnit] = []
        for unit in self.campaign.units:
            if unit.unit_id in state.results:
                report.results[unit.unit_id] = state.results[unit.unit_id]
                report.resumed += 1
                obs.count("workunits.resume.skipped")
            elif unit.unit_id in state.quarantined:
                report.quarantined[unit.unit_id] = state.quarantined[unit.unit_id]
            else:
                pending.append(unit)
        return pending

    # -- shared attempt bookkeeping ---------------------------------------

    def _dispatch_payload(self, unit: WorkUnit, attempt: int) -> dict:
        deadline = self.unit_timeout
        if self.budget is not None:
            deadline = self.budget.sub_deadline(self.unit_timeout)
            self.budget.check_deadline("work-unit campaign")
        return {
            "unit": unit.to_dict(),
            "attempt": attempt,
            "deadline": deadline,
            "chaos": self.chaos,
            "observe": observe_token(),
            "dispatched_at": time.time(),
        }

    def _complete(
        self,
        unit: WorkUnit,
        attempt: int,
        payload,
        elapsed: float,
        store: ResultStore,
        report: CampaignReport,
    ) -> None:
        store.record_attempt(
            unit.unit_id, attempt, "done", elapsed=elapsed, result=payload
        )
        obs.observe("workunits.attempt.seconds", elapsed)
        report.results[unit.unit_id] = payload
        report.executed.add(unit.unit_id)
        report.attempts += 1

    def _fail(
        self,
        unit: WorkUnit,
        attempt: int,
        status: str,
        error: str,
        elapsed: float,
        store: ResultStore,
        report: CampaignReport,
        state: StoreState,
    ) -> float | None:
        """Journal a failed attempt; return the retry delay (None = quarantined)."""
        store.record_attempt(
            unit.unit_id, attempt, status, elapsed=elapsed, error=error
        )
        obs.observe("workunits.attempt.seconds", elapsed)
        state.attempts[unit.unit_id] = attempt
        report.attempts += 1
        if attempt >= self.max_attempts:
            store.record_quarantine(unit.unit_id, attempt, error)
            report.quarantined[unit.unit_id] = error
            return None
        delay = backoff_delay(
            unit.unit_id, attempt, self.backoff_base, self.backoff_cap
        )
        obs.count("workunits.retry")
        obs.observe("workunits.backoff.seconds", delay)
        return delay

    def _classify(self, unit: WorkUnit, raw) -> tuple[str, object, str, float]:
        """Turn a worker return value into ``(status, payload, error, elapsed)``."""
        from repro.engine.parallel import unpack_worker_payload

        outcome = unpack_worker_payload(raw)
        if not isinstance(outcome, dict) or "status" not in outcome:
            return "corrupt", None, f"malformed worker outcome {outcome!r:.80}", 0.0
        elapsed = float(outcome.get("elapsed", 0.0) or 0.0)
        if outcome["status"] == "done":
            payload = outcome.get("payload")
            problem = validate_payload(unit.to_dict(), payload)
            if problem is not None:
                return "corrupt", None, f"implausible payload: {problem}", elapsed
            return "done", payload, "", elapsed
        if outcome["status"] == "failed":
            return "failed", None, str(outcome.get("error", "unknown")), elapsed
        return (
            "corrupt", None,
            f"unknown outcome status {outcome.get('status')!r}", elapsed,
        )

    # -- inline execution (tests, doctests) --------------------------------

    def _run_inline(
        self,
        pending: list[WorkUnit],
        state: StoreState,
        store: ResultStore,
        report: CampaignReport,
    ) -> None:
        ready: list[tuple[float, int, WorkUnit]] = []
        seq = 0
        for unit in pending:
            heapq.heappush(ready, (0.0, seq, unit))
            seq += 1
        while ready:
            not_before, _, unit = heapq.heappop(ready)
            delay = not_before - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            attempt = state.attempts.get(unit.unit_id, 0) + 1
            obs.count("workunits.dispatched")
            obs.gauge("workunits.pending", len(ready) + 1)
            raw = execute_unit(self._dispatch_payload(unit, attempt))
            status, payload, error, elapsed = self._classify(unit, raw)
            if status == "done":
                self._complete(unit, attempt, payload, elapsed, store, report)
                continue
            retry_in = self._fail(
                unit, attempt, status, error, elapsed, store, report, state
            )
            if retry_in is not None:
                heapq.heappush(
                    ready, (time.monotonic() + retry_in, seq, unit)
                )
                seq += 1
        obs.gauge("workunits.pending", 0)

    # -- pooled execution --------------------------------------------------

    def _run_pool(
        self,
        pending: list[WorkUnit],
        state: StoreState,
        store: ResultStore,
        report: CampaignReport,
    ) -> None:
        ready: list[tuple[float, int, WorkUnit]] = []
        seq = 0
        for unit in pending:
            heapq.heappush(ready, (0.0, seq, unit))
            seq += 1
        executor = self._make_pool()
        inflight: dict = {}  # future -> _Flight
        try:
            while ready or inflight:
                if self.budget is not None:
                    self.budget.check_deadline("work-unit campaign")
                now = time.monotonic()
                # dispatch up to `jobs` units so submission ~= start and
                # the per-unit timeout measures actual runtime
                while (
                    ready and len(inflight) < self.jobs
                    and ready[0][0] <= now
                ):
                    _, _, unit = heapq.heappop(ready)
                    attempt = state.attempts.get(unit.unit_id, 0) + 1
                    future = executor.submit(
                        execute_unit, self._dispatch_payload(unit, attempt)
                    )
                    overdue_at = (
                        now + self.unit_timeout
                        if self.unit_timeout is not None else None
                    )
                    inflight[future] = _Flight(unit, attempt, overdue_at)
                    obs.count("workunits.dispatched")
                obs.gauge(
                    "workunits.pending", len(ready) + len(inflight)
                )
                if not inflight:
                    # nothing running: sleep until the next retry matures
                    time.sleep(max(0.0, ready[0][0] - time.monotonic()))
                    continue
                done = self._await_some(ready, inflight)
                broken = False
                for future in done:
                    flight = inflight.pop(future)
                    try:
                        raw = future.result()
                    except BrokenProcessPool:
                        # the pool died; this future carried no result —
                        # keep harvesting the ones that finished before the
                        # break, then charge whatever is left in flight
                        inflight[future] = flight
                        broken = True
                        continue
                    except Exception as exc:  # worker bug surfaced via pickle
                        retry_in = self._fail(
                            flight.unit, flight.attempt, "failed",
                            format_error_chain(exc), 0.0,
                            store, report, state,
                        )
                        if retry_in is not None:
                            heapq.heappush(
                                ready,
                                (time.monotonic() + retry_in, seq, flight.unit),
                            )
                            seq += 1
                        continue
                    status, payload, error, elapsed = self._classify(
                        flight.unit, raw
                    )
                    if status == "done":
                        self._complete(
                            flight.unit, flight.attempt, payload, elapsed,
                            store, report,
                        )
                        continue
                    retry_in = self._fail(
                        flight.unit, flight.attempt, status, error, elapsed,
                        store, report, state,
                    )
                    if retry_in is not None:
                        heapq.heappush(
                            ready,
                            (time.monotonic() + retry_in, seq, flight.unit),
                        )
                        seq += 1
                if broken:
                    seq = self._handle_broken_pool(
                        inflight, ready, seq, store, report, state
                    )
                    self._destroy_pool(executor)
                    executor = self._make_pool()
                    report.pool_restarts += 1
                    obs.count("workunits.pool_restarts")
                    continue
                seq, restarted = self._enforce_timeouts(
                    executor, inflight, ready, seq, store, report, state
                )
                if restarted:
                    executor = self._make_pool()
                    report.pool_restarts += 1
                    obs.count("workunits.pool_restarts")
        finally:
            self._destroy_pool(executor)
        obs.gauge("workunits.pending", 0)

    def _make_pool(self):
        """A sacrificial process pool — even ``jobs=1`` gets one, because
        isolation (not parallelism) is what the supervisor needs."""
        from concurrent.futures import ProcessPoolExecutor

        return ProcessPoolExecutor(max_workers=self.jobs)

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

    def _handle_broken_pool(
        self, inflight, ready, seq, store, report, state
    ) -> int:
        """Charge a ``crashed`` attempt to every unit the dead pool held."""
        obs.count("engine.worker_crashes")
        for future, flight in inflight.items():
            retry_in = self._fail(
                flight.unit, flight.attempt, "crashed",
                "worker process died unexpectedly (SIGKILL/OOM or native "
                "crash); attribution impossible, all in-flight units charged",
                0.0, store, report, state,
            )
            if retry_in is not None:
                heapq.heappush(
                    ready, (time.monotonic() + retry_in, seq, flight.unit)
                )
                seq += 1
        inflight.clear()
        return seq

    def _enforce_timeouts(
        self, executor, inflight, ready, seq, store, report, state
    ) -> tuple[int, bool]:
        """Kill the pool when any in-flight unit is past its hard deadline.

        Overdue units are charged a ``timeout`` attempt; innocents that
        were merely co-resident in the killed pool are re-enqueued with no
        attempt charged (their work is lost but not their retry budget).
        """
        now = time.monotonic()
        overdue = [
            (future, flight)
            for future, flight in inflight.items()
            if flight.overdue_at is not None and now >= flight.overdue_at
        ]
        if not overdue:
            return seq, False
        self._destroy_pool(executor)
        overdue_futures = {future for future, _ in overdue}
        for future, flight in list(inflight.items()):
            if future in overdue_futures:
                retry_in = self._fail(
                    flight.unit, flight.attempt, "timeout",
                    f"hard per-unit timeout of {self.unit_timeout}s exceeded "
                    f"(worker killed)",
                    self.unit_timeout or 0.0, store, report, state,
                )
                if retry_in is not None:
                    heapq.heappush(
                        ready, (time.monotonic() + retry_in, seq, flight.unit)
                    )
                    seq += 1
            else:
                heapq.heappush(ready, (time.monotonic(), seq, flight.unit))
                seq += 1
        inflight.clear()
        return seq, True

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

    def _validate(self, store: ResultStore, report: CampaignReport) -> None:
        """Re-execute a deterministic sample of this run's completed units.

        Only units *executed in this run* are sampled — resuming an
        already-complete store therefore schedules nothing, keeping
        resume a strict no-op (property-tested).  Validation runs inline,
        without chaos, under the campaign budget.
        """
        if self.validate_redundancy < 2:
            return
        for unit in self.campaign.units:
            if unit.unit_id not in report.executed:
                continue
            if int(unit.unit_id[:8], 16) % self.validate_redundancy != 0:
                continue
            payload = {
                "unit": unit.to_dict(),
                "attempt": self.max_attempts + 1,
                "deadline": (
                    self.budget.sub_deadline(self.unit_timeout)
                    if self.budget is not None else self.unit_timeout
                ),
                "chaos": None,
                "observe": False,
                "dispatched_at": time.time(),
            }
            status, check, error, _ = self._classify(unit, execute_unit(payload))
            report.validations += 1
            if status != "done":
                report.mismatches[unit.unit_id] = (
                    f"redundant execution failed: {error}"
                )
                store.record_validation(unit.unit_id, False, error=error)
                continue
            import json

            original = json.dumps(
                report.results[unit.unit_id], sort_keys=True
            )
            redundant = json.dumps(check, sort_keys=True)
            if original == redundant:
                store.record_validation(unit.unit_id, True)
            else:
                detail = "redundant execution produced a different payload"
                report.mismatches[unit.unit_id] = detail
                store.record_validation(unit.unit_id, False, error=detail)
