"""campaign-resume: a supervised sweep campaign, then ``--resume`` from a
journal cut in half.

Each timed operation is one *cycle*: a fresh ``sweep --method numeric
--jobs 2 --store`` campaign (CLI spawn to exit), then ``--resume`` from a
journal holding the header and the first half of the unit records -- what
a SIGKILL leaves, made deterministic.  It is the only workload that
exercises ``repro.workunits``: the supervisor's pool, the fsync'd journal
and the store replay.
"""

from __future__ import annotations

import json
import random
import re
import time

from cli_cold import sweep_rows_ok
from common import Outcome, median, ms, repro_cmd, run_program

POINTS = 80
SMOKE_POINTS = 16
JOBS = 2
STEP = 5.0


class Plan:
    """Seeded sweep arguments and the in-process reference values."""

    def __init__(self, ctx):
        from repro.analysis import sweep_parameter
        from repro.scenarios import local_assembly

        rng = random.Random(ctx.seed)
        points = SMOKE_POINTS if ctx.smoke else POINTS
        start = float(rng.randint(1, 5))
        self.fixed = {"elem": float(rng.randint(1, 4)),
                      "res": float(rng.randint(1, 2))}
        self.grid = [start + STEP * i for i in range(points)]
        self.assembly = local_assembly()
        self.reference = dict(zip(self.grid, map(float, sweep_parameter(
            self.assembly, "search", "list", self.grid, self.fixed,
            method="numeric").pfail)))
        self.folder = ctx.work / "campaign"
        self.folder.mkdir(exist_ok=True)
        self.model = self.folder / "local.json"

    def write_model(self) -> None:
        from repro.dsl import dump_assembly

        self.model.write_text(dump_assembly(self.assembly))

    def args(self, *extra) -> list[str]:
        return repro_cmd(
            "sweep", self.model, "search", "list",
            "--from", repr(self.grid[0]), "--to", repr(self.grid[-1]),
            "--points", len(self.grid), "--method", "numeric",
            "--jobs", JOBS, "--set",
            *(f"{k}={v!r}" for k, v in self.fixed.items()), *extra)


def _summary(err: str) -> dict:
    done = re.search(r"(\d+)/(\d+) units done \((\d+) resumed, (\d+) executed\)",
                     err)
    attempts = re.search(r"attempts this run: (\d+), pool restarts: (\d+)",
                         err)
    if not (done and attempts):
        return {}
    return {"units": int(done.group(2)), "resumed": int(done.group(3)),
            "executed": int(done.group(4)),
            "attempts": int(attempts.group(1)),
            "restarts": int(attempts.group(2))}


def cut_journal(store, half) -> int:
    """Write the header and the first half of the done-unit records of
    ``store`` to ``half``; returns the number of units kept."""
    lines = store.read_text().splitlines()
    header = [line for line in lines if json.loads(line)["kind"] == "campaign"]
    done = [line for line in lines
            if json.loads(line).get("status") == "done"]
    kept = done[:len(done) // 2]
    half.write_text("\n".join(header[:1] + kept) + "\n")
    return len(kept)


def cycle(plan: Plan, i: int, result: Outcome | None):
    """One campaign + resume; returns the two runs and the store paths."""
    store = plan.folder / f"store-{i}.jsonl"
    half = plan.folder / f"half-{i}.jsonl"
    store.unlink(missing_ok=True)  # an existing store would be resumed
    campaign = run_program(plan.args("--store", store))
    kept = cut_journal(store, half) if store.exists() else 0
    resume = run_program(plan.args("--resume", half))
    if result is not None:
        first, second = _summary(campaign.err), _summary(resume.err)
        result.check(campaign.code == 0 and sweep_rows_ok(
            campaign.out, plan.reference, {}),
            f"campaign {i}: exit {campaign.code} {campaign.err[-200:]}")
        result.check(
            resume.code == 0 and resume.out == campaign.out
            and second.get("resumed") == kept
            and second.get("executed") == first.get("units", 0) - kept,
            f"resume {i}: exit {resume.code}, stdout "
            f"{'identical' if resume.out == campaign.out else 'differs'}, "
            f"summary {second}")
    return campaign, resume, store, half


def _layers(plan, cycles, plain) -> dict:
    from repro.workunits.store import load_state

    campaign, resume, store, half = cycles[-1]
    first, second = _summary(campaign.err), _summary(resume.err)
    records = [json.loads(line) for line in store.read_text().splitlines()]
    busy = [r["elapsed"] for r in records if r["kind"] == "attempt"]
    replay = []
    for _ in range(5):
        started = time.perf_counter()
        load_state(half)
        replay.append(time.perf_counter() - started)
    campaign_s = median([c[0].seconds for c in cycles])
    return {
        "workunits.campaign_s": campaign_s,
        "workunits.resume_s": median([c[1].seconds for c in cycles]),
        "workunits.units_executed": first["executed"] + second["executed"],
        "workunits.units_resumed": second["resumed"],
        "workunits.attempts": first["attempts"] + second["attempts"],
        "workunits.pool_restarts": first["restarts"] + second["restarts"],
        "workunits.unit_busy_ms": ms(median(busy)),
        "workunits.dispatch_overhead_ms":
            ms((campaign.seconds * JOBS - sum(busy)) / first["units"]),
        "workunits.plain_sweep_s": median(plain),
        "workunits.overhead_ratio": campaign_s / median(plain),
        "workunits.store.replay_ms": ms(median(replay)),
        "workunits.journal_bytes": store.stat().st_size,
        "workunits.journal_records": len(records),
    }


def run(ctx) -> Outcome:
    result = Outcome()
    plan = Plan(ctx)

    def setup() -> float:
        """Write the model and give the campaign and the resume one
        untimed warm-up each, which also fills the bytecode cache."""
        started = time.perf_counter()
        plan.write_model()
        store, half = plan.folder / "warm.jsonl", plan.folder / "warm-half.jsonl"
        store.unlink(missing_ok=True)
        run_program(plan.args("--store", store), write_bytecode=True)
        cut_journal(store, half)
        run_program(plan.args("--resume", half), write_bytecode=True)
        return time.perf_counter() - started

    setups = [setup() for _ in range(ctx.setup_trials)]

    def measure(count=None):
        cycles = []
        deadline = time.perf_counter() + ctx.seconds
        while (len(cycles) < count if count else
               time.perf_counter() < deadline or len(cycles) < 2):
            cycles.append(cycle(plan, len(cycles), result))
        latency = ms(median([c.seconds + r.seconds for c, r, _, _ in cycles]))
        peak = max(max(c.rss_mb, r.rss_mb) for c, r, _, _ in cycles)
        return cycles, latency, peak

    if not ctx.trace:
        cycles, latency, peak = measure()
        result.notes.append(f"{len(cycles)} cycles")
        result.metrics = {"setup_s": median(setups),
                          "latency_p50_ms": latency, "peak_rss_mb": peak}
        return result

    count = 2 if ctx.smoke else 3
    _, plain_latency, plain_peak = measure(count)
    traced_setup = setup()
    cycles, latency, peak = measure(count)
    plain = []
    for _ in range(count):
        run = run_program(plan.args())
        result.check(run.code == 0 and sweep_rows_ok(run.out, plan.reference,
                                                     {}),
                     f"plain sweep: exit {run.code} {run.err[-200:]}")
        plain.append(run.seconds)
    result.metrics = _layers(plan, cycles, plain)
    result.metrics.update({
        "trace.overhead.setup_s": traced_setup - setups[0],
        "trace.overhead.latency_p50_ms": latency - plain_latency,
        "trace.overhead.peak_rss_mb": peak - plain_peak,
    })
    return result
