"""whatif-numeric: one long-lived process answering numeric what-if questions.

Each timed operation is one *round* of the runtime selection loop of the
paper's section 5, asked through public entry points:

1. ``finite_difference_attribute_sensitivity`` of a generated cyclic
   assembly to two provider attributes -- one provider is called by
   ``FEW_CALLERS`` states (the SMW low-rank update applies), the other by a
   quarter of the states (the rank guard falls back to re-factoring);
2. ``select_assembly`` over ``CANDIDATES`` structurally identical
   candidates;
3. ``BatchEngine(jobs=2, mode="process").evaluate`` of the mutual-recursion
   scenario at ``BATCH_POINTS`` points (robust chain, shared-memory pool).

The numeric evaluator, factorization, SMW updates and the process pool do
nearly all the work; import happens in set-up.  Run as a script, this file
is the worker process the workload measures.
"""

from __future__ import annotations

import json
import math
import random
import subprocess
import sys
import time
from pathlib import Path

from common import (
    HERE, Outcome, inherited_blas, median, ms, program_env, python_cmd, reap,
    spawn,
)
from layers import LayerTimer

STATES = 150           # flow states per generated model
SMOKE_STATES = 60
FEW_CALLERS = 3        # below the rank crossover max(4, sqrt(states))
MODELS = 4             # rounds cycle through this many seeded models
CANDIDATES = 3
BATCH_POINTS = 2
SENSITIVITY_REL = 1e-6  # SMW sensitivities vs incremental=False
ATTRIBUTES = ("p0::fp", "p1::fp")
ACTUALS = {"n": 1.0}


# -- parent side -----------------------------------------------------------------

def write_inputs(work: Path, seed: int, smoke: bool) -> Path:
    """The generated repro/1 files the worker reads."""
    from repro.dsl import dump_assembly
    from repro.scenarios import RecursiveParameters, recursive_assembly

    from inputs import ATTRIBUTE_FLOOR, cyclic_assembly

    rng = random.Random(seed)
    states = SMOKE_STATES if smoke else STATES
    folder = work / "whatif"
    folder.mkdir(exist_ok=True)
    calls = [FEW_CALLERS, states // 4]
    for k in range(MODELS):
        structure = rng.randrange(1 << 30)
        rates = [rng.uniform(2e-4, 2e-3) for _ in calls]
        (folder / f"model{k}.json").write_text(dump_assembly(cyclic_assembly(
            f"model{k}", states, calls, rates, structure)))
        for c in range(CANDIDATES):
            rates = [rng.uniform(ATTRIBUTE_FLOOR, 2e-3) for _ in calls]
            (folder / f"cand{k}_{c}.json").write_text(dump_assembly(
                cyclic_assembly(f"cand{k}_{c}", states, calls, rates,
                                structure)))
    # the recursion probability sets how long the fixed point takes to
    # converge, so it stays fixed: the seed must not change the work
    params = RecursiveParameters(
        internal_a=rng.uniform(ATTRIBUTE_FLOOR, 5e-3),
        internal_b=rng.uniform(ATTRIBUTE_FLOOR, 5e-3),
    )
    (folder / "recursive.json").write_text(
        dump_assembly(recursive_assembly(params)))
    sizes = rng.sample(range(1, 9), BATCH_POINTS)
    (folder / "points.json").write_text(json.dumps(sizes))
    return folder


def run(ctx) -> Outcome:
    result = Outcome()
    mode = "traced" if ctx.trace else "timed"

    def start_worker(mode: str, blas_default: bool = False):
        folder = write_inputs(ctx.work, ctx.seed, ctx.smoke)
        env = program_env(write_bytecode=True)
        if blas_default:
            env.update(inherited_blas())
        started = time.perf_counter()
        proc = spawn(python_cmd(str(HERE / "whatif.py"), str(folder), mode),
                     env=env,
                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        line = proc.stdout.readline()
        if line.strip() != "ready":
            raise RuntimeError(f"whatif worker did not start: {line!r}")
        return proc, time.perf_counter() - started

    def finish(proc, command: str):
        proc.stdin.write(command + "\n")
        proc.stdin.close()
        out = proc.stdout.read()
        rss = reap(proc)
        if proc.returncode != 0:
            raise RuntimeError(f"whatif worker exited {proc.returncode}")
        return json.loads(out.strip().splitlines()[-1]), rss

    workers = [start_worker(mode) for _ in range(ctx.setup_trials)]
    setups = [seconds for _, seconds in workers]
    if not ctx.trace:
        # each set-up worker runs an equal share of the window, so one
        # process's luck (hash seed, memory layout) does not set the figure
        rounds, points, peak = [], 0, 0.0
        for proc, _ in workers:
            report, rss = finish(proc, f"go {ctx.seconds / len(workers)}")
            rounds += report["rounds"]
            points += report["points"]
            peak = max(peak, rss)
            result.attempted += report["attempted"]
            result.failed += report["failed"]
            result.notes += report["notes"]
        result.notes.append(f"{len(rounds)} rounds, "
                            f"{points / sum(rounds):.1f} points/s")
        result.metrics = {
            "setup_s": median(setups),
            "latency_p50_ms": ms(median(rounds)),
            "peak_rss_mb": peak,
        }
        return result

    plain, plain_rss = finish(workers[0][0], "go")
    proc, traced_setup = start_worker("traced")
    traced, rss = finish(proc, "go-traced")
    # the same rounds with the BLAS threading the machine defaults to
    blas, _ = finish(start_worker("traced", blas_default=True)[0], "go")
    for report in (plain, traced, blas):
        result.attempted += report["attempted"]
        result.failed += report["failed"]
        result.notes += report["notes"]
    result.metrics = dict(traced["layers"])
    result.metrics.update({
        "whatif.round_blas_default_ms": ms(median(blas["rounds"])),
        "trace.overhead.setup_s": traced_setup - setups[0],
        "trace.overhead.latency_p50_ms":
            ms(median(traced["rounds"]) - median(plain["rounds"])),
        "trace.overhead.peak_rss_mb": rss - plain_rss,
    })
    return result


# -- worker side -------------------------------------------------------------------

class Worker:
    def __init__(self, folder: Path):
        from repro.dsl import load_assembly
        from repro.engine import BatchEngine, PlanCache

        def load(name):
            return load_assembly((folder / name).read_text())

        self.models = [load(f"model{k}.json") for k in range(MODELS)]
        self.candidates = [[load(f"cand{k}_{c}.json")
                            for c in range(CANDIDATES)] for k in range(MODELS)]
        self.recursive = load("recursive.json")
        self.points = [{"size": float(s)} for s in
                       json.loads((folder / "points.json").read_text())]
        self.engine = BatchEngine(jobs=2, mode="process", cache=PlanCache())
        self.answers: list[tuple] = []
        self.outcome = Outcome()

    def question_round(self, r: int, counters=None) -> int:
        """One round; returns the number of points evaluated."""
        from repro.analysis.selection import select_assembly
        from repro.core import sensitivity

        k = r % MODELS
        snap = counters.read() if counters else None
        derivatives = [
            sensitivity.finite_difference_attribute_sensitivity(
                self.models[k], "app", ACTUALS, attr)
            for attr in ATTRIBUTES
        ]
        ranking = select_assembly(
            range(CANDIDATES), lambda c: self.candidates[k][c], "app",
            ACTUALS)
        batch = self.engine.evaluate(self.recursive, "A", self.points)
        if counters:
            counters.add_since(snap)
        self.answers.append((k, derivatives,
                             {c.candidate: c.pfail for c in ranking},
                             batch.pfails()))
        return 2 * len(ATTRIBUTES) + CANDIDATES + len(self.points)

    def verify(self) -> dict:
        """Compare every answer given with the reference paths: the same
        probes with ``incremental=False`` (within ``SENSITIVITY_REL``), a
        fresh evaluation of each candidate, and the batch at ``jobs=1``
        (bitwise)."""
        from repro.core import ReliabilityEvaluator
        from repro.core.sensitivity import (
            finite_difference_attribute_sensitivity,
        )
        from repro.engine import BatchEngine, PlanCache

        timings = {"refactor": [], "jobs1": []}
        reference = {}
        for k in sorted({answer[0] for answer in self.answers}):
            derivatives = []
            for attr in ATTRIBUTES:
                started = time.perf_counter()
                derivatives.append(finite_difference_attribute_sensitivity(
                    self.models[k], "app", ACTUALS, attr, incremental=False))
                timings["refactor"].append(time.perf_counter() - started)
            pfails = {
                str(c): ReliabilityEvaluator(
                    self.candidates[k][c], incremental=False
                ).pfail("app", **ACTUALS)
                for c in range(CANDIDATES)
            }
            reference[k] = (derivatives, pfails)
        serial = BatchEngine(jobs=1, cache=PlanCache())
        for _ in range(3):
            started = time.perf_counter()
            want_batch = serial.evaluate(self.recursive, "A",
                                         self.points).pfails()
            timings["jobs1"].append(time.perf_counter() - started)
        check = self.outcome.check
        for r, (k, derivatives, pfails, batch) in enumerate(self.answers):
            want_d, want_p = reference[k]
            check(
                all(math.isclose(a, b, rel_tol=SENSITIVITY_REL)
                    for a, b in zip(derivatives, want_d)),
                f"round {r}: SMW sensitivities {derivatives} vs {want_d}")
            check(
                pfails.keys() == want_p.keys() and all(
                    math.isclose(pfails[c], want_p[c], rel_tol=1e-9)
                    for c in want_p),
                f"round {r}: selection {pfails} vs {want_p}")
            check(batch == want_batch,
                  f"round {r}: jobs=2 batch {batch} != jobs=1 {want_batch}")
        return timings


class Counters:
    """Exact counter deltas summed over the measured calls only."""

    def __init__(self):
        from repro.engine import fused_counts, shm_counts
        from repro.markov.solvers import factorization_count, plan_count
        from repro.markov.updates import update_counts

        self.read = lambda: {
            "markov.solver.plans": plan_count(),
            "markov.solver.factorizations": factorization_count(),
            **{f"markov.updates.{k}": v for k, v in update_counts().items()},
            **{f"engine.shm.{k}": v for k, v in shm_counts().items()},
            "engine.fused.entries": fused_counts()["entries"],
        }
        self.total = {key: 0 for key in self.read()}

    def add_since(self, snap: dict) -> None:
        for key, value in self.read().items():
            self.total[key] += value - snap[key]


def _layers(timer, counters, timings, rounds, points) -> dict:
    def med(metric):
        return ms(median(timer.durations[metric]))

    total = counters.total
    attempts = (total["markov.updates.applied"]
                + total["markov.updates.fallback_rank"]
                + total["markov.updates.fallback_condition"])
    jobs1 = median(timings["jobs1"])
    jobs2 = median(timer.durations["engine.batch"])
    layers = {
        "whatif.points_per_s": points / sum(rounds),
        "core.sensitivity_ms": med("core.sensitivity"),
        "core.sensitivity_refactor_ms": ms(median(timings["refactor"])),
        "dsl.load_share": sum(timer.durations["dsl.load"])
        / sum(timer.durations["core.sensitivity"]),
        "markov.factorize_calls": timer.calls("markov.factorize"),
        "markov.factorize_ms": med("markov.factorize"),
        "markov.updates.applied_ratio":
            total["markov.updates.applied"] / attempts if attempts else 0.0,
        "analysis.select_ms": med("analysis.select"),
        "engine.batch_ms": ms(jobs2),
        "engine.batch_jobs1_ms": ms(jobs1),
        "engine.parallel.speedup": jobs1 / jobs2,
        "engine.parallel.efficiency": jobs1 / jobs2 / 2,
    }
    layers.update({key: float(value) for key, value in total.items()})
    return layers


def worker_main(folder: str, mode: str) -> int:
    worker = Worker(Path(folder))
    worker.question_round(0)      # untimed warm-up: pool, plans, kernels
    worker.answers.clear()
    print("ready", flush=True)
    command, _, seconds = sys.stdin.readline().strip().partition(" ")
    traced = command == "go-traced"
    timer = counters = None
    if traced:
        timer = LayerTimer()
        timer.wrap_function("repro.core.sensitivity",
                            "finite_difference_attribute_sensitivity",
                            "core.sensitivity")
        timer.wrap_function("repro.dsl", "load_assembly", "dsl.load")
        timer.wrap_function("repro.markov.solvers", "factorize_chain",
                            "markov.factorize")
        timer.wrap_function("repro.analysis.selection", "select_assembly",
                            "analysis.select")
        timer.wrap_method("repro.engine.batch", "BatchEngine", "evaluate",
                          "engine.batch")
        counters = Counters()
    rounds, points = [], 0
    # a traced run does a fixed amount of work, so its counts repeat
    fixed_rounds = 2 * MODELS if mode == "traced" else None
    deadline = time.perf_counter() + float(seconds or 0)
    r = 0
    while (r < fixed_rounds if fixed_rounds else
           time.perf_counter() < deadline or r < 2):
        started = time.perf_counter()
        points += worker.question_round(r, counters)
        rounds.append(time.perf_counter() - started)
        r += 1
    if timer:
        timer.restore()
    timings = worker.verify()
    report = {"rounds": rounds, "points": points}
    if traced:
        for metric in ("core.sensitivity", "dsl.load", "markov.factorize",
                       "analysis.select", "engine.batch"):
            worker.outcome.check(timer.calls(metric) > 0,
                                 f"wrapper {metric} saw no call")
        report["layers"] = _layers(timer, counters, timings, rounds, points)
    outcome = worker.outcome
    report.update(attempted=outcome.attempted, failed=outcome.failed,
                  notes=outcome.notes)
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(worker_main(*sys.argv[1:3]))
