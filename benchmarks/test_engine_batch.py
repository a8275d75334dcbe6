"""PERF — the batch-evaluation engine: plan caching and worker fan-out.

Four claims of the engine layer are measured on a Figure-6-style workload
(the local and remote configurations swept over the ``list`` grid):

- **cold vs warm cache**: a cold engine compiles one plan per distinct
  (model, service) target on every pass; a warm one compiles nothing.
  Both the plan compilations and the underlying symbolic derivations are
  counted, and the cold/warm ratio is recorded (the unit tests assert the
  >= 5x bound; here the workload is bigger, so the ratio is larger).
- **sequential vs parallel**: the same sweep grid at ``jobs=1`` and
  ``jobs=2``, plus a two-model batch both ways.  Wall-clock numbers are
  recorded as measured along with ``cpu_count`` — on a single-core runner
  the parallel path cannot win, the JSON marks the section ``advisory``,
  and the speedup assertions are skipped rather than asserted against
  contention noise.
- **fused stack vs per-point loop** (``-k fused``): the same
  (models × points) workload through one ``pfail_stack`` kernel call per
  model vs today's python loop over ``plan.pfail`` — bitwise-equal
  results, >= 10x per point.
- **process-pool batch** on the deep-recursion workload
  (``recursive_assembly`` with recursion probability 0.9, robust backend,
  pickled chunks): ``jobs=2`` must win >= 1.5x over ``jobs=1`` — asserted
  only on runners with >= 2 CPUs.

Everything lands in machine-readable form in
``benchmarks/results/BENCH_engine.json`` (see docs/performance_guide.md
for how to read it) next to the usual text table.
"""

import json
import os
import time

import numpy as np

from repro import observability as obs
from repro.analysis import format_table, sweep_parameter
from repro.engine import BatchEngine, PlanCache
from repro.engine.plan import compile_plan
from repro.scenarios import (
    RecursiveParameters,
    local_assembly,
    recursive_assembly,
    remote_assembly,
)
from repro.symbolic import compile_expression

from _report import RESULTS_DIR, emit, emit_json

#: The Figure 6 x-axis and fixed actuals (benchmarks/test_fig6_*).
GRID = np.linspace(1.0, 1000.0, 60)
FIXED = {"elem": 1.0, "res": 1.0}

#: The kernel benchmark sweeps a denser Figure 6 grid (the acceptance
#: workload: >= 200 points) so per-point costs dominate fixed overhead.
KERNEL_GRID = np.linspace(1.0, 1000.0, 240)


def compilation_count() -> int:
    """Plan compilations so far (the registry's ``plan.compilations``)."""
    return obs.registry().counter_value("plan.compilations")


def _points(grid):
    return [{**FIXED, "list": float(v)} for v in grid]


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def _cache_section(assemblies):
    """Cold vs warm: same two-model batch, fresh cache vs reused cache."""
    points = _points(GRID)

    def run_batch(engine):
        for assembly in assemblies:
            result = engine.evaluate(assembly, "search", points)
            assert result.ok
        return result

    cold_engine = BatchEngine(jobs=1, cache=False)  # every pass recompiles
    before = compilation_count()
    _, cold_once = _timed(lambda: run_batch(cold_engine))
    passes = 5
    for _ in range(passes - 1):
        run_batch(cold_engine)
    cold_compilations = compilation_count() - before

    warm_engine = BatchEngine(jobs=1, cache=PlanCache())
    run_batch(warm_engine)  # populate
    before = compilation_count()
    _, warm_once = _timed(lambda: run_batch(warm_engine))
    for _ in range(passes - 1):
        run_batch(warm_engine)
    warm_compilations = compilation_count() - before

    return {
        "passes": passes,
        "entries_per_pass": len(points) * len(assemblies),
        "cold_compilations": cold_compilations,
        "warm_compilations": warm_compilations,
        # warm is usually 0; divide by at least 1 to keep strict JSON
        "compilation_ratio": cold_compilations / max(warm_compilations, 1),
        "cold_pass_seconds": cold_once,
        "warm_pass_seconds": warm_once,
    }


def _merge_engine_json(key, section):
    """Fold one section into ``BENCH_engine.json`` without clobbering the
    sections other tests in this file wrote (the fused and pool-batch
    tests are selectable via ``-k``, so any subset of them may run)."""
    path = RESULTS_DIR / "BENCH_engine.json"
    payload = json.loads(path.read_text()) if path.exists() else {}
    payload[key] = section
    emit_json("engine", payload)


def _parallel_section(assemblies):
    """The same grid sequentially and with two workers, timed honestly."""
    cpu_count = os.cpu_count() or 1
    # below two cores the "parallel" numbers measure contention, not
    # fan-out — record them, but flag the section so nobody reads the
    # sub-1x ratios as an engine property (and no assertion fires)
    out = {"cpu_count": cpu_count, "advisory": cpu_count < 2}

    sweep_seconds = {}
    for jobs in (1, 2):
        def run_sweeps(jobs=jobs):
            for assembly in assemblies:
                sweep_parameter(
                    assembly, "search", "list", GRID, FIXED,
                    method="numeric", jobs=jobs,
                )
        _, seconds = _timed(run_sweeps)
        sweep_seconds[f"jobs{jobs}"] = seconds
    out["numeric_sweep_seconds"] = sweep_seconds
    out["sweep_speedup"] = sweep_seconds["jobs1"] / sweep_seconds["jobs2"]

    points = _points(GRID)
    batch_seconds = {}
    for jobs in (1, 2):
        engine = BatchEngine(jobs=jobs, cache=PlanCache())
        def run_batch(engine=engine):
            for assembly in assemblies:
                assert engine.evaluate(assembly, "search", points).ok
        run_batch()  # warm the plan cache so only evaluation is timed
        _, seconds = _timed(run_batch)
        batch_seconds[f"jobs{jobs}"] = seconds
    out["warm_batch_seconds"] = batch_seconds
    out["batch_speedup"] = batch_seconds["jobs1"] / batch_seconds["jobs2"]
    return out


def test_engine_batch(benchmark):
    assemblies = (local_assembly(), remote_assembly())
    warm = BatchEngine(jobs=1, cache=PlanCache())
    points = _points(GRID)
    warm.evaluate(assemblies[0], "search", points)
    benchmark(lambda: warm.evaluate(assemblies[0], "search", points))

    cache = _cache_section(assemblies)
    parallel = _parallel_section(assemblies)
    for key, section in (
        ("workload", {
            "models": [a.name for a in assemblies],
            "service": "search",
            "parameter": "list",
            "grid_points": len(GRID),
            "fixed": FIXED,
        }),
        ("cache", cache),
        ("parallel", parallel),
    ):
        _merge_engine_json(key, section)

    rows = [
        ("cold pass (no cache)", cache["cold_pass_seconds"] * 1e3,
         cache["cold_compilations"]),
        ("warm pass (plan cache)", cache["warm_pass_seconds"] * 1e3,
         cache["warm_compilations"]),
    ]
    text = (
        "PERF/engine — batch evaluation, cold vs warm plan cache "
        f"({cache['passes']} passes x {cache['entries_per_pass']} entries)\n\n"
        + format_table(
            ["pass", "ms", "plan compilations"], rows, float_format="{:.4g}"
        )
        + "\n\nnumeric sweep: "
        f"jobs=1 {parallel['numeric_sweep_seconds']['jobs1']:.3f}s, "
        f"jobs=2 {parallel['numeric_sweep_seconds']['jobs2']:.3f}s "
        f"(speedup {parallel['sweep_speedup']:.2f}x on "
        f"{parallel['cpu_count']} core(s))"
    )
    emit("PERF_ENGINE", text)

    # A warm cache recompiles nothing; cold pays one compilation per
    # (model, service) target per pass.
    assert cache["warm_compilations"] == 0
    assert cache["cold_compilations"] == cache["passes"] * len(assemblies)
    if not parallel["advisory"]:
        # with real cores available, fan-out must at least break even
        assert parallel["sweep_speedup"] >= 1.0, parallel
        assert parallel["batch_speedup"] >= 1.0, parallel


def _interleaved_best(contenders, repeats=100, rounds=5):
    """Best per-call seconds for each contender, measured in interleaved
    rounds (A/B/A/B...) so load drift on a busy runner hits every
    contender equally instead of biasing whichever ran last."""
    best = {name: float("inf") for name, _fn in contenders}
    for _ in range(rounds):
        for name, fn in contenders:
            start = time.perf_counter()
            for _ in range(repeats):
                fn()
            per_call = (time.perf_counter() - start) / repeats
            best[name] = min(best[name], per_call)
    return best


def test_kernel_compilation():
    """PERF — compiled kernels vs the recursive tree walk (no fixtures, so
    the CI smoke job can run it with plain pytest via ``-k kernel``)."""
    sections = {}
    speedups = {}
    for assembly in (local_assembly(), remote_assembly()):
        plan = compile_plan(assembly, "search")
        expression, kernel = plan.expression, plan.kernel()
        env = {**FIXED, "list": KERNEL_GRID}
        # equivalence on the benchmark workload itself, bit for bit
        tree_value = np.broadcast_to(
            np.asarray(expression.evaluate(env), dtype=float),
            KERNEL_GRID.shape,
        )
        kernel_value = np.broadcast_to(
            np.asarray(kernel.evaluate(env), dtype=float), KERNEL_GRID.shape
        )
        assert np.array_equal(tree_value, kernel_value)

        best = _interleaved_best(
            [
                ("tree_walk", lambda: expression.evaluate(env)),
                ("compiled", lambda: kernel.evaluate(env)),
            ]
        )
        speedup = best["tree_walk"] / best["compiled"]
        speedups[assembly.name] = speedup
        sections[assembly.name] = {
            "grid_points": len(KERNEL_GRID),
            "tree_walk_ns_per_point": best["tree_walk"] / len(KERNEL_GRID) * 1e9,
            "compiled_ns_per_point": best["compiled"] / len(KERNEL_GRID) * 1e9,
            "speedup": speedup,
            "tree_nodes": kernel.tree_nodes,
            "dag_nodes": kernel.dag_nodes,
            "executed_ops": kernel.op_count,
            "folded_constants": kernel.folded,
        }

    # CSE on the eq. 18 closed form: composition by substitution repeats
    # N = list*log2(list), so the executed tape must be smaller than the tree
    from repro.core.symbolic_evaluator import SymbolicEvaluator

    sort_expression = SymbolicEvaluator(local_assembly()).pfail_expression(
        "sort1"
    )
    sort_kernel = compile_expression(sort_expression, cache=False)
    cse = {
        "tree_nodes": sort_kernel.tree_nodes,
        "dag_nodes": sort_kernel.dag_nodes,
        "executed_ops": sort_kernel.op_count,
        "reduction": 1.0 - sort_kernel.op_count / sort_kernel.tree_nodes,
    }

    payload = {
        "workload": {
            "service": "search",
            "parameter": "list",
            "grid_points": len(KERNEL_GRID),
            "fixed": FIXED,
        },
        "assemblies": sections,
        "cse_eq18": cse,
    }
    emit_json("kernel", payload)

    rows = [
        (name, s["tree_walk_ns_per_point"], s["compiled_ns_per_point"],
         s["speedup"], s["tree_nodes"], s["executed_ops"])
        for name, s in sections.items()
    ]
    emit(
        "PERF_KERNEL",
        "PERF/kernel — compiled kernels vs tree walk "
        f"(Figure 6 sweep, {len(KERNEL_GRID)} points)\n\n"
        + format_table(
            ["model", "tree ns/pt", "kernel ns/pt", "speedup",
             "tree nodes", "ops"],
            rows,
            float_format="{:.4g}",
        ),
    )

    # the PR's acceptance bar: >= 3x on the Figure 6 sweep workload, and
    # CSE strictly reduces executed ops vs raw tree node count
    for name, speedup in speedups.items():
        assert speedup >= 3.0, f"{name}: {speedup:.2f}x < 3x"
    assert cse["executed_ops"] < cse["tree_nodes"]


def test_fused_stack():
    """PERF — one ``pfail_stack`` kernel call vs the per-point python loop
    on the (models x points) Figure 6 workload, bitwise-equal results.

    Fixture-free on purpose: the ``fused-bench-smoke`` CI job runs it with
    plain ``pytest -k fused``.
    """
    sections = {}
    for assembly in (local_assembly(), remote_assembly()):
        plan = compile_plan(assembly, "search")
        points = _points(KERNEL_GRID)

        def loop(plan=plan, points=points):
            return [plan.pfail(point) for point in points]

        def stacked(plan=plan, points=points):
            return plan.pfail_stack(points)

        # the acceptance contract: bit for bit, not approximately
        assert np.array_equal(np.asarray(loop(), dtype=float), stacked())

        best = _interleaved_best(
            [("loop", loop), ("stacked", stacked)], repeats=3, rounds=5
        )
        speedup = best["loop"] / best["stacked"]
        sections[assembly.name] = {
            "points": len(points),
            "loop_us_per_point": best["loop"] / len(points) * 1e6,
            "stacked_us_per_point": best["stacked"] / len(points) * 1e6,
            "speedup": speedup,
        }

    _merge_engine_json("fused_stack", sections)
    rows = [
        (name, s["loop_us_per_point"], s["stacked_us_per_point"],
         s["speedup"])
        for name, s in sections.items()
    ]
    emit(
        "PERF_FUSED",
        "PERF/fused — pfail_stack vs per-point loop "
        f"(Figure 6 models x {len(KERNEL_GRID)} points)\n\n"
        + format_table(
            ["model", "loop us/pt", "stacked us/pt", "speedup"],
            rows, float_format="{:.4g}",
        ),
    )

    # the PR's acceptance bar: >= 10x per point over the loop
    for name, section in sections.items():
        assert section["speedup"] >= 10.0, (
            f"{name}: {section['speedup']:.2f}x < 10x"
        )


def test_pool_batch():
    """PERF — the process pool on the deep-recursion batch workload
    (robust backend; at recursion probability 0.9 each point takes
    dozens of fixed-point sweeps, so per-point work dominates the pool's
    dispatch): jobs=2 vs jobs=1.

    The >= 1.5x bar is asserted only on runners with >= 2 CPUs; below
    that the engine clamps jobs to 1 and the section is advisory.
    """
    cpu_count = os.cpu_count() or 1
    assembly = recursive_assembly(RecursiveParameters(recursion_probability=0.9))
    points = [{"size": float(1 + (i % 8))} for i in range(32)]

    seconds = {}
    for jobs in (1, 2):
        engine = BatchEngine(jobs=jobs, cache=PlanCache(), mode="process")
        assert engine.evaluate(assembly, "A", points[:2]).ok  # warm plan
        result, elapsed = _timed(
            lambda engine=engine: engine.evaluate(assembly, "A", points)
        )
        assert result.ok
        seconds[f"jobs{jobs}"] = elapsed

    section = {
        "cpu_count": cpu_count,
        "advisory": cpu_count < 2,
        "entries": len(points),
        "batch_seconds": seconds,
        "speedup": seconds["jobs1"] / seconds["jobs2"],
    }
    _merge_engine_json("pool_batch", section)
    emit(
        "PERF_POOL",
        "PERF/pool — deep-recursion robust batch through the process pool: "
        f"jobs=1 {seconds['jobs1']:.3f}s, jobs=2 {seconds['jobs2']:.3f}s "
        f"(speedup {section['speedup']:.2f}x, {cpu_count} core(s))",
    )

    if not section["advisory"]:
        assert section["speedup"] >= 1.5, section
