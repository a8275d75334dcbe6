"""OBS — cost of the observability layer on the Figure 6 workload.

The instrumentation contract is "nearly free until you turn it on": every
``obs.span``/``obs.gauge``/``obs.observe`` call site short-circuits on one
module-global flag while observability is disabled (the default), and
``obs.count`` bumps a registry counter, which always counts.  This
benchmark prices that promise on the paper's headline workload — a
Figure 6 sweep of the local and remote assemblies over the ``list`` grid
via the numeric evaluator, the path with the densest instrumentation
(solver, cache and evaluator call sites all fire on every point).

Three variants of the identical sweep are timed:

- ``stubbed`` — the facade helpers are replaced with bare no-ops of the
  same signatures: the cheapest conceivable call site, standing in for
  uninstrumented code;
- ``disabled`` — the real facade with observability off (the shipped
  default: counters count, everything else is one branch per call site);
- ``enabled`` — full collection: registry, tracer and an in-memory sink.

A shared host's speed can halve from one 0.2 s sweep to the next, so the
variants are interleaved point by point: each round runs one sweep per
variant (each with its own evaluators), and at every point the three
evaluations run back to back, the leader rotating from point to point and
round to round.  A round's ratio to ``stubbed`` compares times taken
within milliseconds of each other; each overhead is the median of those
ratios over the rounds.  ``BENCH_observability.json`` records all three
and the derived overheads; the test asserts the acceptance bound:
disabled-mode overhead <= 2 %.
"""

import time
from contextlib import contextmanager, nullcontext
from statistics import median

import numpy as np

from repro import observability as obs
from repro.core import ReliabilityEvaluator
from repro.observability import InMemorySink
from repro.observability.tracing import NO_SPAN
from repro.scenarios import (
    SearchSortParameters,
    local_assembly,
    remote_assembly,
)

from _report import emit_json

#: Figure 6 x-axis (trimmed: long enough to dominate fixed costs, short
#: enough that many rounds stay cheap) and fixed actuals.
GRID = np.unique(np.rint(np.linspace(1.0, 1000.0, 40)))  # integer domain
FIXED = {"elem": 1.0, "res": 1.0}
ROUNDS = 21
OVERHEAD_BOUND_PCT = 2.0


def _sweep() -> float:
    """One Figure 6 pass: both assemblies, numeric evaluation per point."""
    params = SearchSortParameters().with_figure6_point(1e-6, 5e-3)
    total = 0.0
    for assembly in (local_assembly(params), remote_assembly(params)):
        evaluator = ReliabilityEvaluator(assembly)
        for value in GRID:
            total += evaluator.pfail("search", list=float(value), **FIXED)
    return total


def _count(name, amount=1):
    pass


def _gauge(name, value):
    pass


def _observe(name, value):
    pass


def _span(name, **tags):
    return NO_SPAN


class _FacadeStub:
    """Swap the facade helpers for bare no-ops with the real signatures
    (no ``*args`` packing, so no call costs more than the real disabled
    helper) and restore on exit."""

    STUBS = {"count": _count, "gauge": _gauge, "observe": _observe,
             "span": _span}

    def __enter__(self):
        self.saved = {name: getattr(obs, name) for name in self.STUBS}
        for name, stub in self.STUBS.items():
            setattr(obs, name, stub)
        return self

    def __exit__(self, *exc_info):
        for name, fn in self.saved.items():
            setattr(obs, name, fn)
        return False


@contextmanager
def _collecting():
    """Full collection for one timed evaluation (the tracer keeps the
    in-memory sink :func:`_measure` attached)."""
    obs.enable()
    try:
        yield
    finally:
        obs.disable()


VARIANTS = {"stubbed": _FacadeStub, "disabled": nullcontext,
            "enabled": _collecting}


def _round(r: int) -> dict:
    """Seconds per variant for one Figure 6 sweep each, interleaved point
    by point with the leader rotating."""
    params = SearchSortParameters().with_figure6_point(1e-6, 5e-3)
    assemblies = (local_assembly(params), remote_assembly(params))
    evaluators = {v: [ReliabilityEvaluator(a) for a in assemblies]
                  for v in VARIANTS}
    names = tuple(VARIANTS)
    seconds = dict.fromkeys(names, 0.0)
    points = [(i, float(v)) for i in range(len(assemblies)) for v in GRID]
    for k, (i, value) in enumerate(points):
        lead = (r + k) % len(names)
        for variant in names[lead:] + names[:lead]:
            with VARIANTS[variant]():
                start = time.perf_counter()
                evaluators[variant][i].pfail("search", list=value, **FIXED)
                seconds[variant] += time.perf_counter() - start
    return seconds


def _measure():
    """Per-variant median seconds and median per-round ratios to
    ``stubbed``."""
    obs.reset()
    _sweep()  # warm caches/allocators once outside the timed region
    obs.enable(hooks=[InMemorySink()])
    obs.disable()
    try:
        rounds = [_round(r) for r in range(ROUNDS)]
    finally:
        obs.reset()
    seconds = {v: median(t[v] for t in rounds) for v in VARIANTS}
    ratios = {
        v: median(t[v] / t["stubbed"] for t in rounds)
        for v in ("disabled", "enabled")
    }
    return seconds, ratios


def test_observability_overhead():
    timings, ratios = _measure()

    overhead_disabled_pct = 100.0 * (ratios["disabled"] - 1.0)
    overhead_enabled_pct = 100.0 * (ratios["enabled"] - 1.0)

    # prove the enabled run actually collected on this exact workload
    obs.reset()
    obs.enable()
    try:
        _sweep()
        counters = obs.registry().snapshot()["counters"]
    finally:
        obs.reset()
    assert counters.get("solver.backend.dense", 0) > 0  # solves instrumented

    emit_json("observability", {
        "workload": {
            "figure": "fig6",
            "assemblies": ["local", "remote"],
            "points_per_assembly": int(GRID.size),
            "evaluator": "numeric",
            "rounds": ROUNDS,
            "timing": "median of per-round ratios, interleaved per point",
        },
        "seconds": {k: round(v, 6) for k, v in timings.items()},
        "overhead_pct": {
            "disabled": round(overhead_disabled_pct, 3),
            "enabled": round(overhead_enabled_pct, 3),
        },
        "bound_pct": {"disabled": OVERHEAD_BOUND_PCT},
        "instrumented_counters_sampled": {
            name: counters[name] for name in sorted(counters)[:8]
        },
    })

    assert overhead_disabled_pct <= OVERHEAD_BOUND_PCT, (
        f"disabled-mode observability overhead {overhead_disabled_pct:.2f}% "
        f"exceeds the {OVERHEAD_BOUND_PCT}% acceptance bound "
        f"(stubbed {timings['stubbed']:.4f}s vs disabled "
        f"{timings['disabled']:.4f}s)"
    )
