"""repro.engine — parallel batch evaluation with plan caching.

The scaling layer of the library: where :mod:`repro.core` answers *one*
question about *one* model, this package answers many questions about many
models — the workload of the paper's §5 runtime selection loops — by
compiling models into reusable plans, caching them under structural
fingerprints, and fanning independent evaluations across a worker pool.

Modules:

- :mod:`repro.engine.fingerprint` — canonical SHA-256 fingerprints of
  assemblies; equal fingerprint ⇔ identical evaluation results, and any
  attribute or structural change invalidates.
- :mod:`repro.engine.plan` — picklable :class:`EvaluationPlan` objects:
  the symbolic closed form (or a robust-chain solve skeleton) compiled
  once, evaluated at any number of points, shippable to worker processes.
- :mod:`repro.engine.cache` — the thread-safe, LRU-bounded
  :class:`PlanCache` with hit/miss statistics.
- :mod:`repro.engine.parallel` — the one fail-fast process-pool fan-out
  (:func:`~repro.engine.parallel.fan_out`), picklable worker functions,
  and cooperative :class:`~repro.runtime.EvaluationBudget` enforcement
  across workers; payloads and results travel pickled.
- :mod:`repro.engine.batch` — the :class:`BatchEngine` façade tying it
  together, with per-entry error isolation and fused stacked-kernel
  execution of same-fingerprint symbolic groups.

The engine also powers ``--jobs N`` on the CLI (``repro batch``,
``repro sweep``, ``repro fuzz``), parallel grids in
:mod:`repro.analysis.sweep`, Monte-Carlo trial blocks in
:mod:`repro.simulation`, and fuzz fan-out in :mod:`repro.robustness`.
See ``docs/architecture.md`` for where this layer sits and
``docs/performance_guide.md`` for tuning guidance.
"""

from repro.engine.batch import (
    BatchEngine,
    BatchEntry,
    BatchRequest,
    BatchResult,
    BatchStats,
)
from repro.engine.cache import CacheStats, PlanCache, default_cache
from repro.engine.fingerprint import (
    assembly_fingerprint,
    canonical_json,
    plan_key,
    service_fingerprint,
)
from repro.engine.parallel import (
    fused_counts,
    resolve_jobs,
    split_evenly,
)
from repro.engine.plan import (
    EvaluationPlan,
    compile_plan,
)


def shm_counts() -> dict:
    """Always zero: nothing rides shared memory any more.  The only reader
    is ``perfbench/whatif.py``; the benchmark change that drops its
    ``engine.shm.*`` counters deletes this function."""
    return {"segments": 0, "rows": 0}


__all__ = [
    "BatchEngine",
    "BatchEntry",
    "BatchRequest",
    "BatchResult",
    "BatchStats",
    "CacheStats",
    "EvaluationPlan",
    "PlanCache",
    "assembly_fingerprint",
    "canonical_json",
    "compile_plan",
    "default_cache",
    "fused_counts",
    "plan_key",
    "resolve_jobs",
    "service_fingerprint",
    "shm_counts",
    "split_evenly",
]
