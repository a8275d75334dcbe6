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
- :mod:`repro.engine.parallel` — executor plumbing, picklable worker
  functions, and cooperative :class:`~repro.runtime.EvaluationBudget`
  enforcement across workers.
- :mod:`repro.engine.shm` — the zero-pickle shared-memory transport for
  heavy (robust/Monte-Carlo) workloads: model documents and result rows
  travel through ``multiprocessing.shared_memory`` segments owned (and
  always reclaimed) by the parent.
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
    make_executor,
    reset_fused_counts,
    resolve_jobs,
    split_evenly,
)
from repro.engine.plan import (
    EvaluationPlan,
    compilation_count,
    compile_plan,
    reset_counters,
)

#: The shared-memory transport drags in :mod:`multiprocessing`; its names
#: resolve on first access (PEP 562) so the serial path never loads it.
_SHM_NAMES = ("ShmWorkspace", "reset_shm_counts", "shm_counts")


def __getattr__(name: str):
    if name not in _SHM_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from repro.engine import shm

    return getattr(shm, name)

__all__ = [
    "BatchEngine",
    "BatchEntry",
    "BatchRequest",
    "BatchResult",
    "BatchStats",
    "CacheStats",
    "EvaluationPlan",
    "PlanCache",
    "ShmWorkspace",
    "assembly_fingerprint",
    "canonical_json",
    "compilation_count",
    "compile_plan",
    "default_cache",
    "fused_counts",
    "make_executor",
    "plan_key",
    "reset_counters",
    "reset_fused_counts",
    "reset_shm_counts",
    "resolve_jobs",
    "service_fingerprint",
    "shm_counts",
    "split_evenly",
]
