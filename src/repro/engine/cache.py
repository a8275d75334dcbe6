"""The plan cache: one derivation per distinct model, ever.

Batch workloads — multi-model comparisons, parameter grids, Monte-Carlo
blocks, fuzzing sweeps — evaluate the *same* assembly at many points, and
the expensive part (the symbolic derivation or solve-skeleton build) is
identical across those points.  :class:`PlanCache` memoizes compiled
:class:`~repro.engine.plan.EvaluationPlan` objects under their
:func:`~repro.engine.fingerprint.plan_key`:

- **hit**  — the fingerprint matches a cached plan: no derivation runs;
- **miss** — first sight of this (model, service, mode): compile and keep;
- **the requested backend decides, not the cache** — an ``auto`` plan and
  a ``symbolic`` request share one entry, and a ``symbolic`` request that
  finds the robust fallback there re-derives, so a lookup answers exactly
  what a cold compile with that backend would;
- **invalidation is automatic** — mutating the model (an attribute, a
  transition, a binding) changes the fingerprint, so the stale plan is
  simply never looked up again; a bounded cache evicts it in LRU order.

The LRU substrate (thread-safe index, factory-outside-the-lock miss
handling, hit/miss/eviction statistics) is the shared
:class:`repro.caching.LRUCache` — the same machinery that backs the
symbolic compiler's :class:`~repro.symbolic.compiler.KernelCache` — so the
:class:`~repro.caching.CacheStats` observable here and in
``BENCH_engine.json`` reads identically across both caches.

A process-wide default instance (:func:`default_cache`) backs the CLI and
the convenience APIs; long-lived services embedding the engine should own
per-tenant instances instead.
"""

from __future__ import annotations

import threading

from repro.caching import CacheStats, LRUCache
from repro.engine.fingerprint import plan_key
from repro.engine.plan import EvaluationPlan, compile_plan
from repro.errors import EvaluationError
from repro.model.assembly import Assembly
from repro.model.service import Service
from repro.runtime.budget import EvaluationBudget

__all__ = ["CacheStats", "PlanCache", "default_cache"]


class PlanCache:
    """A bounded, thread-safe, fingerprint-keyed store of compiled plans.

    Args:
        max_size: maximum number of cached plans; the least recently used
            plan is evicted past the bound.  ``None`` means unbounded.
    """

    def __init__(self, max_size: int | None = 128):
        if max_size is not None and max_size < 1:
            raise EvaluationError(
                f"plan cache max_size must be positive, got {max_size!r}"
            )
        self._lru = LRUCache(max_size, name="plan")

    @property
    def max_size(self) -> int | None:
        return self._lru.max_size

    @property
    def stats(self) -> CacheStats:
        """Hit/miss/eviction counters of this cache."""
        return self._lru.stats

    def __len__(self) -> int:
        return len(self._lru)

    def get_or_compile(
        self,
        assembly: Assembly,
        service: str | Service,
        *,
        symbolic_attributes: bool = False,
        backend: str = "auto",
        budget: EvaluationBudget | None = None,
    ) -> EvaluationPlan:
        """The plan for this (model, service, mode), compiling on miss."""
        return self.lookup(
            assembly,
            service,
            symbolic_attributes=symbolic_attributes,
            backend=backend,
            budget=budget,
        )[0]

    def lookup(
        self,
        assembly: Assembly,
        service: str | Service,
        *,
        symbolic_attributes: bool,
        backend: str,
        budget: EvaluationBudget | None,
    ) -> tuple[EvaluationPlan, bool]:
        """:meth:`get_or_compile`, plus whether this call compiled.

        The answer is what ``compile_plan(..., backend=backend)`` gives on
        a cold cache.  ``auto`` and ``symbolic`` requests share an entry:
        a symbolic plan serves both, and a ``symbolic`` request that finds
        the ``auto`` fallback to the robust skeleton re-runs the
        derivation, which raises its typed error as it would cold.

        Compilation runs outside the cache lock, so two threads missing on
        *different* models compile concurrently; two threads racing on the
        *same* key may both compile, and the first store wins (plans for
        equal fingerprints are interchangeable, so this is only duplicated
        work, never wrong answers).
        """
        compiled = False

        def compile_(requested: str) -> EvaluationPlan:
            nonlocal compiled
            plan = compile_plan(
                assembly,
                service,
                symbolic_attributes=symbolic_attributes,
                backend=requested,
                budget=budget,
            )
            compiled = True
            return plan

        plan = self._lru.get_or_create(
            plan_key(assembly, service, symbolic_attributes),
            lambda: compile_(backend),
        )
        if backend == "symbolic" and plan.backend != "symbolic":
            plan = compile_("symbolic")
        return plan, compiled

    def clear(self) -> None:
        """Drop every cached plan (statistics are kept)."""
        self._lru.clear()


_default_cache: PlanCache | None = None
_default_lock = threading.Lock()


def default_cache() -> PlanCache:
    """The process-wide shared :class:`PlanCache` (created on first use)."""
    global _default_cache
    with _default_lock:
        if _default_cache is None:
            _default_cache = PlanCache()
        return _default_cache
