"""The evaluation service behind the HTTP surface — transport-agnostic.

:class:`EvaluationService` is everything the daemon does minus the
sockets: it validates request payloads against :mod:`repro.server.schema`,
parses models through the hardened loader into a digest-keyed LRU, serves
predictions through a long-lived :class:`~repro.engine.cache.PlanCache`
(which in turn warms the process-wide kernel and solver-plan caches), and
coalesces concurrent identical requests behind a single computation
(:mod:`repro.server.coalesce`).

Keeping it transport-agnostic buys two things: the whole service surface
is testable without opening a socket, and an asyncio/FastAPI adapter (the
optional extra the roadmap names) can wrap the same object without
touching the evaluation semantics.

Every public method takes an already-decoded JSON payload and returns a
plain JSON-safe dict; typed :class:`~repro.errors.ReproError` subclasses
propagate to the transport, which maps them onto the HTTP status taxonomy
(:data:`repro.server.app.HTTP_STATUS`).
"""

from __future__ import annotations

import hashlib
import os
import pickle
import threading
import time

import numpy as np

from repro import observability as obs
from repro.caching import LRUCache
from repro.engine.cache import PlanCache
from repro.errors import ServerOverloadedError
from repro.runtime.budget import EvaluationBudget
from repro.server.coalesce import Coalescer
from repro.server.schema import (
    BATCH_REQUEST,
    EVALUATE_REQUEST,
    RESPONSE_SCHEMA,
    SWEEP_REQUEST,
    validate_request,
)

__all__ = ["EvaluationService"]


def _stats_dict(cache) -> dict:
    """``CacheStats`` snapshot plus current size, JSON-safe."""
    snapshot = cache.stats.snapshot()
    snapshot["size"] = len(cache)
    return snapshot


class EvaluationService:
    """Warm-cache reliability evaluation over JSON payloads.

    Args:
        plan_cache: the :class:`~repro.engine.cache.PlanCache` shared
            across requests for the server's lifetime (default: a private
            256-plan cache — daemons own their caches rather than the
            process-wide default, so embedded servers stay isolated).
        model_cache_size: parsed-assembly LRU bound.  Models are keyed by
            the SHA-256 of the decoded document's pickle (the coalescer's
            model key too): a re-sent body skips JSON->model work and its
            assembly's fingerprint is memoized, so it serializes nothing.
            A key-reordered copy is parsed again but shares the plan.
        default_budget: limits applied to requests whose body names no
            ``budget`` — the daemon's own backpressure floor.  A request
            body's budget *replaces* the default.
        max_inflight: admission bound on concurrently evaluating
            requests; exceeding it raises
            :class:`~repro.errors.ServerOverloadedError` (HTTP 429).
    """

    def __init__(
        self,
        plan_cache: PlanCache | None = None,
        model_cache_size: int = 64,
        default_budget: dict | None = None,
        max_inflight: int = 64,
    ):
        self.plan_cache = plan_cache if plan_cache is not None else PlanCache(256)
        self.models = LRUCache(model_cache_size, name="model")
        self.coalescer = Coalescer()
        self.default_budget = dict(default_budget or {})
        self.max_inflight = int(max_inflight)
        self.started = time.monotonic()
        self._lock = threading.Lock()
        self.requests = 0
        self.evaluations = 0
        self.shed = 0
        self._inflight = 0

    # -- admission / accounting --------------------------------------------

    def admit(self):
        """Context manager charging one in-flight request slot.

        Raises :class:`~repro.errors.ServerOverloadedError` when the
        server is already at ``max_inflight`` — before any model parsing
        or compilation is spent on the doomed request.
        """
        return _Admission(self)

    @property
    def inflight(self) -> int:
        """Requests currently being evaluated."""
        with self._lock:
            return self._inflight

    # -- endpoints ----------------------------------------------------------

    def evaluate(self, payload: dict) -> dict:
        """``POST /v1/evaluate`` — one prediction, coalesced and cached."""
        validate_request("/v1/evaluate", payload, EVALUATE_REQUEST)
        started = time.perf_counter()
        digest, assembly = self._assembly(payload["model"])
        service = payload["service"]
        actuals = {
            name: float(value)
            for name, value in (payload.get("actuals") or {}).items()
        }
        key = ("evaluate", digest, service, tuple(sorted(actuals.items())))

        def compute() -> dict:
            budget = self._budget(payload)
            with self._lock:
                self.evaluations += 1
            obs.count("server.evaluations")
            plan = self.plan_cache.get_or_compile(
                assembly, service, budget=budget
            )
            pfail = plan.pfail(actuals, budget=budget)
            return {
                "schema": RESPONSE_SCHEMA,
                "service": service,
                "actuals": actuals,
                "pfail": pfail,
                "reliability": 1.0 - pfail,
                "backend": plan.backend,
                "fingerprint": plan.fingerprint,
            }

        result, coalesced = self.coalescer.run(key, compute)
        response = dict(result)
        response["coalesced"] = coalesced
        response["elapsed_seconds"] = time.perf_counter() - started
        return response

    def batch(self, payload: dict) -> dict:
        """``POST /v1/batch`` — many points, per-entry error isolation."""
        from repro.engine.batch import BatchEngine, BatchRequest

        validate_request("/v1/batch", payload, BATCH_REQUEST)
        budget = self._budget(payload)
        engine = BatchEngine(
            jobs=1,  # connection threads provide the concurrency
            cache=self.plan_cache,
            budget=budget,
        )
        requests = []
        for entry in payload["requests"]:
            _, assembly = self._assembly(entry["model"])
            requests.append(
                BatchRequest(
                    assembly,
                    entry["service"],
                    {
                        name: float(value)
                        for name, value in (entry.get("actuals") or {}).items()
                    },
                    label=entry.get("label", ""),
                )
            )
        with self._lock:
            self.evaluations += 1
        obs.count("server.evaluations")
        result = engine.run(requests)
        entries = [
            {
                "index": entry.index,
                "label": entry.label,
                "service": entry.service,
                "actuals": entry.actuals,
                "ok": entry.ok,
                "pfail": entry.pfail,
                "reliability": entry.reliability,
                "backend": entry.backend,
                "error": None if entry.ok else {
                    "type": type(entry.error).__name__,
                    "message": str(entry.error),
                },
            }
            for entry in result
        ]
        return {
            "schema": RESPONSE_SCHEMA,
            "ok": result.ok,
            "entries": entries,
            "stats": result.stats.snapshot(),
        }

    def sweep(self, payload: dict) -> dict:
        """``POST /v1/sweep`` — one parameter across a grid, coalesced."""
        from repro.analysis import sweep_parameter

        validate_request("/v1/sweep", payload, SWEEP_REQUEST)
        started = time.perf_counter()
        digest, assembly = self._assembly(payload["model"])
        service = payload["service"]
        parameter = payload["parameter"]
        points = int(payload.get("points", 20))
        fixed = {
            name: float(value)
            for name, value in (payload.get("fixed") or {}).items()
        }
        method = payload.get("method", "symbolic")
        grid = [
            float(v)
            for v in np.linspace(payload["start"], payload["stop"], points)
        ]
        key = (
            "sweep", digest, service, parameter, tuple(grid),
            tuple(sorted(fixed.items())), method,
        )

        def compute() -> dict:
            budget = self._budget(payload)
            with self._lock:
                self.evaluations += 1
            obs.count("server.evaluations")
            sweep = sweep_parameter(
                assembly, service, parameter, grid, fixed,
                method=method, cache=self.plan_cache, budget=budget,
            )
            return {
                "schema": RESPONSE_SCHEMA,
                "service": service,
                "parameter": parameter,
                "method": method,
                "fixed": fixed,
                "values": [float(v) for v in sweep.values],
                "pfail": [float(p) for p in sweep.pfail],
            }

        result, coalesced = self.coalescer.run(key, compute)
        response = dict(result)
        response["coalesced"] = coalesced
        response["elapsed_seconds"] = time.perf_counter() - started
        return response

    def cache_stats(self) -> dict:
        """``GET /v1/cache-stats`` — live counters of every warm layer."""
        from repro.markov.solvers import (
            default_solver_cache,
            factorization_count,
            plan_count,
        )
        from repro.engine import fused_counts
        from repro.symbolic import default_kernel_cache

        solver = _stats_dict(default_solver_cache())
        solver["plans"] = plan_count()
        solver["factorizations"] = factorization_count()
        return {
            "schema": RESPONSE_SCHEMA,
            "plan": _stats_dict(self.plan_cache),
            "kernel": _stats_dict(default_kernel_cache()),
            "solver": solver,
            "model": _stats_dict(self.models),
            "engine": {
                "fused": fused_counts(),
            },
            "server": {
                "requests": self.requests,
                "evaluations": self.evaluations,
                "coalesced": self.coalescer.followers,
                "shed": self.shed,
            },
        }

    def health(self) -> dict:
        """``GET /healthz`` — liveness, uptime and request totals."""
        return {
            "schema": RESPONSE_SCHEMA,
            "status": "ok",
            "pid": os.getpid(),
            "uptime_seconds": time.monotonic() - self.started,
            "requests": {
                "total": self.requests,
                "inflight": self.inflight,
                "shed": self.shed,
            },
        }

    # -- internals ----------------------------------------------------------

    def _assembly(self, document: dict):
        """``(digest, assembly)`` for a model document, digest-cached."""
        from repro.dsl.loader import assembly_from_dict

        digest = hashlib.sha256(pickle.dumps(document, protocol=5)).hexdigest()
        assembly = self.models.get_or_create(
            digest, lambda: assembly_from_dict(document)
        )
        return digest, assembly

    def _budget(self, payload: dict) -> EvaluationBudget | None:
        """The request's budget: its own ``budget`` field, or the
        server default.  Fresh per computation — budgets are mutable
        consumption trackers and must never be shared across requests."""
        limits = payload.get("budget")
        if limits is None:
            limits = self.default_budget
        return EvaluationBudget.from_dict(limits)


class _Admission:
    """Context manager behind :meth:`EvaluationService.admit`."""

    __slots__ = ("_service",)

    def __init__(self, service: EvaluationService):
        self._service = service

    def __enter__(self):
        svc = self._service
        with svc._lock:
            svc.requests += 1
            if svc._inflight >= svc.max_inflight:
                svc.shed += 1
                obs.count("server.requests.shed")
                raise ServerOverloadedError(svc._inflight, svc.max_inflight)
            svc._inflight += 1
        obs.count("server.requests")
        return svc

    def __exit__(self, *exc_info):
        with self._service._lock:
            self._service._inflight -= 1
        return False
