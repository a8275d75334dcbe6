"""``repro.observability`` — metrics, tracing and profiling for the stack.

Four interacting subsystems (degradation chains, the batch engine, compiled
kernels, the sparse solver backend) make the evaluation pipeline fast and
resilient — and opaque.  This package is the single pane of glass over all
of them:

- :mod:`~repro.observability.metrics` — a zero-dependency registry of
  counters, gauges and bounded-reservoir histograms (thread-safe,
  snapshot-to-dict, JSON export, cross-process merge);
- :mod:`~repro.observability.tracing` — nested spans with wall/CPU time,
  tags and parent ids, usable from worker processes with span merging on
  join;
- :mod:`~repro.observability.hooks` — the :class:`Hook` protocol plus
  shippable sinks (in-memory, JSONL file, profile summary table).

**The facade.**  Instrumented library code never talks to registries or
tracers directly; it calls the module-level helpers::

    from repro import observability as obs

    obs.count("cache.plan.hits")
    obs.gauge("budget.trials_used", n)
    obs.observe("batch.entry.seconds", dt)
    with obs.span("robust.tier", tier="symbolic"):
        ...

Counters always count: the registry is the one place an event count lives
(solver plans and factorizations, plan compilations, fused groups), so
tests and ``/v1/cache-stats`` read it whether or not collection is on.
``gauge``/``observe`` return immediately and ``span`` hands back a shared
no-op singleton while observability is disabled (the default) — one branch
each.  The ``BENCH_observability.json`` benchmark holds the disabled path
within 2 % of a facade of bare no-ops.

A forked pool worker that is not observing keeps its own counts; while
collection is on, each worker ships its counter deltas back and the parent
merges them (:func:`repro.engine.parallel.unpack_worker_payload`).

Enable with :func:`enable` (optionally passing hooks), read with
:func:`registry` / :func:`tracer`, snapshot with
``registry().snapshot()``, and restore the pristine state with
:func:`reset` (test isolation).
"""

from __future__ import annotations

import threading

from repro.observability.hooks import Hook, InMemorySink, JsonlSink, SummarySink
from repro.observability.metrics import (
    SCHEMA,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.observability.tracing import NO_SPAN, Span, Tracer

__all__ = [
    "SCHEMA",
    "Counter",
    "Gauge",
    "Histogram",
    "Hook",
    "InMemorySink",
    "JsonlSink",
    "MetricsRegistry",
    "NO_SPAN",
    "Span",
    "SummarySink",
    "Tracer",
    "count",
    "disable",
    "enable",
    "enabled",
    "gauge",
    "observe",
    "registry",
    "reset",
    "span",
    "tracer",
]

_lock = threading.Lock()
_enabled = False
_registry = MetricsRegistry()
_tracer = Tracer()


def enabled() -> bool:
    """True while metrics/tracing collection is on in this process."""
    return _enabled


def enable(
    registry: MetricsRegistry | None = None,
    tracer: Tracer | None = None,
    hooks=(),
) -> tuple[MetricsRegistry, Tracer]:
    """Turn collection on (idempotent); returns the active pair.

    Args:
        registry: use this registry (default: keep/create the global one).
        tracer: use this tracer (default: keep/create the global one).
        hooks: extra :class:`Hook` objects appended to the active tracer.
    """
    global _enabled, _registry, _tracer
    with _lock:
        if registry is not None:
            _registry = registry
        if tracer is not None:
            _tracer = tracer
        for hook in hooks:
            if hook not in _tracer.hooks:
                _tracer.hooks.append(hook)
        _enabled = True
    return _registry, _tracer


def disable() -> None:
    """Turn collection off (recorded data stays readable; counters keep
    counting)."""
    global _enabled
    with _lock:
        _enabled = False


def reset() -> None:
    """Disable and replace registry + tracer with fresh ones (tests)."""
    global _enabled, _registry, _tracer
    with _lock:
        _enabled = False
        _registry = MetricsRegistry()
        _tracer = Tracer()


def registry() -> MetricsRegistry:
    """The active :class:`MetricsRegistry` (readable even while disabled)."""
    return _registry


def tracer() -> Tracer:
    """The active :class:`Tracer` (readable even while disabled)."""
    return _tracer


# ---------------------------------------------------------------------------
# the hot-path helpers (counters always count; the rest are one-branch
# no-ops while disabled)
# ---------------------------------------------------------------------------


def count(name: str, amount: int = 1) -> None:
    """Bump a counter (whether or not collection is on)."""
    _registry.counter(name).inc(amount)


def gauge(name: str, value: float) -> None:
    """Set a gauge (no-op while disabled)."""
    if _enabled:
        _registry.gauge(name).set(value)


def observe(name: str, value: float) -> None:
    """Record one histogram observation (no-op while disabled)."""
    if _enabled:
        _registry.histogram(name).observe(value)


def span(name: str, **tags):
    """Open a traced span (the shared no-op span while disabled)."""
    if _enabled:
        return _tracer.span(name, **tags)
    return NO_SPAN
