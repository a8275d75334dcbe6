"""The metrics registry: counters, gauges and histograms with no deps.

Production observability needs three primitive shapes, and this module
implements exactly those — nothing imported beyond the standard library, so
the registry can sit below every other layer of :mod:`repro`:

- :class:`Counter` — a monotone event count (cache hits, solver
  factorizations, degradation-tier failures);
- :class:`Gauge` — a last-written level (budget trials consumed, worker
  fan-out of the current batch);
- :class:`Histogram` — a bounded-reservoir distribution (per-entry batch
  latency, queue wait), tracking exact ``count``/``sum``/``min``/``max``
  plus a fixed-size sample reservoir for quantile estimates.

All three are thread-safe; the :class:`MetricsRegistry` that owns them is a
get-or-create name index.  Snapshots are plain dicts under the
``repro/metrics/1`` schema (see ``tools/metrics_schema.json``), which makes
them JSON-exportable and — crucially for the worker-pool paths —
**mergeable**: a worker process snapshots its private registry and the
parent folds it in with :meth:`MetricsRegistry.merge` (counters add,
gauges take the incoming value, histograms combine moments and pool
reservoir samples), so ``--jobs 8`` reports the same aggregate counters as
``--jobs 1``.

The reservoir uses deterministic per-histogram seeding (derived from the
metric name), so two identically seeded runs produce bit-identical
snapshots — the determinism audit relies on that.
"""

from __future__ import annotations

import json
import random
import threading
import zlib

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "SCHEMA",
]

#: Schema tag stamped into every snapshot (validated by CI's metrics smoke).
SCHEMA = "repro/metrics/1"


class Counter:
    """A monotone, thread-safe event counter."""

    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._value = 0
        self._lock = threading.Lock()

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (must be non-negative: counters never go down)."""
        if amount < 0:
            raise ValueError(f"counters are monotone; cannot add {amount}")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        return self._value


class Gauge:
    """A last-written level (not monotone; set freely)."""

    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def add(self, delta: float) -> None:
        with self._lock:
            self._value += float(delta)

    @property
    def value(self) -> float:
        return self._value


class Histogram:
    """A bounded-reservoir distribution tracker.

    Exact moments (``count``, ``sum``, ``min``, ``max``) are kept for every
    observation; at most ``max_samples`` raw values are retained in a
    reservoir (Vitter's algorithm R) for quantile estimates.  The reservoir
    RNG is seeded from the metric name, so identical observation sequences
    yield identical snapshots.
    """

    __slots__ = (
        "_lock", "_rng", "count", "max", "max_samples", "min", "samples",
        "total",
    )

    def __init__(self, name: str = "", max_samples: int = 256) -> None:
        if max_samples < 1:
            raise ValueError(f"max_samples must be positive, got {max_samples}")
        self.max_samples = int(max_samples)
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        self.samples: list[float] = []
        self._rng = random.Random(zlib.crc32(name.encode()))
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        value = float(value)
        with self._lock:
            self.count += 1
            self.total += value
            if value < self.min:
                self.min = value
            if value > self.max:
                self.max = value
            if len(self.samples) < self.max_samples:
                self.samples.append(value)
            else:
                slot = self._rng.randrange(self.count)
                if slot < self.max_samples:
                    self.samples[slot] = value

    def quantile(self, q: float) -> float:
        """Reservoir-estimated ``q``-quantile (0 <= q <= 1; NaN if empty)."""
        with self._lock:
            samples = sorted(self.samples)
        if not samples:
            return float("nan")
        index = min(len(samples) - 1, max(0, round(q * (len(samples) - 1))))
        return samples[index]

    def snapshot(self) -> dict:
        with self._lock:
            count, total = self.count, self.total
            low, high = self.min, self.max
            samples = list(self.samples)
        if not count:
            return {"count": 0, "sum": 0.0}
        ordered = sorted(samples)

        def pick(q: float) -> float:
            return ordered[min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))]

        return {
            "count": count,
            "sum": total,
            "min": low,
            "max": high,
            "mean": total / count,
            "p50": pick(0.5),
            "p95": pick(0.95),
            "samples_kept": len(samples),
        }

    def _absorb(self, other: dict) -> None:
        """Fold a snapshot produced elsewhere (worker merge path)."""
        count = int(other.get("count", 0))
        if not count:
            return
        with self._lock:
            self.count += count
            self.total += float(other.get("sum", 0.0))
            self.min = min(self.min, float(other.get("min", self.min)))
            self.max = max(self.max, float(other.get("max", self.max)))
            # moments are exact; the reservoir only re-absorbs the summary
            # points a snapshot carries (quantiles stay estimates)
            for key in ("p50", "p95", "mean"):
                if key in other and len(self.samples) < self.max_samples:
                    self.samples.append(float(other[key]))


class MetricsRegistry:
    """A thread-safe, get-or-create name index of metrics.

    Metric names are dotted paths (``cache.plan.hits``,
    ``batch.entry.seconds``); the registry imposes no schema beyond
    non-empty strings, but instrumented code follows the
    ``<subsystem>.<object>.<event>`` convention documented in
    ``docs/observability_guide.md``.
    """

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}
        self._lock = threading.Lock()

    # -- get-or-create accessors -------------------------------------------

    def counter(self, name: str) -> Counter:
        metric = self._counters.get(name)
        if metric is None:
            with self._lock:
                metric = self._counters.setdefault(name, Counter())
        return metric

    def gauge(self, name: str) -> Gauge:
        metric = self._gauges.get(name)
        if metric is None:
            with self._lock:
                metric = self._gauges.setdefault(name, Gauge())
        return metric

    def histogram(self, name: str, max_samples: int = 256) -> Histogram:
        metric = self._histograms.get(name)
        if metric is None:
            with self._lock:
                metric = self._histograms.setdefault(
                    name, Histogram(name, max_samples=max_samples)
                )
        return metric

    def counter_value(self, name: str) -> int:
        """A counter's value, 0 if it never counted (creates nothing)."""
        metric = self._counters.get(name)
        return 0 if metric is None else metric.value

    # -- export ------------------------------------------------------------

    def snapshot(self) -> dict:
        """A plain-dict copy of every metric (the ``repro/metrics/1`` form)."""
        with self._lock:
            counters = dict(self._counters)
            gauges = dict(self._gauges)
            histograms = dict(self._histograms)
        return {
            "schema": SCHEMA,
            "counters": {k: v.value for k, v in sorted(counters.items())},
            "gauges": {k: v.value for k, v in sorted(gauges.items())},
            "histograms": {
                k: v.snapshot() for k, v in sorted(histograms.items())
            },
        }

    def to_json(self, indent: int | None = 2) -> str:
        """The snapshot rendered as JSON text."""
        return json.dumps(self.snapshot(), indent=indent, sort_keys=True)

    # -- aggregation -------------------------------------------------------

    def merge(self, snapshot: dict) -> None:
        """Fold a :meth:`snapshot` from another registry (e.g. a worker
        process) into this one: counters add, gauges take the incoming
        value, histograms combine moments and pool summary samples."""
        for name, value in snapshot.get("counters", {}).items():
            self.counter(name).inc(int(value))
        for name, value in snapshot.get("gauges", {}).items():
            self.gauge(name).set(float(value))
        for name, data in snapshot.get("histograms", {}).items():
            self.histogram(name)._absorb(data)

    def __len__(self) -> int:
        with self._lock:
            return (
                len(self._counters) + len(self._gauges) + len(self._histograms)
            )
