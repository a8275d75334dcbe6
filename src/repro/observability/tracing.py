"""Structured tracing: nested spans with wall/CPU time, tags and parents.

A *span* is one timed region of work — a degradation tier, a plan
compilation, a batch entry — with a name, free-form tags, and a parent, so
nested spans form the call tree of one evaluation.  The API is a context
manager::

    with tracer.span("robust.tier", tier="symbolic") as span:
        ...
        span.set_tag(result="ok")

Design constraints, in order:

1. **Disabled means free** — the facade in :mod:`repro.observability`
   short-circuits to a shared :data:`NO_SPAN` singleton before any of this
   module runs, so uninstrumented operation costs one branch.
2. **Usable from worker processes** — spans carry process-unique string
   ids (``"<pid>-<n>"``); a worker exports its finished spans as plain
   dicts and the parent re-parents them under the dispatching span with
   :meth:`Tracer.merge` ("span merging on join").
3. **Bounded memory** — a tracer retains at most ``max_spans`` finished
   spans (oldest kept, so the trace prefix survives) and counts the
   overflow in :attr:`Tracer.dropped`.

Hooks (see :mod:`repro.observability.hooks`) observe every span start and
end, which is how the JSONL trace file and the ``--profile``-style summary
table are produced without the tracer knowing about either.
"""

from __future__ import annotations

import itertools
import os
import threading
import time

__all__ = ["NO_SPAN", "Span", "Tracer"]


class Span:
    """One timed, tagged region of work.

    Attributes:
        name: the span's dotted name (``"robust.tier"``).
        tags: free-form string→value tags (set at creation or via
            :meth:`set_tag`).
        span_id: process-unique string id.
        parent_id: the enclosing span's id, or ``None`` for a root.
        wall: elapsed wall-clock seconds (populated by :meth:`finish`).
        cpu: elapsed process CPU seconds (populated by :meth:`finish`).
        status: ``"open"``, then ``"ok"`` or ``"error"``.
        error: ``"Type: message"`` for error spans, else ``""``.
    """

    __slots__ = (
        "_cpu0", "_t0", "cpu", "error", "name", "parent_id", "span_id",
        "started_at", "status", "tags", "wall",
    )

    def __init__(self, name: str, span_id: str, parent_id: str | None, tags: dict):
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.tags = tags
        self.started_at = time.time()
        self.status = "open"
        self.error = ""
        self.wall = 0.0
        self.cpu = 0.0
        self._t0 = time.perf_counter()
        self._cpu0 = time.process_time()

    def set_tag(self, **tags) -> None:
        """Attach or overwrite tags on an open span."""
        self.tags.update(tags)

    def finish(self, error: BaseException | None = None) -> None:
        """Close the span, recording wall/CPU time and the outcome."""
        if self.status != "open":
            return
        self.wall = time.perf_counter() - self._t0
        self.cpu = time.process_time() - self._cpu0
        if error is None:
            self.status = "ok"
        else:
            self.status = "error"
            self.error = f"{type(error).__name__}: {error}"

    def to_dict(self) -> dict:
        """Plain-dict form (JSONL export and cross-process transport)."""
        record = {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "started_at": self.started_at,
            "wall": self.wall,
            "cpu": self.cpu,
            "status": self.status,
        }
        if self.tags:
            record["tags"] = dict(self.tags)
        if self.error:
            record["error"] = self.error
        return record

    def __repr__(self) -> str:
        return (
            f"Span({self.name!r}, id={self.span_id}, status={self.status!r}, "
            f"wall={self.wall:.6f}s)"
        )


class _NoSpan:
    """The do-nothing span returned while tracing is disabled.

    A single shared instance; every method is a no-op so instrumented code
    never branches on "is tracing on" beyond the facade's one check.
    """

    __slots__ = ()

    def __enter__(self) -> "_NoSpan":
        return self

    def __exit__(self, *exc_info) -> bool:
        return False

    def set_tag(self, **tags) -> None:
        pass


#: The shared disabled-path span (see :class:`_NoSpan`).
NO_SPAN = _NoSpan()


class _SpanContext:
    """Context manager pairing one span with its tracer's stack."""

    __slots__ = ("_span", "_tracer")

    def __init__(self, tracer: "Tracer", span: Span):
        self._tracer = tracer
        self._span = span

    def __enter__(self) -> Span:
        return self._span

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._tracer._finish(self._span, exc)
        return False


class Tracer:
    """A thread-aware span factory with bounded retention and hooks.

    Args:
        hooks: objects implementing the
            :class:`~repro.observability.hooks.Hook` protocol, notified on
            every span start/end.
        max_spans: finished spans retained for :meth:`export` (the oldest
            are kept; overflow increments :attr:`dropped`).
    """

    def __init__(self, hooks=(), max_spans: int = 10_000):
        self.hooks = list(hooks)
        self.max_spans = int(max_spans)
        self.dropped = 0
        self.finished: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    # -- span lifecycle ----------------------------------------------------

    def span(self, name: str, **tags) -> _SpanContext:
        """Open a child of the current span (context manager yields it)."""
        stack = self._stack()
        parent = stack[-1].span_id if stack else None
        span = Span(name, f"{os.getpid()}-{next(self._ids)}", parent, tags)
        stack.append(span)
        for hook in self.hooks:
            hook.on_span_start(span)
        return _SpanContext(self, span)

    def current(self) -> Span | None:
        """The innermost open span on this thread, or ``None``."""
        stack = self._stack()
        return stack[-1] if stack else None

    def _finish(self, span: Span, error: BaseException | None) -> None:
        span.finish(error)
        stack = self._stack()
        if span in stack:  # tolerate exotic unwinding; never corrupt others
            while stack and stack[-1] is not span:
                stack.pop()
            stack.pop()
        self._record(span)
        for hook in self.hooks:
            hook.on_span_end(span)

    def _record(self, span: Span) -> None:
        with self._lock:
            if len(self.finished) < self.max_spans:
                self.finished.append(span)
            else:
                self.dropped += 1

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # -- export + merge ----------------------------------------------------

    def export(self) -> list[dict]:
        """Finished spans as plain dicts, in completion order."""
        with self._lock:
            return [span.to_dict() for span in self.finished]

    def merge(self, records: list[dict], parent: Span | None = None) -> int:
        """Adopt spans exported by another tracer (a worker process).

        Root spans of the incoming batch are re-parented under ``parent``
        (default: this thread's current span), so a worker's sub-tree hangs
        off the dispatching span in the joined trace.  Adopted spans are
        replayed to the hooks (start, then end), so a ``--trace`` file
        holds the workers' spans too.  Returns the number of spans adopted.
        """
        if parent is None:
            parent = self.current()
        parent_id = parent.span_id if parent is not None else None
        incoming_ids = {r.get("span_id") for r in records}
        adopted: list[Span] = []
        with self._lock:
            for record in records:
                span = Span.__new__(Span)
                span.name = record.get("name", "?")
                span.span_id = record.get("span_id", f"merged-{len(adopted)}")
                merged_parent = record.get("parent_id")
                if merged_parent not in incoming_ids:
                    merged_parent = parent_id
                span.parent_id = merged_parent
                span.started_at = float(record.get("started_at", 0.0))
                span.wall = float(record.get("wall", 0.0))
                span.cpu = float(record.get("cpu", 0.0))
                span.status = record.get("status", "ok")
                span.error = record.get("error", "")
                span.tags = dict(record.get("tags", {}))
                span._t0 = 0.0
                span._cpu0 = 0.0
                if len(self.finished) < self.max_spans:
                    self.finished.append(span)
                    adopted.append(span)
                else:
                    self.dropped += 1
        for span in adopted:
            for hook in self.hooks:
                hook.on_span_start(span)
                hook.on_span_end(span)
        return len(adopted)
