"""The HTTP daemon: stdlib ``ThreadingHTTPServer`` over the service core.

Zero new required dependencies — the transport is
:class:`http.server.ThreadingHTTPServer` (one thread per connection,
daemon threads), which is exactly the concurrency shape the warm caches
and the coalescer are built for.  An asyncio/FastAPI adapter can wrap the
same :class:`~repro.server.service.EvaluationService` later without
touching anything here.

Routes:

====== ================== =================================================
method path               handler
====== ================== =================================================
GET    ``/healthz``       liveness + uptime + request totals
GET    ``/metrics``       ``repro/metrics/1`` registry snapshot
GET    ``/v1/cache-stats`` plan/kernel/solver/model cache counters
POST   ``/v1/evaluate``   one prediction (coalesced, cached)
POST   ``/v1/batch``      many points, per-entry error isolation
POST   ``/v1/sweep``      one parameter across a grid (coalesced)
====== ================== =================================================

**Status taxonomy.**  Typed :class:`~repro.errors.ReproError` subclasses
map onto HTTP statuses the same way the CLI maps them onto exit codes
(:data:`HTTP_STATUS`; each error body carries the matching ``exit_code``
so a client can branch identically against either surface):
``ModelError``/malformed bodies → 400, engine refusals (symbolic, markov,
evaluation) → 422, admission shedding → 429, budget exhaustion → 503 with
``Retry-After``, numerical instability and internal failures → 500.

All logging goes to **stderr** (one startup banner, one line per request
unless ``quiet``); stdout stays machine-clean, matching the CLI's
stdout-comparability rule.
"""

from __future__ import annotations

import contextlib
import json
import os
import signal
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro import observability as obs
from repro.cli import exit_code_for
from repro.errors import (
    BudgetExceededError,
    EvaluationError,
    MarkovError,
    ModelError,
    NumericalInstabilityError,
    ReproError,
    RequestValidationError,
    ServerOverloadedError,
    SymbolicError,
)
from repro.server.service import EvaluationService

__all__ = ["HTTP_STATUS", "ReproServer", "http_status_for"]

#: The HTTP status taxonomy, most specific error class first — the
#: service-surface mirror of :data:`repro.cli.EXIT_CODES`.
HTTP_STATUS: tuple[tuple[type[ReproError], int], ...] = (
    (ServerOverloadedError, 429),
    (RequestValidationError, 400),
    (BudgetExceededError, 503),
    (NumericalInstabilityError, 500),
    (ModelError, 400),
    (SymbolicError, 422),
    (MarkovError, 422),
    (EvaluationError, 422),
    (ReproError, 500),
)


def http_status_for(error: ReproError) -> int:
    """The taxonomy HTTP status for a :class:`ReproError` instance."""
    for cls, status in HTTP_STATUS:
        if isinstance(error, cls):
            return status
    return 500  # pragma: no cover - HTTP_STATUS ends with ReproError


_banner_lock = threading.Lock()
_banners_emitted: set[str] = set()


def _log(message: str) -> None:
    """Server-side logging: always stderr, never stdout."""
    print(f"repro-server: {message}", file=sys.stderr, flush=True)


@contextlib.contextmanager
def _observe_latency():
    """Record per-request wall time as the ``server.request.seconds``
    histogram (free while metrics collection is disabled)."""
    started = time.perf_counter()
    try:
        yield
    finally:
        obs.observe("server.request.seconds", time.perf_counter() - started)


class _Handler(BaseHTTPRequestHandler):
    """Routes requests onto the owning server's ``EvaluationService``."""

    server_version = "repro-server/1"
    protocol_version = "HTTP/1.1"
    # TCP_NODELAY: a reply goes out as the header write plus the body
    # write, and with Nagle on the body waits for the client's delayed
    # ACK (~40 ms per keep-alive request)
    disable_nagle_algorithm = True

    # -- plumbing -----------------------------------------------------------

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        if not self.server.quiet:  # type: ignore[attr-defined]
            _log(f"{self.address_string()} {format % args}")

    def _reply(self, status: int, document: dict, headers=()) -> None:
        body = json.dumps(document, sort_keys=True).encode("utf-8") + b"\n"
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in headers:
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _reply_error(self, error: ReproError) -> None:
        status = http_status_for(error)
        obs.count(f"server.responses.{status}")
        headers = [("Retry-After", "1")] if status in (429, 503) else []
        self._reply(status, {
            "schema": "repro/server/1",
            "error": str(error),
            "type": type(error).__name__,
            "exit_code": exit_code_for(error),
        }, headers)

    def _read_body(self) -> dict:
        length = int(self.headers.get("Content-Length") or 0)
        limit = self.server.max_body_bytes  # type: ignore[attr-defined]
        if length > limit:
            raise RequestValidationError(
                self.path, [f"body of {length} bytes exceeds the "
                            f"{limit}-byte limit"]
            )
        raw = self.rfile.read(length) if length else b""
        try:
            document = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise RequestValidationError(
                self.path, [f"body is not valid JSON: {exc}"]
            ) from exc
        if not isinstance(document, dict):
            raise RequestValidationError(
                self.path,
                [f"body must be a JSON object, got "
                 f"{type(document).__name__}"],
            )
        return document

    # -- routes -------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        service: EvaluationService = self.server.service  # type: ignore[attr-defined]
        with obs.span("server.request", method="GET", path=self.path), \
                _observe_latency():
            if self.path == "/healthz":
                self._reply(200, service.health())
            elif self.path == "/metrics":
                self._reply(200, obs.registry().snapshot())
            elif self.path == "/v1/cache-stats":
                self._reply(200, service.cache_stats())
            else:
                self._reply(404, {
                    "schema": "repro/server/1",
                    "error": f"no such resource: {self.path}",
                    "type": "NotFound",
                    "exit_code": None,
                })

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        service: EvaluationService = self.server.service  # type: ignore[attr-defined]
        handlers = {
            "/v1/evaluate": service.evaluate,
            "/v1/batch": service.batch,
            "/v1/sweep": service.sweep,
        }
        handler = handlers.get(self.path)
        with obs.span("server.request", method="POST", path=self.path), \
                _observe_latency():
            try:
                if handler is None:
                    self._reply(404, {
                        "schema": "repro/server/1",
                        "error": f"no such resource: {self.path}",
                        "type": "NotFound",
                        "exit_code": None,
                    })
                    return
                with service.admit():
                    payload = self._read_body()
                    document = handler(payload)
                obs.count("server.responses.200")
                self._reply(200, document)
            except ReproError as exc:
                self._reply_error(exc)


class ReproServer:
    """A long-running reliability-prediction daemon, embeddable.

    Args:
        host: bind address (default loopback).
        port: TCP port; ``0`` picks an ephemeral one (tests, doctests).
        service: the :class:`EvaluationService` to serve (default: a
            fresh one with private caches).
        max_body_bytes: largest accepted request body.
        quiet: suppress per-request log lines (the banner still prints).

    Use :meth:`start`/:meth:`stop` to run on a background thread (tests,
    embedding), or :meth:`serve_forever` to own the process until
    SIGINT/SIGTERM (the CLI's ``serve`` command).
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        service: EvaluationService | None = None,
        max_body_bytes: int = 8 * 1024 * 1024,
        quiet: bool = True,
    ):
        self.service = service if service is not None else EvaluationService()
        self._httpd = ThreadingHTTPServer((host, port), _Handler)
        self._httpd.daemon_threads = True
        self._httpd.service = self.service  # type: ignore[attr-defined]
        self._httpd.max_body_bytes = int(max_body_bytes)  # type: ignore[attr-defined]
        self._httpd.quiet = bool(quiet)  # type: ignore[attr-defined]
        self._thread: threading.Thread | None = None

    # -- addressing ---------------------------------------------------------

    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        """The bound port (resolved even when constructed with ``port=0``)."""
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        """Base URL of the daemon, e.g. ``http://127.0.0.1:8349``."""
        return f"http://{self.host}:{self.port}"

    # -- lifecycle ----------------------------------------------------------

    def log_banner(self) -> None:
        """Print the startup banner to stderr, once per address per
        process — restarts and embedded re-announcements stay deduped."""
        with _banner_lock:
            if self.url in _banners_emitted:
                return
            _banners_emitted.add(self.url)
        _log(f"listening on {self.url} (pid {os.getpid()}, "
             f"max_inflight {self.service.max_inflight})")

    def start(self) -> "ReproServer":
        """Serve on a background daemon thread (returns immediately)."""
        if self._thread is not None:
            return self
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, daemon=True,
            name="repro-server",
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop serving and release the socket (idempotent)."""
        if self._thread is not None:
            self._httpd.shutdown()
            self._thread.join(timeout=10)
            self._thread = None
        self._httpd.server_close()

    def serve_forever(self) -> int:
        """Serve until SIGINT/SIGTERM; returns 0 on a clean shutdown.

        The accept loop runs on a background thread while the calling
        thread waits on the signal — ``shutdown()`` must never be called
        from the thread running ``serve_forever`` or it deadlocks.
        """
        stop = threading.Event()
        received: list[int] = []

        def request_shutdown(signum, frame):
            received.append(signum)
            stop.set()

        previous = {
            sig: signal.signal(sig, request_shutdown)
            for sig in (signal.SIGINT, signal.SIGTERM)
        }
        try:
            self.start()
            self.log_banner()
            stop.wait()
            name = signal.Signals(received[0]).name if received else "stop"
            _log(f"received {name}, shutting down")
            self.stop()
            _log(f"served {self.service.requests} request(s), bye")
            return 0
        finally:
            for sig, old_handler in previous.items():
                signal.signal(sig, old_handler)
