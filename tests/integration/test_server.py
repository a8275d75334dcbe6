"""Integration tests: the daemon end to end, over real sockets.

A live ``ThreadingHTTPServer`` on an ephemeral port serves every test;
requests go through ``urllib`` exactly as an external client's would.
Includes the coalescing proof (N identical in-flight requests, one
solve), the error-taxonomy round trips, and validation of ``/metrics``
with the same checker CI uses (``tools/validate_metrics.py``).
"""

import http.client
import json
import socket
import statistics
import sys
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro import observability as obs
from repro.dsl import dump_assembly
from repro.engine.cache import PlanCache
from repro.scenarios import local_assembly
from repro.server import EvaluationService, ReproServer
from repro.server.app import _Handler

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "tools"))

import gen_api_reference  # noqa: E402
import validate_metrics  # noqa: E402

MODEL = json.loads(dump_assembly(local_assembly()))
POINT = {"elem": 1, "list": 500, "res": 1}


def post(url: str, document: dict) -> dict:
    request = urllib.request.Request(
        url, data=json.dumps(document).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=30) as reply:
        return json.loads(reply.read())


def get(url: str) -> dict:
    with urllib.request.urlopen(url, timeout=30) as reply:
        return json.loads(reply.read())


def post_error(url: str, body: bytes) -> urllib.error.HTTPError:
    request = urllib.request.Request(url, data=body)
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        urllib.request.urlopen(request, timeout=30)
    return excinfo.value


@pytest.fixture(scope="module")
def server():
    obs.reset()
    obs.enable()
    server = ReproServer(port=0).start()
    yield server
    server.stop()
    obs.reset()


def test_evaluate_round_trip(server):
    reply = post(server.url + "/v1/evaluate",
                 {"model": MODEL, "service": "search", "actuals": POINT})
    assert reply["schema"] == "repro/server/1"
    assert reply["pfail"] == pytest.approx(0.004035, abs=5e-6)
    assert reply["reliability"] == pytest.approx(1 - reply["pfail"])
    assert reply["backend"] == "symbolic"
    assert reply["elapsed_seconds"] >= 0


def test_repeat_request_hits_every_warm_layer(server):
    payload = {"model": MODEL, "service": "search", "actuals": POINT}
    post(server.url + "/v1/evaluate", payload)
    before = get(server.url + "/v1/cache-stats")
    post(server.url + "/v1/evaluate", payload)
    after = get(server.url + "/v1/cache-stats")
    assert after["plan"]["hits"] > before["plan"]["hits"]
    assert after["model"]["hits"] > before["model"]["hits"]
    assert after["server"]["requests"] > before["server"]["requests"]


def test_batch_round_trip_with_per_entry_error_isolation(server):
    reply = post(server.url + "/v1/batch", {"requests": [
        {"model": MODEL, "service": "search", "actuals": POINT,
         "label": "good"},
        {"model": MODEL, "service": "no-such-service", "actuals": POINT,
         "label": "bad"},
    ]})
    assert reply["ok"] is False  # one entry failed ...
    good, bad = reply["entries"]
    assert good["ok"] is True  # ... but the other still completed
    assert good["pfail"] == pytest.approx(0.004035, abs=5e-6)
    assert good["error"] is None
    assert bad["ok"] is False
    assert bad["pfail"] is None
    assert bad["error"]["type"]
    assert "no-such-service" in bad["error"]["message"]
    assert reply["stats"]["entries"] == 2


def test_sweep_round_trip(server):
    reply = post(server.url + "/v1/sweep", {
        "model": MODEL, "service": "search", "parameter": "list",
        "start": 1, "stop": 1000, "points": 5,
        "fixed": {"elem": 1, "res": 1},
    })
    assert reply["values"] == pytest.approx([1.0, 250.75, 500.5, 750.25, 1000.0])
    assert reply["pfail"][1:] == pytest.approx(
        [0.001805, 0.004039, 0.006436, 0.008935], abs=5e-6)
    assert reply["method"] == "symbolic"


def test_symbolic_sweep_answer_does_not_depend_on_earlier_evaluate(server):
    """A symbolic sweep of a recursive model answers each point's least
    fixed point on a cold plan cache, and the same bits after
    ``/v1/evaluate`` cached the model's robust plan; ``/v1/evaluate``
    answers the same bits at its point."""
    from repro.core import ReliabilityEvaluator
    from repro.scenarios import recursive_assembly

    model = json.loads(dump_assembly(recursive_assembly()))
    sweep = {"model": model, "service": "A", "parameter": "size",
             "start": 1, "stop": 3, "points": 3}
    want = [ReliabilityEvaluator(recursive_assembly()).pfail("A", size=size)
            for size in (1.0, 2.0, 3.0)]
    cold = post(server.url + "/v1/sweep", sweep)
    assert cold["pfail"] == want
    evaluated = post(server.url + "/v1/evaluate", {
        "model": model, "service": "A", "actuals": {"size": 1}})
    assert evaluated["backend"] == "robust"
    assert evaluated["pfail"] == want[0]
    # a new grid, so the coalescer cannot answer from the cold sweep
    warm = post(server.url + "/v1/sweep", {**sweep, "stop": 2, "points": 2})
    assert warm["pfail"] == want[:2]


def test_coalescing_n_identical_inflight_requests_solve_once():
    """The tentpole concurrency proof: hold the leader's computation at a
    gate, pile N-1 identical requests behind it, release, and check that
    exactly one solve happened while every caller got the answer."""

    class GatedPlanCache(PlanCache):
        def __init__(self):
            super().__init__(64)
            self.gate = threading.Event()
            self.compute_calls = 0

        def get_or_compile(self, *args, **kwargs):
            self.compute_calls += 1
            assert self.gate.wait(timeout=30)
            return super().get_or_compile(*args, **kwargs)

    cache = GatedPlanCache()
    service = EvaluationService(plan_cache=cache)
    server = ReproServer(port=0, service=service).start()
    try:
        n = 6
        replies = []
        errors = []

        def request():
            try:
                replies.append(post(
                    server.url + "/v1/evaluate",
                    {"model": MODEL, "service": "search", "actuals": POINT},
                ))
            except Exception as exc:  # pragma: no cover - diagnostic
                errors.append(exc)

        threads = [threading.Thread(target=request) for _ in range(n)]
        for thread in threads:
            thread.start()
        # wait until the leader is inside the gated computation and the
        # other n-1 requests are registered as followers, then release
        deadline = time.monotonic() + 30
        while service.coalescer.followers < n - 1:
            assert time.monotonic() < deadline, (
                f"only {service.coalescer.followers} followers queued")
            time.sleep(0.01)
        cache.gate.set()
        for thread in threads:
            thread.join(timeout=30)

        assert errors == []
        assert cache.compute_calls == 1          # one solve for n requests
        assert service.evaluations == 1
        pfails = {reply["pfail"] for reply in replies}
        assert len(pfails) == 1                  # everyone got the answer
        coalesced = sorted(reply["coalesced"] for reply in replies)
        assert coalesced == [False] + [True] * (n - 1)
    finally:
        cache.gate.set()
        server.stop()


def test_malformed_json_answers_400(server):
    error = post_error(server.url + "/v1/evaluate", b"this is not json")
    assert error.code == 400
    document = json.loads(error.read())
    assert document["type"] == "RequestValidationError"
    assert document["exit_code"] == 10


def test_schema_violation_answers_400_with_problem_paths(server):
    error = post_error(
        server.url + "/v1/evaluate",
        json.dumps({"model": MODEL, "service": "search",
                    "solver": "auto"}).encode(),
    )
    assert error.code == 400
    assert "$: unexpected key 'solver'" in json.loads(error.read())["error"]


@pytest.mark.parametrize("path, body", [
    ("/v1/evaluate", {"model": MODEL, "service": "search"}),
    ("/v1/batch", {"requests": [{"model": MODEL, "service": "search"}]}),
    ("/v1/sweep", {"model": MODEL, "service": "search", "parameter": "list",
                   "start": 1, "stop": 10, "fixed": {"elem": 1, "res": 1}}),
])
@pytest.mark.parametrize("key", ["compile", "fused"])
def test_removed_compile_and_fused_fields_answer_400(server, path, body,
                                                     key):
    error = post_error(server.url + path,
                       json.dumps({**body, key: True}).encode())
    assert error.code == 400
    assert f"unexpected key {key!r}" in json.loads(error.read())["error"]


def test_model_error_answers_400(server):
    error = post_error(
        server.url + "/v1/evaluate",
        json.dumps({"model": {"schema": "bogus/9"},
                    "service": "search"}).encode(),
    )
    assert error.code == 400
    document = json.loads(error.read())
    assert document["exit_code"] == 3


def test_budget_exhaustion_answers_503_with_retry_after(server):
    error = post_error(
        server.url + "/v1/evaluate",
        json.dumps({"model": MODEL, "service": "search", "actuals": POINT,
                    "budget": {"deadline": 0}}).encode(),
    )
    assert error.code == 503
    assert error.headers["Retry-After"] == "1"
    document = json.loads(error.read())
    assert document["type"] == "BudgetExceededError"
    assert document["exit_code"] == 8


def test_overload_sheds_with_429():
    service = EvaluationService(max_inflight=0)
    server = ReproServer(port=0, service=service).start()
    try:
        error = post_error(
            server.url + "/v1/evaluate",
            json.dumps({"model": MODEL, "service": "search"}).encode(),
        )
        assert error.code == 429
        assert error.headers["Retry-After"] == "1"
        assert json.loads(error.read())["type"] == "ServerOverloadedError"
        assert service.shed == 1
    finally:
        server.stop()


def test_oversized_body_is_rejected_before_reading():
    server = ReproServer(port=0, max_body_bytes=64).start()
    try:
        error = post_error(server.url + "/v1/evaluate", b"x" * 200)
        assert error.code == 400
        assert "exceeds" in json.loads(error.read())["error"]
    finally:
        server.stop()


def _wait_for_close(sock: socket.socket) -> None:
    """Block until the server closes ``sock`` (EOF or reset)."""
    sock.settimeout(10)
    try:
        assert sock.recv(1024) == b""
    except ConnectionResetError:
        pass


@pytest.fixture
def short_timeout_server(monkeypatch):
    monkeypatch.setattr(_Handler, "timeout", 0.5)
    server = ReproServer(port=0).start()
    yield server
    server.stop()


def test_handler_sets_a_connection_timeout():
    assert 0 < _Handler.timeout <= 60


def test_truncated_body_connection_is_closed(short_timeout_server):
    server = short_timeout_server
    with socket.create_connection(("127.0.0.1", server.port)) as sock:
        sock.sendall(b"POST /v1/evaluate HTTP/1.1\r\nHost: x\r\n"
                     b"Content-Length: 100\r\n\r\n{\"model\"")
        # a normal client is answered while the stalled one is pending
        reply = post(server.url + "/v1/evaluate",
                     {"model": MODEL, "service": "search", "actuals": POINT})
        assert reply["schema"] == "repro/server/1"
        started = time.monotonic()
        _wait_for_close(sock)
    assert time.monotonic() - started < 5
    assert server.service.inflight == 0


def test_idle_half_request_is_closed(short_timeout_server):
    server = short_timeout_server
    with socket.create_connection(("127.0.0.1", server.port)) as sock:
        sock.sendall(b"POST /v1/evaluate HTTP/1.1\r\nHost: x\r\n")
        started = time.monotonic()
        _wait_for_close(sock)
    assert time.monotonic() - started < 5


def test_unknown_paths_answer_404(server):
    assert post_error(server.url + "/v1/nope", b"{}").code == 404
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        urllib.request.urlopen(server.url + "/nope", timeout=30)
    assert excinfo.value.code == 404


def test_healthz_shape(server):
    health = get(server.url + "/healthz")
    assert health["status"] == "ok"
    assert health["pid"] > 0
    assert health["requests"]["total"] >= 0
    assert health["requests"]["inflight"] == 0


def test_metrics_endpoint_is_schema_valid(server):
    post(server.url + "/v1/evaluate",
         {"model": MODEL, "service": "search", "actuals": POINT})
    snapshot = get(server.url + "/metrics")
    problems = validate_metrics.validate_document(
        snapshot, expect_counters=["server.requests", "server.responses."],
    )
    assert problems == []
    assert snapshot["counters"]["server.evaluations"] >= 1
    assert "server.request.seconds" in snapshot["histograms"]


def test_responses_stay_on_one_connectionless_line(server):
    # every response must carry an accurate Content-Length (HTTP/1.1
    # keep-alive): a wrong length would hang this second request
    for _ in range(2):
        reply = post(server.url + "/v1/evaluate",
                     {"model": MODEL, "service": "search", "actuals": POINT})
        assert reply["schema"] == "repro/server/1"


def test_handler_disables_nagle():
    # a reply is two writes (headers, body); with Nagle on, the body waits
    # for the client's delayed ACK on every keep-alive request
    assert _Handler.disable_nagle_algorithm is True


def test_keep_alive_round_trips_do_not_stall(server):
    body = json.dumps(
        {"model": MODEL, "service": "search", "actuals": POINT}
    ).encode("utf-8")
    connection = http.client.HTTPConnection("127.0.0.1", server.port,
                                            timeout=30)
    seconds = []
    try:
        for _ in range(30):
            started = time.perf_counter()
            connection.request("POST", "/v1/evaluate", body=body,
                               headers={"Content-Type": "application/json"})
            reply = connection.getresponse()
            assert json.loads(reply.read())["schema"] == "repro/server/1"
            seconds.append(time.perf_counter() - started)
    finally:
        connection.close()
    # a delayed-ACK stall costs ~40 ms per request; a hot evaluate ~2 ms
    assert statistics.median(seconds) < 0.02, seconds


def test_stop_is_idempotent_and_releases_the_port():
    server = ReproServer(port=0).start()
    port = server.port
    server.stop()
    server.stop()  # second stop is a no-op
    # the port is free again: a new server can bind it immediately
    rebound = ReproServer(port=port)
    rebound.start()
    rebound.stop()


def test_api_reference_is_up_to_date():
    committed = (ROOT / "docs" / "api_reference.md").read_text()
    assert committed == gen_api_reference.render(), (
        "docs/api_reference.md is stale; regenerate with "
        "PYTHONPATH=src python tools/gen_api_reference.py"
    )
