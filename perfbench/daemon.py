"""daemon-mix: ``python -m repro serve`` driven open-loop over keep-alive
connections -- the runtime service-selection traffic of the paper's
section 5, where clients ask for predictions on candidate assemblies
before they bind.

One generator process sends arrivals evenly spaced at ``RATE`` requests/s
over ``CONNECTIONS`` persistent HTTP/1.1 connections (one sender thread
each), with a seeded class sequence, and times each request from when it
was *due*, so a stalled reply also delays the requests queued behind it.
Bodies are encoded before the run, and replies are decoded after the
clock stops, so the generator's own JSON work stays out of the figures.  Request classes:

- ``hot``: ``/v1/evaluate`` on the paper's local/remote scenarios;
- ``candidate``: ``/v1/evaluate`` over ``CANDIDATES`` distinct candidate
  models -- more than the daemon's model cache (64), fewer than its plan
  cache (256);
- ``sweep``: a 240-point ``/v1/sweep``;
- ``batch``: a 4-entry ``/v1/batch``;
- ``pair``: one fresh candidate sent on both connections at the same
  instant, which exercises the coalescer.

``hot`` holds 70% of the arrivals and is the fastest class, so the median
sits inside it rather than on a boundary between classes.
"""

from __future__ import annotations

import copy
import http.client
import json
import random
import re
import threading
import time
from pathlib import Path

from common import (
    Outcome, median, ms, percentile, program_env, reap, repro_cmd, spawn,
)
from inputs import GOLDEN_LISTS

RATE = 32.0            # reference offered rate, requests/s
STALL_MS = 30.0        # a transport time above this waited on a delayed ACK
CONNECTIONS = 2        # = nproc on the reference machine
CANDIDATES = 128
PAIR_MODELS = 64       # fresh models for coalesced pairs
SHARES = (("hot", 0.70), ("candidate", 0.18), ("sweep", 0.04),
          ("batch", 0.04), ("pair", 0.04))
LADDER = (12.0, 24.0, 48.0, 96.0)   # offered rates for max_rps_at_slo
SLO_P90_MS = 250.0
RUNG_SECONDS = 3.0
FIXED = {"elem": 1.0, "res": 1.0}


class Traffic:
    """Seeded models, request bodies and their in-process answers."""

    def __init__(self, seed: int):
        from repro.dsl.loader import assembly_from_dict
        from repro.dsl.serializer import assembly_to_dict
        from repro.scenarios import local_assembly, remote_assembly

        self.seed = seed
        self.rng = random.Random(seed)
        self.hot = {"local": assembly_to_dict(local_assembly()),
                    "remote": assembly_to_dict(remote_assembly())}
        self.candidates = [self._variant(i) for i in range(CANDIDATES)]
        self.pair_models = [self._variant(CANDIDATES + i)
                            for i in range(PAIR_MODELS)]
        self._assembly = assembly_from_dict
        self._plans: dict[str, object] = {}
        self.expected: dict[str, object] = {}

    def _variant(self, i: int) -> dict:
        """A candidate provider: the local or remote scenario with a
        re-drawn processor speed (a published attribute >= 1e-4)."""
        doc = copy.deepcopy(self.hot["local" if i % 2 else "remote"])
        doc["name"] = f"candidate-{i}"
        for service in doc["services"]:
            attributes = service.get("interface", {}).get("attributes", {})
            if "speed" in attributes:
                attributes["speed"] = attributes["speed"] * self.rng.uniform(
                    0.5, 2.0)
        return doc

    def _pfail(self, doc: dict, actuals: dict) -> float:
        from repro.engine.plan import compile_plan

        key = json.dumps(doc, sort_keys=True)
        if key not in self._plans:
            self._plans[key] = compile_plan(self._assembly(doc), "search")
        return float(self._plans[key].pfail(actuals))

    def request(self, kind: str, rng: random.Random, pair_index: int = 0):
        """``(path, body, expected)`` for one request of class ``kind``."""
        if kind in ("hot", "candidate", "pair"):
            doc = (self.hot[rng.choice(("local", "remote"))]
                   if kind == "hot" else
                   rng.choice(self.candidates) if kind == "candidate"
                   else self.pair_models[pair_index % PAIR_MODELS])
            actuals = {**FIXED, "list": float(rng.choice(GOLDEN_LISTS))}
            body = {"model": doc, "service": "search", "actuals": actuals}
            return "/v1/evaluate", body, self._pfail(doc, actuals)
        if kind == "sweep":
            from repro.analysis import sweep_parameter

            name = rng.choice(("local", "remote"))
            body = {"model": self.hot[name], "service": "search",
                    "parameter": "list", "start": 5, "stop": 1200,
                    "points": 240, "fixed": FIXED}
            if name not in self.expected:
                grid = [float(v) for v in range(5, 1201, 5)]
                self.expected[name] = [float(p) for p in sweep_parameter(
                    self._assembly(self.hot[name]), "search", "list", grid,
                    FIXED).pfail]
            return "/v1/sweep", body, self.expected[name]
        entries, want = [], []
        for name in ("local", "remote"):
            for value in rng.sample(GOLDEN_LISTS, 2):
                actuals = {**FIXED, "list": float(value)}
                entries.append({"model": self.hot[name], "service": "search",
                                "actuals": actuals})
                want.append(self._pfail(self.hot[name], actuals))
        return "/v1/batch", {"requests": entries}, want


def schedule(traffic: Traffic, rate: float, seconds: float, part: int = 0):
    """Open-loop arrivals: ``[(due, connection, kind, path, body, want)]``.
    Plain arrivals alternate between connections; a pair goes to both."""
    rng = random.Random(f"{traffic.seed}-{rate}-{seconds}-{part}")
    kinds, weights = zip(*SHARES)
    plan, pairs, slot = [], 0, 0
    for i in range(int(rate * seconds)):
        due = i / rate
        kind = rng.choices(kinds, weights)[0]
        path, body, want = traffic.request(kind, rng, pairs)
        body = json.dumps(body).encode()
        if kind == "pair":
            pairs += 1
            for connection in range(CONNECTIONS):
                plan.append((due, connection, kind, path, body, want))
        else:
            plan.append((due, slot % CONNECTIONS, kind, path, body, want))
            slot += 1
    return plan


def _answer_ok(kind: str, status: int, document: dict, want) -> bool:
    if status != 200:
        return False
    if kind == "sweep":
        return document.get("pfail") == want
    if kind == "batch":
        return [e.get("pfail") for e in document.get("entries", ())] == want
    return document.get("pfail") == want


def drive(port: int, plan: list, result: Outcome | None) -> list[dict]:
    """Send ``plan`` open-loop; one thread and one keep-alive connection
    per connection index.  Returns one record per request."""
    records: list[dict] = []
    lock = threading.Lock()
    start = time.perf_counter() + 0.05

    def sender(index: int) -> None:
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
        free_at = start
        try:
            for due, connection, kind, path, body, want in plan:
                if connection != index:
                    continue
                due_at = start + due
                delay = due_at - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                sent = time.perf_counter()
                try:
                    conn.request("POST", path, body,
                                 {"Content-Type": "application/json"})
                    response = conn.getresponse()
                    status, raw = response.status, response.read()
                except (OSError, http.client.HTTPException):
                    conn.close()
                    conn = http.client.HTTPConnection("127.0.0.1", port,
                                                      timeout=60)
                    status, raw = 0, b"{}"
                done = time.perf_counter()
                try:
                    document = json.loads(raw)
                except ValueError:
                    status, document = 0, {}
                record = {
                    "kind": kind, "due": due, "latency": done - due_at,
                    "rtt": done - sent,
                    "lateness": max(0.0, sent - max(due_at, free_at)),
                    "elapsed": document.get("elapsed_seconds"),
                    "ok": _answer_ok(kind, status, document, want),
                }
                free_at = done
                with lock:
                    records.append(record)
        finally:
            conn.close()

    threads = [threading.Thread(target=sender, args=(i,))
               for i in range(CONNECTIONS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if result is not None:
        for record in records:
            result.check(record["ok"], f"{record['kind']} request failed or "
                                       "answered wrong")
    return records


def _get(port: int, path: str) -> dict:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        conn.request("GET", path)
        return json.loads(conn.getresponse().read())
    finally:
        conn.close()


class Daemon:
    """One ``repro serve`` child, up and warmed."""

    def __init__(self, ctx, traffic: Traffic, index: int):
        self.log = ctx.work / f"serve-{index}.log"
        started = time.perf_counter()
        with self.log.open("w") as err:
            self.proc = spawn(repro_cmd("serve", "--port", "0", "--quiet"),
                              env=program_env(write_bytecode=True),
                              stderr=err)
        self.port = self._wait_port()
        rng = random.Random(traffic.seed)
        warm = []
        for kind in ("hot", "sweep", "batch"):
            path, body, want = traffic.request(kind, rng)
            warm.append((0.0, 0, kind, path, json.dumps(body).encode(), want))
        drive(self.port, warm, None)
        self.setup_s = time.perf_counter() - started

    def _wait_port(self) -> int:
        deadline = time.perf_counter() + 60
        while time.perf_counter() < deadline:
            found = re.search(r"listening on http://127\.0\.0\.1:(\d+)",
                              self.log.read_text())
            if found:
                return int(found.group(1))
            if self.proc.poll() is not None:
                break
            time.sleep(0.01)
        raise RuntimeError(f"daemon did not start: {self.log.read_text()}")

    def peak_rss_mb(self) -> float:
        """The live daemon's peak RSS so far (``VmHWM``), in MB."""
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        return int(re.search(r"VmHWM:\s+(\d+) kB", status).group(1)) / 1024

    def stop(self) -> float:
        """SIGTERM, wait, and return the daemon's peak RSS in MB."""
        self.proc.terminate()
        return reap(self.proc)


def _hit_rate(after: dict, before: dict, section: str) -> float:
    hits = after[section]["hits"] - before[section]["hits"]
    misses = after[section]["misses"] - before[section]["misses"]
    return hits / (hits + misses) if hits + misses else 0.0


def _class_ms(records, kind) -> float:
    values = [r["latency"] for r in records if r["kind"] == kind]
    return ms(median(values)) if values else 0.0


def max_rps_at_slo(port: int, traffic: Traffic) -> float:
    """Highest ladder rate whose p90 latency meets the limit with no
    failed request and no growing backlog: the p90 of the last third of
    the rung, by due time, must meet the limit too."""
    best = 0.0
    for rate in LADDER:
        records = drive(port, schedule(traffic, rate, RUNG_SECONDS), None)
        ordered = [r["latency"] for r in sorted(records,
                                                key=lambda r: r["due"])]
        last = ordered[-max(1, len(ordered) // 3):]
        if (not all(r["ok"] for r in records)
                or ms(percentile(ordered, 90)) > SLO_P90_MS
                or ms(percentile(last, 90)) > SLO_P90_MS):
            break
        best = rate
    return best


def run(ctx) -> Outcome:
    result = Outcome()
    traffic = Traffic(ctx.seed)
    daemons = [Daemon(ctx, traffic, trial)
               for trial in range(ctx.setup_trials)]
    setups = [daemon.setup_s for daemon in daemons]
    seconds = 2.0 if ctx.smoke else ctx.seconds

    if not ctx.trace:
        # each set-up daemon serves an equal share of the window, so one
        # process's luck (hash seed, memory layout) does not set the figure
        records = []
        for part, daemon in enumerate(daemons):
            records += drive(daemon.port, schedule(
                traffic, RATE, seconds / len(daemons), part), result)
        latencies = [r["latency"] for r in records]
        result.notes.append(
            f"{len(records)} requests; p50 {ms(median(latencies)):.1f} ms, "
            f"p90 {ms(percentile(latencies, 90)):.1f} ms")
        result.metrics = {"setup_s": median(setups),
                          "latency_p50_ms": ms(median(latencies)),
                          "peak_rss_mb": max(d.stop() for d in daemons)}
        return result

    daemon = daemons[0]
    plan = schedule(traffic, RATE, seconds / 2)

    plain = drive(daemon.port, plan, result)
    plain_rss = daemon.stop()
    daemon = Daemon(ctx, traffic, ctx.setup_trials)
    before = _get(daemon.port, "/v1/cache-stats")
    records = drive(daemon.port, plan, result)
    after = _get(daemon.port, "/v1/cache-stats")
    latencies = [r["latency"] for r in records]
    timed = [r for r in records if r["elapsed"] is not None]
    pairs = sum(1 for r in records if r["kind"] == "pair") / CONNECTIONS
    server_before, server_after = before["server"], after["server"]
    metrics = {
        "server.latency_p99_ms": ms(percentile(latencies, 99)),
        "server.elapsed_p50_ms": ms(median([r["elapsed"] for r in timed])),
        "server.transport_p50_ms":
            ms(median([r["rtt"] - r["elapsed"] for r in timed])),
        "server.transport_stall_share": sum(
            1 for r in timed if ms(r["rtt"] - r["elapsed"]) > STALL_MS
        ) / len(timed),
        "server.evaluate_hot_ms": _class_ms(records, "hot"),
        "server.evaluate_candidate_ms": _class_ms(records, "candidate"),
        "server.sweep_ms": _class_ms(records, "sweep"),
        "server.batch_ms": _class_ms(records, "batch"),
        "server.model_cache.hit_rate": _hit_rate(after, before, "model"),
        "engine.plan_cache.hit_rate": _hit_rate(after, before, "plan"),
        "symbolic.kernel_cache.hit_rate": _hit_rate(after, before, "kernel"),
        "server.coalesced_ratio": (server_after["coalesced"]
                                   - server_before["coalesced"]) / pairs
        if pairs else 0.0,
        "server.shed": server_after["shed"] - server_before["shed"],
        "server.evaluations":
            server_after["evaluations"] - server_before["evaluations"],
        "gen.lateness_p99_ms":
            ms(percentile([r["lateness"] for r in records], 99)),
    }
    rss = daemon.peak_rss_mb()
    if not ctx.smoke:
        metrics["server.max_rps_at_slo"] = max_rps_at_slo(daemon.port,
                                                          traffic)
    daemon.stop()
    metrics.update({
        "trace.overhead.setup_s": daemon.setup_s - setups[0],
        "trace.overhead.latency_p50_ms":
            ms(median(latencies) - median([r["latency"] for r in plain])),
        "trace.overhead.peak_rss_mb": rss - plain_rss,
    })
    result.metrics = metrics
    return result
