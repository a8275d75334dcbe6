"""One batch, every path, the same typed errors.

A batch with failing entries — the recursive scenario at ``size=-1`` (every
tier of the robust chain fails), points missing a formal of a symbolic
model, and a model without the requested service — runs through the
serial engine, the process pool, a fresh campaign, the same campaign
resumed from its journal, and the daemon's ``/v1/batch``.  Every entry must
come back with the same class name and message on every path (and the
same ``Pfail`` where it succeeds).
"""

import json
import os

import pytest

from repro.dsl import assembly_to_dict, assembly_from_dict
from repro.engine import BatchEngine, BatchRequest
from repro.engine.parallel import fan_out
from repro.errors import EvaluationError, MarkovError
from repro.scenarios import local_assembly, recursive_assembly
from repro.server import ReproServer
from repro.workunits import assemble_batch, batch_campaign, run_campaign

SERVICE = "A"
POINTS = [{"size": 1.0}, {"size": -1.0}, {"elem": 1.0, "list": 500.0, "res": 1.0}]


def renamed_local() -> dict:
    """The local scenario with ``search`` renamed to ``A``: a symbolic model
    that shares the recursive scenario's service name but not its formals."""
    doc = assembly_to_dict(local_assembly())
    for service in doc["services"]:
        if service["name"] == "search":
            service["name"] = SERVICE
    for binding in doc["bindings"]:
        for end in ("consumer", "provider"):
            if binding[end] == "search":
                binding[end] = SERVICE
    return doc


MODELS = [
    ("recursive", assembly_to_dict(recursive_assembly())),
    ("local-as-A", renamed_local()),
    ("local", assembly_to_dict(local_assembly())),  # has no service "A"
]


@pytest.fixture(autouse=True)
def _two_cores(monkeypatch):
    # jobs is clamped to the cpu count; pretend there are enough cores
    # for a real pool on a one-core box
    monkeypatch.setattr(os, "cpu_count", lambda: 4)


def outcome(entry) -> tuple:
    if entry.ok:
        return ("ok", entry.pfail)
    return (type(entry.error).__name__, str(entry.error))


def engine_outcomes(jobs: int) -> list[tuple]:
    requests = [
        BatchRequest(assembly_from_dict(doc), SERVICE, point, label=label)
        for label, doc in MODELS
        for point in POINTS
    ]
    return [outcome(entry) for entry in BatchEngine(jobs=jobs).run(requests)]


def campaign_outcomes(store) -> list[tuple]:
    campaign = batch_campaign(
        [(label, assembly_from_dict(doc)) for label, doc in MODELS],
        SERVICE,
        POINTS,
    )
    report = run_campaign(campaign, store, jobs=2)
    assert not report.quarantined
    return [outcome(entry) for entry in assemble_batch(campaign, report)]


def daemon_outcomes() -> list[tuple]:
    import urllib.request

    body = {"requests": [
        {"model": doc, "service": SERVICE, "actuals": point, "label": label}
        for label, doc in MODELS
        for point in POINTS
    ]}
    server = ReproServer(port=0).start()
    try:
        request = urllib.request.Request(
            server.url + "/v1/batch", data=json.dumps(body).encode("utf-8"),
            headers={"Content-Type": "application/json"},
        )
        with urllib.request.urlopen(request, timeout=60) as reply:
            entries = json.loads(reply.read())["entries"]
    finally:
        server.stop()
    return [
        ("ok", entry["pfail"]) if entry["ok"]
        else (entry["error"]["type"], entry["error"]["message"])
        for entry in entries
    ]


def test_every_path_reports_the_same_entries(tmp_path):
    serial = engine_outcomes(jobs=1)
    assert [kind for kind, _ in serial] == [
        "ok", "AllTiersFailedError", "AllTiersFailedError",
        "UnboundParameterError", "UnboundParameterError", "ok",
        "UnknownServiceError", "UnknownServiceError", "UnknownServiceError",
    ]

    store = tmp_path / "batch.jsonl"
    paths = {
        "jobs=2": engine_outcomes(jobs=2),
        "campaign": campaign_outcomes(store),
        "resumed campaign": campaign_outcomes(store),
        "daemon": daemon_outcomes(),
    }
    for name, outcomes in paths.items():
        assert outcomes == serial, name


def _chained_failure(payload: dict):
    """Pool worker returning an error with a two-deep cause chain."""
    try:
        try:
            raise KeyError("missing-state")
        except KeyError as root:
            raise MarkovError("chain rebuild failed") from root
    except MarkovError as mid:
        error = EvaluationError("evaluation failed")
        error.__cause__ = mid
        return error


def test_root_causes_survive_the_pool_as_notes():
    with pytest.raises(EvaluationError) as caught:
        fan_out("chained failure", _chained_failure, [{}], [[0]], jobs=2)
    assert str(caught.value) == "evaluation failed"
    assert caught.value.__notes__ == [
        "caused by MarkovError: chain rebuild failed",
        "caused by KeyError: 'missing-state'",
    ]
