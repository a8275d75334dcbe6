"""One batch, every path, the same typed errors.

A batch with failing entries — the recursive scenario at ``size=-1`` (every
tier of the robust chain fails), points missing a formal of a symbolic
model, and a model without the requested service — runs through the
serial engine, the process pool, a fresh campaign, the same campaign
resumed from its journal, and the daemon's ``/v1/batch``.  Every entry must
come back with the same class name and message on every path (and the
same ``Pfail`` where it succeeds).  The same holds for the batch under a
sweep, state or depth cap: every path runs it under the whole budget.
"""

import json
import os

import pytest

from repro.analysis import sweep_parameter
from repro.dsl import assembly_to_dict, assembly_from_dict
from repro.engine import BatchEngine, BatchRequest
from repro.engine.parallel import fan_out
from repro.errors import BudgetExceededError, EvaluationError, MarkovError
from repro.runtime import EvaluationBudget
from repro.scenarios import local_assembly, recursive_assembly
from repro.server import ReproServer
from repro.simulation import MonteCarloSimulator
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


def engine_outcomes(jobs: int, limits=None) -> list[tuple]:
    requests = [
        BatchRequest(assembly_from_dict(doc), SERVICE, point, label=label)
        for label, doc in MODELS
        for point in POINTS
    ]
    engine = BatchEngine(jobs=jobs, budget=EvaluationBudget.from_dict(limits))
    return [outcome(entry) for entry in engine.run(requests)]


def campaign_outcomes(store, limits=None) -> list[tuple]:
    campaign = batch_campaign(
        [(label, assembly_from_dict(doc)) for label, doc in MODELS],
        SERVICE,
        POINTS,
    )
    report = run_campaign(
        campaign, store, jobs=2, budget=EvaluationBudget.from_dict(limits)
    )
    assert not report.quarantined
    return [outcome(entry) for entry in assemble_batch(campaign, report)]


def daemon_outcomes(limits=None) -> list[tuple]:
    import urllib.request

    body = {"requests": [
        {"model": doc, "service": SERVICE, "actuals": point, "label": label}
        for label, doc in MODELS
        for point in POINTS
    ]}
    if limits:
        body["budget"] = limits
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


def assert_every_path_matches(serial, store, limits=None) -> None:
    paths = {
        "jobs=2": engine_outcomes(jobs=2, limits=limits),
        "campaign": campaign_outcomes(store, limits),
        "resumed campaign": campaign_outcomes(store, limits),
        "daemon": daemon_outcomes(limits),
    }
    for name, outcomes in paths.items():
        assert outcomes == serial, name


def test_every_path_reports_the_same_entries(tmp_path):
    serial = engine_outcomes(jobs=1)
    assert [kind for kind, _ in serial] == [
        "ok", "AllTiersFailedError", "AllTiersFailedError",
        "UnboundParameterError", "UnboundParameterError", "ok",
        "UnknownServiceError", "UnknownServiceError", "UnknownServiceError",
    ]
    assert_every_path_matches(serial, tmp_path / "batch.jsonl")


@pytest.mark.parametrize("limit, value", [
    ("sweeps", 2),  # trips in the numeric tier's fixed-point solve
    ("states", 3),  # trips in the numeric tier's absorbing solve
    ("depth", 1),   # trips while the plan compiles
])
def test_a_budgeted_batch_reports_the_same_entries_on_every_path(
    tmp_path, limit, value
):
    limits = {f"max_{limit}": value}
    serial = engine_outcomes(jobs=1, limits=limits)
    kind, message = serial[0]  # the recursive model at size=1
    assert kind != "ok" and f"{limit} limit {value}" in message
    assert_every_path_matches(serial, tmp_path / "batch.jsonl", limits)


@pytest.mark.parametrize("jobs", [1, 2])
def test_a_budgeted_numeric_sweep_fails_alike_at_any_jobs(jobs):
    with pytest.raises(BudgetExceededError, match=r"sweeps limit 2 \(used 3\)"):
        sweep_parameter(
            recursive_assembly(), SERVICE, "size", [1.0, 2.0, 3.0, 4.0],
            method="numeric", jobs=jobs, budget=EvaluationBudget(max_sweeps=2),
        )


@pytest.mark.parametrize("route", [
    ["--jobs", "1"], ["--jobs", "2"], ["--store", "sweep.jsonl"],
])
def test_a_budgeted_sweep_exits_alike_on_every_route(
    tmp_path, capsys, monkeypatch, route
):
    from repro.cli import main
    from repro.dsl import dump_assembly

    monkeypatch.chdir(tmp_path)
    (tmp_path / "rec.json").write_text(dump_assembly(recursive_assembly()))
    code = main([
        "sweep", "rec.json", SERVICE, "size", "--from", "1", "--to", "4",
        "--points", "4", "--method", "numeric", "--max-sweeps", "2", *route,
    ])
    assert code == 8
    assert "error[BudgetExceededError]: evaluation budget exceeded during " \
        "fixed-point iteration: sweeps limit 2 (used 3)" in capsys.readouterr().err


def test_a_parallel_estimate_may_spend_the_whole_trial_cap():
    # trials are charged once, by the caller; the workers get no trial cap
    budget = EvaluationBudget(max_trials=1000)
    estimate = MonteCarloSimulator(
        local_assembly(), seed=1, budget=budget
    ).estimate_pfail("search", 1000, jobs=2, elem=1, list=500, res=1)
    assert estimate.trials == 1000
    assert budget.trials_used == 1000


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
