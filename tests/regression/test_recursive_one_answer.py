"""One answer per recursive model, whatever the path.

A recursive assembly's ``Pfail`` is the least fixed point the numeric
evaluator solves.  Every entry point — the evaluator itself (fresh or
reused), the robust chain, the CLI's ``evaluate``/``--robust``/``--report``,
sweeps of either method at one or two workers, batches at one or two
workers, the daemon's ``/v1/evaluate`` and ``/v1/sweep``, and a sweep
campaign run and resumed — returns that number bit for bit (the CLI prints
it at its own precision), or the same typed error: a service re-entered
under other actuals is :class:`~repro.errors.CyclicAssemblyError`, a solve
past ``MAX_SWEEPS`` is :class:`~repro.errors.FixedPointDivergenceError`.
On the robust chain (``--robust``, batch, ``/v1/evaluate``) the error is
the numeric tier's diagnostic inside an
:class:`~repro.errors.AllTiersFailedError`.
"""

import json
import os
import subprocess
import sys
import threading
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro.analysis import sweep_parameter
from repro.cli import main
from repro.core import ReliabilityEvaluator, fixed_point
from repro.dsl import dump_assembly
from repro.engine import BatchEngine, BatchRequest, compile_plan
from repro.errors import (
    AllTiersFailedError,
    CyclicAssemblyError,
    FixedPointDivergenceError,
)
from repro.runtime import RobustEvaluator
from repro.scenarios import RecursiveParameters, recursive_assembly
from repro.server import ReproServer
from repro.workunits import assemble_sweep, run_campaign, sweep_campaign
from tests.recursive_models import descending_recursion, never_terminating_assembly

SIZES = (1.0, 2.0, 3.0)
MODELS = {
    **{
        f"r={r}": lambda r=r: recursive_assembly(
            RecursiveParameters(recursion_probability=r)
        )
        for r in (0.0, 0.5, 0.9, 0.99)
    },
    "never": never_terminating_assembly,  # the Kleene fallback
}
REPO = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def want() -> dict[str, list[str]]:
    """Each point's answer from a fresh evaluator, as ``float.hex``."""
    return {
        label: [ReliabilityEvaluator(build()).pfail("A", size=size).hex()
                for size in SIZES]
        for label, build in MODELS.items()
    }


def hexes(values) -> list[str]:
    return [float(value).hex() for value in values]


def write(tmp_path, label: str, assembly=None) -> str:
    path = tmp_path / f"{label}.json"
    path.write_text(dump_assembly(assembly or MODELS[label]()))
    return str(path)


def post(url: str, document: dict) -> dict:
    request = urllib.request.Request(
        url, data=json.dumps(document).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=30) as reply:
        return json.loads(reply.read())


def post_error(url: str, document: dict) -> tuple[int, str]:
    with pytest.raises(urllib.error.HTTPError) as info:
        post(url, document)
    return info.value.code, info.value.read().decode()


@pytest.fixture(scope="module")
def server():
    server = ReproServer(port=0).start()
    yield server
    server.stop()


# -- the same bits -----------------------------------------------------------


@pytest.mark.parametrize("label", list(MODELS))
def test_evaluator_fresh_reused_robust_and_report(label, want):
    evaluator = ReliabilityEvaluator(MODELS[label]())
    robust = RobustEvaluator(MODELS[label]())
    for order in (SIZES, SIZES[::-1]):
        got = {}
        for size in order:
            got[size] = evaluator.pfail("A", size=size)
            evaluator.pfail("B", size=size)
        assert hexes(got[size] for size in SIZES) == want[label]
    results = [robust.evaluate("A", size=size) for size in SIZES]
    assert {result.tier for result in results} == {"numeric"}
    assert hexes(result.pfail for result in results) == want[label]
    reports = [ReliabilityEvaluator(MODELS[label]()).report("A", size=size)
               for size in SIZES]
    assert hexes(report.pfail for report in reports) == want[label]


@pytest.mark.parametrize("label", list(MODELS))
def test_cli_evaluate_robust_and_report(label, want, tmp_path, capsys):
    path = write(tmp_path, label)
    for size, expected in zip(SIZES, want[label]):
        value = float.fromhex(expected)
        bindings = ["--set", f"size={size:g}"]
        assert main(["evaluate", path, "A", *bindings]) == 0
        assert f"Pfail(A) = {value:.9e}\n" in capsys.readouterr().out
        assert main(["evaluate", path, "A", "--robust", *bindings]) == 0
        assert capsys.readouterr().out.startswith(
            f"Pfail(A) = {value:.6e} via numeric tier\n"
        )
        assert main(["evaluate", path, "A", "--report", *bindings]) == 0
        assert f": Pfail = {value:.6e} " in capsys.readouterr().out


@pytest.mark.parametrize("method", ["symbolic", "numeric"])
@pytest.mark.parametrize("jobs", [1, 2])
def test_sweep(method, jobs, want, tmp_path, capsys):
    for label, build in MODELS.items():
        result = sweep_parameter(build(), "A", "size", SIZES, method=method,
                                 jobs=jobs)
        assert hexes(result.pfail) == want[label]
    path = write(tmp_path, "r=0.9")
    assert main(["sweep", path, "A", "size", "--from", "1", "--to", "3",
                 "--points", "3", "--method", method, "--jobs", str(jobs)]) == 0
    out = capsys.readouterr().out
    for expected in want["r=0.9"]:
        assert f"{float.fromhex(expected):.6e}" in out


@pytest.mark.parametrize("jobs", [1, 2])
def test_batch(jobs, want):
    engine = BatchEngine(jobs=jobs)
    requests = [
        BatchRequest(build(), "A", {"size": size}, label=label)
        for label, build in MODELS.items() for size in SIZES
    ]
    flat = [value for label in MODELS for value in want[label]]
    for _ in range(2):  # cold, then on the warm plans
        result = engine.run(requests)
        assert {entry.backend for entry in result.entries} == {"robust"}
        assert hexes(result.pfails()) == flat


def test_concurrent_points_on_one_robust_plan(want):
    """The daemon's handler threads share one cached plan per model; a
    solve keeps per-call state on the plan's evaluator, so concurrent
    points must not see each other's sweeps."""
    plan = compile_plan(MODELS["r=0.9"](), "A")
    answers: dict[float, set[str]] = {size: set() for size in SIZES}

    def work(size: float) -> None:
        for _ in range(10):
            answers[size].add(plan.pfail({"size": size}).hex())

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(size,))
                   for size in SIZES * 2]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert [answers[size] for size in SIZES] == [{h} for h in want["r=0.9"]]


def test_daemon_evaluate_and_sweep(server, want):
    for label, build in MODELS.items():
        model = json.loads(dump_assembly(build()))
        for size, expected in zip(SIZES, want[label]):
            reply = post(server.url + "/v1/evaluate",
                         {"model": model, "service": "A", "actuals": {"size": size}})
            assert float(reply["pfail"]).hex() == expected
        for method in ("symbolic", "numeric"):
            reply = post(server.url + "/v1/sweep", {
                "model": model, "service": "A", "parameter": "size",
                "start": 1, "stop": 3, "points": 3, "method": method,
            })
            assert hexes(reply["pfail"]) == want[label]


def test_campaign_run_and_resumed(tmp_path, want):
    for label, build in MODELS.items():
        campaign = sweep_campaign(build(), "A", "size", list(SIZES), {},
                                  method="symbolic", units=2)
        store = tmp_path / f"{label}.jsonl"
        report = run_campaign(campaign, store)
        assert hexes(assemble_sweep(campaign, report).pfail) == want[label]
        resumed = run_campaign(campaign, store)
        assert resumed.executed == set()
        assert hexes(assemble_sweep(campaign, resumed).pfail) == want[label]


# -- the same typed error ----------------------------------------------------


def assert_refused_everywhere(assembly, error, tmp_path, capsys, server):
    """Every in-process path refuses ``assembly``'s ``A(size=2)`` with
    ``error`` (the numeric tier's diagnostic on the robust chain)."""
    name = error.__name__
    with pytest.raises(error):
        ReliabilityEvaluator(assembly).pfail("A", size=2)
    with pytest.raises(error):
        ReliabilityEvaluator(assembly).report("A", size=2)
    with pytest.raises(AllTiersFailedError) as info:
        RobustEvaluator(assembly).evaluate("A", size=2)
    numeric = {d.tier: d.error for d in info.value.diagnostics}["numeric"]
    assert type(numeric) is error
    for method in ("symbolic", "numeric"):
        with pytest.raises(error):
            sweep_parameter(assembly, "A", "size", [2.0], method=method)
    entry, = BatchEngine(jobs=1, cache=False).evaluate(assembly, "A", [{"size": 2}])
    assert f"numeric: {name}: " in str(entry.error)

    path = write(tmp_path, "refused", assembly)
    assert main(["evaluate", path, "A", "--set", "size=2"]) == 6
    assert f"error[{name}]: " in capsys.readouterr().err
    assert main(["evaluate", path, "A", "--report", "--set", "size=2"]) == 6
    assert f"error[{name}]: " in capsys.readouterr().err
    assert main(["evaluate", path, "A", "--robust", "--set", "size=2"]) == 6
    assert f"numeric: {name}: " in capsys.readouterr().err

    model = json.loads(dump_assembly(assembly))
    code, body = post_error(server.url + "/v1/evaluate",
                            {"model": model, "service": "A", "actuals": {"size": 2}})
    assert code == 422 and f"numeric: {name}: " in body
    code, body = post_error(server.url + "/v1/sweep", {
        "model": model, "service": "A", "parameter": "size",
        "start": 2, "stop": 3, "points": 2,
    })
    assert code == 422 and name in body

    campaign = sweep_campaign(assembly, "A", "size", [2.0], {}, method="symbolic")
    report = run_campaign(campaign, retries=0)
    assert not report.ok
    assert [text.startswith(f"{name}: ") for text in report.quarantined.values()] \
        == [True]


def test_reentry_under_other_actuals_is_refused(tmp_path, capsys, server):
    assert_refused_everywhere(
        descending_recursion(), CyclicAssemblyError, tmp_path, capsys, server
    )
    # and at two workers
    with pytest.raises(CyclicAssemblyError):
        sweep_parameter(descending_recursion(), "A", "size", [2.0, 3.0],
                        method="numeric", jobs=2)
    entries = BatchEngine(jobs=2, cache=False).evaluate(
        descending_recursion(), "A", [{"size": 2}, {"size": 3}]
    ).entries
    assert all("numeric: CyclicAssemblyError: " in str(e.error) for e in entries)


def test_sweep_cap_is_a_divergence(monkeypatch, tmp_path, capsys, server):
    monkeypatch.setattr(fixed_point, "MAX_SWEEPS", 2)
    assert_refused_everywhere(
        recursive_assembly(), FixedPointDivergenceError, tmp_path, capsys, server
    )


@pytest.mark.parametrize("argv, error", [
    (["sweep", "{path}", "A", "size", "--from", "1", "--to", "2",
      "--points", "2", "--method", "symbolic", "--jobs", "2"],
     "error[FixedPointDivergenceError]: "),
    (["batch", "A", "--model", "{path}", "--at", "size=1", "--at", "size=2",
      "--jobs", "2"],
     "numeric: FixedPointDivergenceError: "),
])
def test_sweep_cap_is_a_divergence_at_two_workers(argv, error, tmp_path):
    """Pool workers fork from a process whose cap is already lowered."""
    path = write(tmp_path, "r=0.5")
    script = (
        "import sys; import repro.core.fixed_point as f; f.MAX_SWEEPS = 2; "
        "from repro.cli import main; sys.exit(main(sys.argv[1:]))"
    )
    run = subprocess.run(
        [sys.executable, "-c", script, *(a.format(path=path) for a in argv)],
        capture_output=True, text=True, timeout=120, cwd=REPO,
        env={**os.environ, "PYTHONPATH": str(REPO / "src")},
    )
    assert run.returncode in (1, 6), run.stderr
    assert error in run.stdout + run.stderr
