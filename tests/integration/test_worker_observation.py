"""Forked pool workers ship their metrics and spans back to the parent.

A forked worker inherits the parent's enabled collection flag, so the
flag cannot tell it whether it is in a process of its own; the pid in the
payload's ``observe`` field can.  At ``jobs=2`` the numeric sweep and a
robust batch do their solves in workers, so the parent's snapshot only
shows ``solver.*`` counters, and the worker spans only hang under
``sweep.run``/``batch.run``, when the workers shipped them.  A numeric
sweep worker runs its chunk as a serial ``sweep_parameter``, so its own
``sweep.run`` span sits between the two.
"""

import os

import numpy as np
import pytest

from repro import observability as obs
from repro.analysis import sweep_parameter
from repro.engine import BatchEngine, PlanCache
from repro.scenarios import local_assembly, recursive_assembly


@pytest.fixture
def collect(monkeypatch):
    # one-core boxes clamp jobs to 1; pretend there are cores enough to
    # exercise the pool
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    obs.reset()
    obs.enable()
    yield
    obs.reset()


def _worker_children(root: str) -> list:
    """Finished spans recorded in another process whose parent is the
    parent's own ``root`` span."""
    spans = obs.tracer().finished
    own = f"{os.getpid()}-"
    (run,) = [
        s for s in spans if s.name == root and s.span_id.startswith(own)
    ]
    return [
        s for s in spans
        if s.parent_id == run.span_id and not s.span_id.startswith(own)
    ]


def test_numeric_sweep_workers_report_solver_work(collect):
    sweep_parameter(
        local_assembly(), "search", "list", np.linspace(1.0, 1000.0, 6),
        fixed={"elem": 1.0, "res": 1.0}, method="numeric", jobs=2,
    )
    counters = obs.registry().snapshot()["counters"]
    assert counters.get("solver.factorizations", 0) > 0
    assert any(name.startswith("cache.solver.") for name in counters)
    # each worker runs its chunk as a serial sweep of its own
    chunks = _worker_children("sweep.run")
    assert [s.name for s in chunks] == ["sweep.run", "sweep.run"]
    ids = {s.span_id for s in chunks}
    points = [s for s in obs.tracer().finished if s.parent_id in ids]
    assert {s.name for s in points} == {"evaluator.pfail"}
    assert len(points) == 6


def test_robust_batch_workers_report_solver_work(collect):
    points = [{"size": float(v)} for v in (1, 2, 3, 4)]
    result = BatchEngine(jobs=2, cache=PlanCache()).evaluate(
        recursive_assembly(), "A", points
    )
    assert result.ok
    counters = obs.registry().snapshot()["counters"]
    assert counters.get("solver.factorizations", 0) > 0
    assert "robust.evaluate" in {s.name for s in _worker_children("batch.run")}
