"""A pool worker killed hard surfaces as a typed WorkerCrashedError.

Every fail-fast fan-out (batch, numeric sweep, Monte-Carlo trial blocks,
fuzz shards) runs through :func:`repro.engine.parallel.fan_out`.  A
worker that dies without reporting back (SIGKILL, OOM, a native crash)
breaks the whole pool; whether that shows up while payloads are still
being submitted or while results are collected, the caller must get a
:class:`~repro.errors.WorkerCrashedError` (CLI exit 11) naming exactly
the entries whose results were lost, never a raw ``BrokenProcessPool``.
"""

import os
import signal
import time

import numpy as np
import pytest

from repro.analysis.sweep import sweep_parameter
from repro.engine import BatchEngine, BatchRequest, PlanCache
from repro.engine import parallel
from repro.engine.parallel import fan_out
from repro.errors import WorkerCrashedError
from repro.robustness.harness import FuzzHarness
from repro.scenarios import local_assembly, recursive_assembly
from repro.scenarios.recursive import RecursiveParameters
from repro.simulation import MonteCarloSimulator


def _kill_self(payload):  # pragma: no cover - dies by design
    os.kill(os.getpid(), signal.SIGKILL)


def _double_or_die(payload):  # pragma: no cover - runs in a pool worker
    if payload.get("die"):
        time.sleep(1.0)  # let every earlier result be collected first
        _kill_self(payload)
    return 2 * payload["x"]


@pytest.fixture(autouse=True)
def _two_cores(monkeypatch):
    # jobs is clamped to the cpu count; pretend there are enough cores
    # for a real pool on a one-core box
    monkeypatch.setattr(os, "cpu_count", lambda: 4)


class TestFanOut:
    def test_results_come_back_in_submission_order(self):
        payloads = [{"x": x} for x in range(7)]
        covers = [[x] for x in range(7)]
        results = fan_out("doubling", _double_or_die, payloads, covers, jobs=2)
        assert results == [2 * x for x in range(7)]

    def test_crash_at_collect_names_the_uncollected_entries(self):
        payloads = [{"x": 0}, {"x": 1}, {"x": 2, "die": True}, {"x": 3},
                    {"x": 4}]
        covers = [[0, 1], [2], [3, 4], [5], [6, 7]]
        with pytest.raises(WorkerCrashedError) as info:
            fan_out("doubling", _double_or_die, payloads, covers, jobs=2)
        assert info.value.indices == (3, 4, 5, 6, 7)
        assert isinstance(info.value.__cause__, Exception)

    def test_crash_during_a_long_submit_loop_is_typed(self):
        total = 3000
        submitted = []

        def payloads():
            for x in range(total):
                submitted.append(x)
                if x:
                    time.sleep(0.01)  # a slow dispatch: the pool breaks first
                yield {"x": x}

        covers = [[x] for x in range(total)]
        with pytest.raises(WorkerCrashedError) as info:
            fan_out("slow dispatch", _kill_self, payloads(), covers, jobs=2)
        assert len(submitted) < total  # raised while still submitting
        assert info.value.indices == tuple(range(total))


class TestCallers:
    def test_batch(self, monkeypatch):
        monkeypatch.setattr("repro.engine.batch.evaluate_plan_points",
                            _kill_self)
        models = [
            recursive_assembly(RecursiveParameters(internal_a=1e-3 * (k + 1)))
            for k in range(6)
        ]
        requests = [
            BatchRequest(model, "A", {"size": size})
            for model in models
            for size in (1.0, 2.0)
        ]
        engine = BatchEngine(jobs=2, cache=PlanCache())
        with pytest.raises(WorkerCrashedError) as info:
            engine.run(requests)
        assert info.value.indices == tuple(range(len(requests)))

    def test_numeric_sweep(self, monkeypatch):
        monkeypatch.setattr(parallel, "numeric_sweep_chunk", _kill_self)
        grid = np.linspace(1.0, 1000.0, 6)
        with pytest.raises(WorkerCrashedError) as info:
            sweep_parameter(local_assembly(), "search", "list", grid,
                            fixed={"elem": 1.0, "res": 1.0},
                            method="numeric", jobs=2)
        assert info.value.indices == tuple(range(6))

    def test_simulate(self, monkeypatch):
        monkeypatch.setattr(parallel, "simulate_block", _kill_self)
        simulator = MonteCarloSimulator(local_assembly(), seed=1)
        with pytest.raises(WorkerCrashedError) as info:
            simulator.estimate_pfail("search", 100, jobs=2, elem=1.0,
                                     list=500.0, res=1.0)
        assert info.value.indices == (0, 1)  # the two trial blocks

    def test_fuzz(self, monkeypatch):
        monkeypatch.setattr(parallel, "fuzz_block", _kill_self)
        harness = FuzzHarness(local_assembly(), seed=11)
        with pytest.raises(WorkerCrashedError) as info:
            harness.run(count=6, jobs=2)
        assert info.value.indices == tuple(range(6))

