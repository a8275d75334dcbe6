"""The fan-out pool is warm: one per worker count, reused until it breaks.

:func:`repro.engine.parallel.fan_out` keeps a process-wide pool per
``jobs`` value.  Consecutive fan-outs land on the same worker processes; a
worker killed hard retires the pool and the next fan-out starts a fresh
one; a fan-out that trips its own deadline cancels only its own payloads,
so the pool and any fan-out running on another thread carry on; and the
interpreter shuts the pool down when it exits.
"""

import os
import pickle
import signal
import subprocess
import sys
import textwrap
import threading
import time
from pathlib import Path

import pytest

from repro.dsl import dump_assembly
from repro.engine import BatchEngine, PlanCache, compile_plan
from repro.engine import parallel
from repro.engine.parallel import evaluate_plan_points, fan_out
from repro.errors import BudgetExceededError, WorkerCrashedError
from repro.runtime import EvaluationBudget
from repro.scenarios import recursive_assembly

SRC = Path(__file__).resolve().parents[2] / "src"


def _pid_after(payload):  # pragma: no cover - runs in a pool worker
    time.sleep(payload.get("sleep", 0.0))
    return os.getpid()


def _pids_per_point(payload):  # pragma: no cover - runs in a pool worker
    time.sleep(0.2)  # keep one worker busy so the other takes a chunk
    return [float(os.getpid())] * len(payload["points"])


def _double(payload):  # pragma: no cover - runs in a pool worker
    return 2 * payload["x"]


def _kill_self(payload):  # pragma: no cover - dies by design
    os.kill(os.getpid(), signal.SIGKILL)


def _gone(pid) -> bool:
    """True once ``pid`` has exited (a zombie awaiting its reaper counts)."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    try:
        return Path(f"/proc/{pid}/stat").read_text().split(")")[-1].split()[0] == "Z"
    except OSError:
        return True


def _pids(count, sleep=0.2):
    """The worker pid behind each of ``count`` concurrent payloads."""
    payloads = [{"sleep": sleep} for _ in range(count)]
    return fan_out("pids", _pid_after, payloads, [[i] for i in range(count)],
                   jobs=2)


@pytest.fixture(autouse=True)
def _two_cores(monkeypatch):
    # jobs is clamped to the cpu count; pretend there are enough cores
    # for a real pool on a one-core box
    monkeypatch.setattr(os, "cpu_count", lambda: 4)


def test_consecutive_batches_run_on_the_same_workers(monkeypatch):
    monkeypatch.setattr("repro.engine.batch.evaluate_plan_points",
                        _pids_per_point)
    engine = BatchEngine(jobs=2, cache=PlanCache())
    points = [{"size": 1.0}, {"size": 2.0}]
    first = set(engine.evaluate(recursive_assembly(), "A", points).pfails())
    second = set(engine.evaluate(recursive_assembly(), "A", points).pfails())
    assert len(first) == 2
    assert second == first


def test_a_crash_retires_the_pool_and_the_next_fan_out_starts_fresh():
    before = set(_pids(2))
    with pytest.raises(WorkerCrashedError):
        fan_out("crash", _kill_self, [{}], [[0]], jobs=2)
    after = set(_pids(2))
    assert len(after) == 2
    assert after.isdisjoint(before)


def test_a_tripped_deadline_leaves_the_pool_usable():
    before = set(_pids(2))
    payloads = [{"sleep": 0.3} for _ in range(6)]
    with pytest.raises(BudgetExceededError):
        fan_out("slow", _pid_after, payloads, [[i] for i in range(6)],
                jobs=2, budget=EvaluationBudget(deadline=0.1).start())
    # the cancelled call's running payloads may still hold a worker, so
    # the next call can land on one worker; either way, the same pool
    assert set(_pids(2)) <= before


def test_concurrent_fan_outs_keep_their_own_failures():
    outcome = {}

    def tripping():
        payloads = [{"sleep": 0.2} for _ in range(6)]
        try:
            fan_out("tripping", _pid_after, payloads,
                    [[i] for i in range(6)], jobs=2,
                    budget=EvaluationBudget(deadline=0.1).start())
        except BudgetExceededError as exc:
            outcome["tripped"] = exc

    thread = threading.Thread(target=tripping)
    thread.start()
    time.sleep(0.05)
    payloads = [{"x": x} for x in range(20)]
    results = fan_out("clean", _double, payloads, [[i] for i in range(20)],
                      jobs=2)
    thread.join(timeout=60)
    assert not thread.is_alive()
    assert isinstance(outcome.get("tripped"), BudgetExceededError)
    assert results == [2 * x for x in range(20)]


def test_no_payloads_start_no_pool(monkeypatch):
    def refuse(jobs):
        raise AssertionError("an empty fan-out started a pool")

    monkeypatch.setattr(parallel, "_pool", refuse)
    assert fan_out("nothing", _pid_after, [], [], jobs=2) == []
    assert fan_out("nothing", _pid_after, iter(()), [], jobs=2) == []


def test_an_exiting_interpreter_shuts_the_pool_down():
    script = textwrap.dedent("""
        import os, time
        from repro.engine.parallel import fan_out

        def pid(payload):
            time.sleep(0.2)
            return os.getpid()

        if __name__ == "__main__":
            print(*set(fan_out("pids", pid, [{}, {}], [[0], [1]], jobs=2)))
    """)
    started = time.monotonic()
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        timeout=60, env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert done.returncode == 0, done.stderr
    assert time.monotonic() - started < 10.0
    pids = [int(pid) for pid in done.stdout.split()]
    assert pids
    assert all(_gone(pid) for pid in pids)


def test_an_exiting_batch_prints_no_teardown_traceback(tmp_path):
    """A ``--jobs 2`` batch leaves its warm pool to the exit hook, which
    shuts it down before module teardown.  The pool module is held by
    ``sys`` here, as a test runner's module registry holds it: left to
    teardown, the executor would be collected after ``concurrent.futures``
    lost its globals and print "Exception ignored in … weakref_cb"."""
    model = tmp_path / "recursive.json"
    model.write_text(dump_assembly(recursive_assembly()))
    script = textwrap.dedent(f"""
        import sys
        from repro.cli import main
        from repro.engine import parallel

        if __name__ == "__main__":
            sys.kept = parallel
            sys.exit(main(["batch", "A", "--model", {str(model)!r},
                           "--at", "size=1", "--at", "size=2", "--jobs", "2"]))
    """)
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        timeout=60, env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert done.returncode == 0, done.stderr
    assert "2 worker(s)" in done.stdout
    assert "Exception ignored" not in done.stderr, done.stderr


def test_a_worker_reuses_the_plans_it_was_sent():
    plan = compile_plan(recursive_assembly(), "A")
    first, second = (pickle.loads(pickle.dumps(plan)) for _ in range(2))
    point = {"size": 2.0}
    (expected,) = evaluate_plan_points({"plan": first, "points": [point]})
    warm = first._evaluator
    assert warm is not None
    assert evaluate_plan_points({"plan": second, "points": [point]}) == [expected]
    assert second._evaluator is None  # the warm copy served the point
    assert first._evaluator is warm


def test_workers_do_not_outlive_a_parent_killed_hard():
    script = textwrap.dedent("""
        import os, time
        from repro.engine.parallel import fan_out

        def pid(payload):
            time.sleep(0.2)
            return os.getpid()

        if __name__ == "__main__":
            pids = set(fan_out("pids", pid, [{}, {}], [[0], [1]], jobs=2))
            print(*pids, flush=True)
            time.sleep(60)
    """)
    parent = subprocess.Popen(
        [sys.executable, "-c", script], stdout=subprocess.PIPE, text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    try:
        pids = [int(pid) for pid in parent.stdout.readline().split()]
    finally:
        parent.kill()
        parent.wait(timeout=60)
    assert pids
    deadline = time.monotonic() + 10.0
    while not all(_gone(pid) for pid in pids) and time.monotonic() < deadline:
        time.sleep(0.2)
    assert all(_gone(pid) for pid in pids)
