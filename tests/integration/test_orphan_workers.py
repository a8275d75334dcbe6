"""A pool worker ends with the process that started it, however it ends.

A parent killed hard (SIGKILL, the OOM killer) runs no exit hook, so its
pool cannot be shut down; its workers are reparented and, unless they
watch for that, an idle one blocks on its call queue for good and a busy
one finishes its unit for nobody.  Both pools in the stack start their
workers with ``engine.parallel._exit_with_parent``: the campaign
supervisor's sacrificial pool and :func:`repro.engine.parallel.fan_out`'s
warm pool.  Each test SIGKILLs a parent with live workers and requires
every worker gone within 5 s.
"""

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[2] / "src"

pytestmark = pytest.mark.skipif(
    not Path("/proc/self/stat").exists(), reason="reads /proc"
)


def _stat(pid: int) -> list[str] | None:
    """The fields of ``/proc/<pid>/stat`` after the command name."""
    try:
        text = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    return text.rpartition(")")[2].split()


def children(pid: int) -> list[int]:
    """The live processes whose parent is ``pid``."""
    found = []
    for entry in Path("/proc").iterdir():
        if entry.name.isdigit():
            fields = _stat(int(entry.name))
            if fields and fields[1] == str(pid) and fields[0] != "Z":
                found.append(int(entry.name))
    return found


def alive(pid: int) -> bool:
    fields = _stat(pid)
    return fields is not None and fields[0] != "Z"  # a zombie has exited


def wait_for(predicate, timeout: float):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        value = predicate()
        if value:
            return value
        time.sleep(0.1)
    return predicate()


def kill_and_watch(parent: subprocess.Popen, workers: list[int]) -> list[int]:
    """SIGKILL ``parent``; return the workers still alive 5 s later."""
    parent.kill()
    parent.wait(10)
    wait_for(lambda: not any(alive(pid) for pid in workers), 5.0)
    survivors = [pid for pid in workers if alive(pid)]
    for pid in survivors:  # leave nothing behind for later tests
        os.kill(pid, signal.SIGKILL)
    return survivors


def start(args: list[str], cwd: Path) -> subprocess.Popen:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.Popen(
        [sys.executable, *args], cwd=cwd, env=env,
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
    )


def test_killed_supervisor_leaves_no_workers(tmp_path):
    model = tmp_path / "local.json"
    subprocess.run(
        [sys.executable, "-m", "repro", "export-scenario", "local",
         "-o", str(model)],
        check=True, env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
    )
    # unit 1 hangs for an hour; the other worker goes idle after unit 0
    parent = start([
        "-m", "repro", "sweep", str(model), "search", "list",
        "--from", "1", "--to", "100", "--points", "8",
        "--set", "elem=1", "res=1", "--store", "s.jsonl",
        "--jobs", "2", "--units", "2", "--chaos", "hang@1",
    ], tmp_path)
    try:
        workers = wait_for(
            lambda: (found := children(parent.pid))[1:] and found, 30.0
        )
        assert workers, "the campaign never started its two workers"
        store = tmp_path / "s.jsonl"
        assert wait_for(
            lambda: store.exists() and '"status":"done"' in store.read_text(),
            30.0,
        ), "unit 0 never finished"
        assert kill_and_watch(parent, workers) == []
    finally:
        if parent.poll() is None:
            parent.kill()
            parent.wait(10)


def test_killed_fan_out_caller_leaves_no_workers(tmp_path):
    parent = start(["-c", (
        "import time\n"
        "from repro.analysis import sweep_parameter\n"
        "from repro.scenarios import local_assembly\n"
        "sweep_parameter(local_assembly(), 'search', 'list', [1.0, 2.0],\n"
        "                {'elem': 1.0, 'res': 1.0}, method='numeric', jobs=2)\n"
        "print('ready', flush=True)\n"
        "time.sleep(600)\n"
    )], tmp_path)
    try:
        assert parent.stdout.readline().strip() == "ready"
        workers = children(parent.pid)
        assert len(workers) == 2  # the warm pool stays up between calls
        assert kill_and_watch(parent, workers) == []
    finally:
        if parent.poll() is None:
            parent.kill()
            parent.wait(10)
