"""Cold-import guard: one-shot calls load neither scipy nor the pool stack.

``import repro`` and the four one-shot CLI commands (``evaluate``,
``sweep``, ``batch``, ``closed-form``) each run in a fresh interpreter
that reports ``sys.modules`` on exit.  None of them may load scipy (a
dense one-shot solve is one ``numpy.linalg.solve``), the process-pool
stack or the shared-memory transport: those load on first real need,
which the last tests check still happens.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.dsl import dump_assembly
from repro.markov.solvers import scipy_available
from repro.scenarios import (
    local_assembly,
    recursive_assembly,
    remote_assembly,
)

SRC = Path(__file__).resolve().parents[2] / "src"

#: Modules a one-shot call must never load.
HEAVY = ("scipy", "concurrent.futures.process", "multiprocessing",
         "repro.engine.shm")

#: Prints the loaded module names as the last stderr line.
REPORT = "print('MODULES', ' '.join(sorted(sys.modules)), file=sys.stderr)\n"

#: Runs ``repro.cli.main`` on the arguments, then reports.
CLI = (
    "import sys\n"
    "from repro.cli import main\n"
    "try:\n"
    "    code = main(sys.argv[1:])\n"
    "finally:\n"
    f"    {REPORT}"
    "sys.exit(code)\n"
)

POINT = ["elem=1", "list=500", "res=1"]


@pytest.fixture(scope="module")
def models(tmp_path_factory):
    directory = tmp_path_factory.mktemp("cold")
    paths = {}
    for name, assembly in (("local", local_assembly()),
                           ("remote", remote_assembly()),
                           ("recursive", recursive_assembly())):
        paths[name] = directory / f"{name}.json"
        paths[name].write_text(dump_assembly(assembly))
    return {name: str(path) for name, path in paths.items()}


def loaded_modules(code: str, *argv: str) -> set[str]:
    """Module names loaded by ``python -c code argv`` in a fresh
    interpreter (which must succeed and end with :data:`REPORT`)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    run = subprocess.run([sys.executable, "-c", code, *argv], env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    last = run.stderr.strip().splitlines()[-1]
    assert last.startswith("MODULES "), run.stderr
    return set(last.split()[1:])


def heavy(modules: set[str]) -> list[str]:
    return [name for name in HEAVY if name in modules]


def test_import_repro_is_light():
    modules = loaded_modules("import sys, repro\n" + REPORT)
    assert heavy(modules) == []
    assert "repro.engine" not in modules


@pytest.mark.parametrize("command", ["evaluate", "sweep", "batch",
                                     "closed-form"])
def test_one_shot_command_is_light(models, command):
    argv = {
        "evaluate": ["evaluate", models["local"], "search", "--set", *POINT],
        "sweep": ["sweep", models["local"], "search", "list",
                  "--from", "5", "--to", "1200", "--points", "240",
                  "--set", "elem=1", "res=1"],
        "batch": ["batch", "search", "--model", models["local"],
                  "--model", models["remote"], "--at", *POINT,
                  "--at", "elem=1", "list=17", "res=1"],
        "closed-form": ["closed-form", models["local"], "search"],
    }[command]
    assert heavy(loaded_modules(CLI, *argv)) == []


@pytest.mark.skipif((os.cpu_count() or 1) < 2,
                    reason="--jobs 2 runs serially on one core")
def test_parallel_batch_loads_the_pool_stack(models):
    # symbolic groups run fused in the parent; a cyclic model's robust
    # group is what reaches the pool
    modules = loaded_modules(
        CLI, "batch", "A", "--model", models["recursive"],
        "--at", "size=1", "--at", "size=2", "--jobs", "2",
    )
    assert "concurrent.futures.process" in modules
    assert "multiprocessing" in modules


@pytest.mark.skipif(not scipy_available(), reason="needs scipy")
def test_sparse_solve_loads_scipy(models):
    modules = loaded_modules(CLI, "evaluate", models["local"], "search",
                             "--set", *POINT, "--solver", "sparse")
    assert "scipy" in modules
