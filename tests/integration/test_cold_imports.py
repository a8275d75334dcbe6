"""Cold-import guard: one-shot calls load neither scipy nor the pool stack.

``import repro`` and the four one-shot CLI commands (``evaluate``,
``sweep``, ``batch``, ``closed-form``) each run in a fresh interpreter
that reports ``sys.modules`` on exit.  None of them may load scipy (a
dense one-shot solve is one ``numpy.linalg.solve``) or the
process-pool stack: those load on first real need, which the last tests
check still happens.  The numeric what-if calls (finite-difference
attribute sensitivity, candidate selection) on a model below
``SPARSE_THRESHOLD`` states load no scipy either: each probe is its own
dense one-shot solve.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.dsl import dump_assembly
from repro.markov.solvers import SPARSE_THRESHOLD, scipy_available
from repro.scenarios import (
    local_assembly,
    recursive_assembly,
    remote_assembly,
)

SRC = Path(__file__).resolve().parents[2] / "src"

#: Modules a one-shot call must never load.
HEAVY = ("scipy", "concurrent.futures.process", "multiprocessing")

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

#: Builds ``cyclic(states)``: one composite ``app`` whose flow states
#: each call one of four providers ``p0..p3``, with a retry loop back
#: seven states from every fifth state past the tenth.  Only every 50th
#: state calls ``p0``, so perturbing ``p0::fp`` changes a few rows of the
#: chain (the shape a low-rank update of one factorization would serve).
CYCLIC = """\
from repro.model import (
    AnalyticInterface, Assembly, CompositeService, FlowBuilder,
    ServiceRequest, SimpleService,
)
from repro.model.parameters import FormalParameter
from repro.symbolic import Constant, Parameter


def cyclic(states, rates=(1e-4, 2e-4, 3e-4, 4e-4)):
    assembly = Assembly(f"cyclic{states}")
    for j, fp in enumerate(rates):
        assembly.add_service(SimpleService(
            f"p{j}",
            AnalyticInterface(formal_parameters=(FormalParameter("n"),),
                              attributes={"fp": fp}),
            Constant(1.0) - (Constant(1.0) - Parameter("fp")) ** Parameter("n"),
        ))
    builder = FlowBuilder(formals=("n",))
    for i in range(states):
        provider = 0 if i % 50 == 7 else 1 + i % (len(rates) - 1)
        builder.state(f"s{i}", [ServiceRequest(
            f"p{provider}", actuals={"n": Parameter("n")})])
    builder.transition("Start", "s0", 1)
    for i in range(states):
        forward = f"s{i + 1}" if i + 1 < states else "End"
        if i >= 10 and i % 5 == 0:
            builder.transition(f"s{i}", forward, 0.9)
            builder.transition(f"s{i}", f"s{i - 7}", 0.1)
        else:
            builder.transition(f"s{i}", forward, 1)
    assembly.add_service(CompositeService("app", AnalyticInterface(
        formal_parameters=(FormalParameter("n"),)), builder.build()))
    for j in range(len(rates)):
        assembly.bind("app", f"p{j}", f"p{j}")
    return assembly
"""


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


def test_numeric_what_if_below_the_sparse_threshold_is_light():
    states = 150
    assert states < SPARSE_THRESHOLD
    code = CYCLIC + (
        "import sys\n"
        "from repro.analysis import select_assembly\n"
        "from repro.core.sensitivity import (\n"
        "    finite_difference_attribute_sensitivity,\n"
        ")\n"
        "states = int(sys.argv[1])\n"
        "model = cyclic(states)\n"
        "for attribute in ('p0::fp', 'p3::fp'):\n"
        "    finite_difference_attribute_sensitivity(\n"
        "        model, 'app', {'n': 2.0}, attribute)\n"
        "ranking = select_assembly(\n"
        "    [1e-4, 5e-5, 2e-4],\n"
        "    lambda fp: cyclic(states, (fp, 2e-4, 3e-4, 4e-4)),\n"
        "    'app', {'n': 2.0})\n"
        "assert all(candidate.ok for candidate in ranking)\n"
    ) + REPORT
    assert "scipy" not in loaded_modules(code, str(states))


@pytest.mark.skipif(not scipy_available(), reason="needs scipy")
def test_sparse_solve_loads_scipy(tmp_path):
    # auto sends a sparse chain of SPARSE_THRESHOLD states down the
    # sparse backend, which is when scipy has to load
    namespace = {}
    exec(CYCLIC, namespace)
    path = tmp_path / "cyclic.json"
    path.write_text(dump_assembly(namespace["cyclic"](SPARSE_THRESHOLD)))
    modules = loaded_modules(CLI, "evaluate", str(path), "app", "--set", "n=2")
    assert "scipy" in modules
