"""Shared plumbing: statistics, child processes, provenance, metric names.

The benchmark measures the program from outside.  It starts the program as
child processes (``python -m repro ...``, the daemon, a worker script) or
calls its public functions, and it never edits ``src/``.
"""

from __future__ import annotations

import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path.cwd()
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
#: Everything the benchmark writes lives under this directory of the
#: checkout (listed in the root .gitignore).
WORK = ROOT / ".perfbench_work"
#: Bytecode cache shared by every child of every run in this checkout, so
#: cold calls read compiled bytecode the way an installed package does and
#: the repo tree itself is never written.
PYCACHE = WORK / "pycache"

#: End-to-end metrics: every workload reports all of them (untraced runs).
END_TO_END = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics (traced runs).  Every traced run reports every name;
#: a layer the workload does not enter reads 0 (see README.md).
PER_LAYER = {
    # cli-cold
    "cli.interp_ms": "ms",
    "cli.evaluate_blas_default_ms": "ms",
    "import.numpy_ms": "ms",
    "import.scipy_ms": "ms",
    "import.repro_ms": "ms",
    "dsl.load_ms": "ms",
    "core.pfail_cold_ms": "ms",
    "engine.compile_plan_cold_ms": "ms",
    "symbolic.compile_expression_ms": "ms",
    "cli.evaluate_ms": "ms",
    "cli.sweep_ms": "ms",
    "cli.batch_ms": "ms",
    "cli.closed_form_ms": "ms",
    # whatif-numeric
    "whatif.points_per_s": "1/s",
    "core.sensitivity_ms": "ms",
    "core.sensitivity_refactor_ms": "ms",
    "dsl.load_share": "ratio",
    "markov.factorize_calls": "count",
    "markov.factorize_ms": "ms",
    "markov.solver.plans": "count",
    "markov.solver.factorizations": "count",
    "markov.updates.applied": "count",
    "markov.updates.fallback_rank": "count",
    "markov.updates.fallback_condition": "count",
    "markov.updates.applied_ratio": "ratio",
    "analysis.select_ms": "ms",
    "engine.batch_ms": "ms",
    "engine.batch_jobs1_ms": "ms",
    "engine.parallel.speedup": "ratio",
    "engine.parallel.efficiency": "ratio",
    "engine.shm.rows": "count",
    "engine.shm.segments": "count",
    "engine.fused.entries": "count",
    "whatif.round_blas_default_ms": "ms",
    # campaign-resume
    "workunits.campaign_s": "s",
    "workunits.resume_s": "s",
    "workunits.units_executed": "count",
    "workunits.units_resumed": "count",
    "workunits.attempts": "count",
    "workunits.pool_restarts": "count",
    "workunits.unit_busy_ms": "ms",
    "workunits.dispatch_overhead_ms": "ms",
    "workunits.plain_sweep_s": "s",
    "workunits.overhead_ratio": "ratio",
    "workunits.store.replay_ms": "ms",
    "workunits.journal_bytes": "bytes",
    "workunits.journal_records": "count",
    # daemon-mix
    "server.latency_p99_ms": "ms",
    "server.elapsed_p50_ms": "ms",
    "server.transport_p50_ms": "ms",
    "server.transport_stall_share": "ratio",
    "server.evaluate_hot_ms": "ms",
    "server.evaluate_candidate_ms": "ms",
    "server.sweep_ms": "ms",
    "server.batch_ms": "ms",
    "server.model_cache.hit_rate": "ratio",
    "engine.plan_cache.hit_rate": "ratio",
    "symbolic.kernel_cache.hit_rate": "ratio",
    "server.coalesced_ratio": "ratio",
    "server.shed": "count",
    "server.evaluations": "count",
    "server.max_rps_at_slo": "1/s",
    "gen.lateness_p99_ms": "ms",
    # every workload: traced minus untraced, per end-to-end metric
    "trace.overhead.setup_s": "s",
    "trace.overhead.latency_p50_ms": "ms",
    "trace.overhead.peak_rss_mb": "MB",
}


@dataclass
class Context:
    """What a workload gets from the runner."""

    seed: int
    seconds: float
    trace: bool
    smoke: bool
    work: Path

    @property
    def setup_trials(self) -> int:
        """Set-up repetitions whose median is ``setup_s``."""
        return 1 if (self.smoke or self.trace) else 3


@dataclass
class Outcome:
    """What a workload hands back: operation counts and metric values."""

    attempted: int = 0
    failed: int = 0
    metrics: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)

    def check(self, ok: bool, what: str) -> bool:
        """Count one operation; a failed correctness check is a failure."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 20:
                self.notes.append(what)
        return ok


def median(values) -> float:
    return float(statistics.median(values))


def percentile(values, q: float) -> float:
    """The ``q``-th percentile (0 < q < 100), inclusive interpolation."""
    values = sorted(values)
    if len(values) == 1:
        return float(values[0])
    return float(statistics.quantiles(values, n=100, method="inclusive")[
        int(round(q)) - 1])


def ms(seconds: float) -> float:
    return seconds * 1e3


# -- child processes ---------------------------------------------------------

_children: list[subprocess.Popen] = []


#: BLAS threading for every child.  With the default (one thread per
#: core) the small dense solves of the numeric paths run 2-3x slower and
#: vary up to 5x from call to call on a 2-core machine, because BLAS
#: threads and pool workers contend for the cores, and every cold start
#: pays for starting the threads; the traced runs measure that default
#: separately (README.md).
BLAS_THREADS = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}


def inherited_blas() -> dict:
    """The BLAS thread variables as this process inherited them (unset
    ones as empty strings, which the BLAS libraries ignore)."""
    return {name: os.environ.get(name, "") for name in BLAS_THREADS}


def program_env(write_bytecode: bool = False) -> dict:
    """Environment for a child that runs the program under test."""
    env = dict(os.environ)
    env.update(BLAS_THREADS)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONPYCACHEPREFIX"] = str(PYCACHE)
    if write_bytecode:
        env.pop("PYTHONDONTWRITEBYTECODE", None)
    else:
        env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def spawn(args, **kwargs) -> subprocess.Popen:
    """Start a child and remember it, so :func:`stop_children` ends it."""
    kwargs.setdefault("env", program_env())
    kwargs.setdefault("cwd", str(ROOT))
    proc = subprocess.Popen(args, **kwargs)
    _children.append(proc)
    return proc


def reap(proc: subprocess.Popen) -> float:
    """Wait for ``proc`` and return its peak RSS in MB (its own or that of
    a descendant it reaped, whichever is larger)."""
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc in _children:
        _children.remove(proc)
    return usage.ru_maxrss / 1024.0


@dataclass
class Run:
    """One finished child: wall time from spawn to exit, exit code, output
    and peak RSS."""

    seconds: float
    code: int
    out: str
    err: str
    rss_mb: float


def run_program(args, timeout: float = 120.0, write_bytecode: bool = False,
                env_extra: dict | None = None) -> Run:
    """Run one child to completion and time it from spawn to exit."""
    env = program_env(write_bytecode)
    env.update(env_extra or {})
    with tempfile.TemporaryFile("w+", dir=WORK) as err_file:
        started = time.perf_counter()
        proc = spawn(args, env=env, stdout=subprocess.PIPE, stderr=err_file,
                     text=True)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            out = proc.stdout.read()
            proc.stdout.close()
            rss = reap(proc)
        finally:
            timer.cancel()
        seconds = time.perf_counter() - started
        err_file.seek(0)
        err = err_file.read()
    return Run(seconds, proc.returncode, out, err, rss)


def python_cmd(*args) -> list[str]:
    return [sys.executable, *args]


def repro_cmd(*args) -> list[str]:
    return [sys.executable, "-m", "repro", *map(str, args)]


def stop_children() -> None:
    """Terminate and reap every child still running."""
    for proc in list(_children):
        if proc.poll() is None:
            proc.terminate()
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        _children.remove(proc)


def install_signal_exit() -> None:
    """Turn SIGTERM into SystemExit so ``finally`` blocks reap children."""
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))


def clean_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


# -- provenance ----------------------------------------------------------------

def _git_sha() -> str:
    """The commit of the checkout, read from ``.git`` without running git;
    ``"unknown"`` for an exported tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            ref = head[5:]
            ref_file = git / ref
            if ref_file.exists():
                return ref_file.read_text().strip()
            for line in (git / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref):
                    return line.split()[0]
            return "unknown"
        return head
    except OSError:
        return "unknown"


def _version(package: str) -> str:
    from importlib import metadata

    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return "absent"


def provenance(seed: int, load_start: tuple) -> dict:
    """The machine and build record printed with every result."""
    return {
        "cpu_count": os.cpu_count(),
        "loadavg_start": [round(x, 2) for x in load_start],
        "loadavg_end": [round(x, 2) for x in os.getloadavg()],
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "git_sha": _git_sha(),
        "seed": seed,
        "bytecode": "PYTHONPYCACHEPREFIX=.perfbench_work/pycache, filled in set-up",
        "blas_threads_inherited": {
            name: os.environ.get(name) for name in BLAS_THREADS},
        "blas_threads_children": BLAS_THREADS,
    }

