"""cli-cold: a sequential closed loop of cold ``python -m repro`` calls.

One client runs ``evaluate``, ``sweep`` (240 points), ``batch`` and
``closed-form`` in turn on the paper's local and remote scenarios, each a
fresh interpreter reading bytecode from the benchmark's cache.  Import
dominates, so this is where lazy-import and code-deletion changes show.
"""

from __future__ import annotations

import itertools
import json
import math
import random
import re
import time

from common import (
    HERE, ROOT, Outcome, inherited_blas, median, ms, percentile, python_cmd,
    repro_cmd, run_program,
)
from inputs import GOLDEN_LISTS

COMMANDS = ("evaluate", "sweep", "batch", "closed-form")
SWEEP = ("--from", "5", "--to", "1200", "--points", "240")
FIXED = {"elem": 1.0, "res": 1.0}
REL = 1e-8          # printed with 10 significant digits
REL_TABLE = 2e-6    # sweep table printed with 7 significant digits
_FLOAT = r"[-+]?\d\.\d+e[-+]\d+"


class Expected:
    """Reference answers: section 4 goldens plus in-process evaluation of
    the sweep grid, computed once per run before any timing."""

    def __init__(self):
        from repro.analysis import sweep_parameter
        from repro.scenarios import local_assembly, remote_assembly

        cases = json.loads(
            (ROOT / "tests/regression/goldens/section4.json").read_text()
        )["cases"]
        self.golden = {
            (case["spec"]["scenario"], int(case["actuals"]["list"])):
                case["pfail"]
            for case in cases.values()
        }
        self.assemblies = {"local": local_assembly(),
                           "remote": remote_assembly()}
        grid = [float(v) for v in range(5, 1201, 5)]
        self.sweep = {
            name: dict(zip(grid, map(float, sweep_parameter(
                assembly, "search", "list", grid, FIXED).pfail)))
            for name, assembly in self.assemblies.items()
        }


def write_inputs(work, expected: Expected) -> dict:
    from repro.dsl import dump_assembly

    paths = {}
    for name, assembly in expected.assemblies.items():
        paths[name] = work / f"{name}.json"
        paths[name].write_text(dump_assembly(assembly))
    return paths


def calls(seed: int):
    """Endless ``(command, scenario, golden lists)`` calls cycling through
    the four commands; the seed picks the scenario and points of each."""
    rng = random.Random(seed)
    for command in itertools.cycle(COMMANDS):
        scenario = rng.choice(("local", "remote"))
        yield command, scenario, tuple(rng.sample(GOLDEN_LISTS, 2))


def until(deadline: float, plan):
    """The calls of ``plan`` up to ``deadline``, in whole command cycles."""
    for i, call in enumerate(plan):
        if i % len(COMMANDS) == 0 and time.perf_counter() >= deadline:
            return
        yield call


def argv(command: str, scenario: str, lists: tuple, paths: dict) -> list[str]:
    model = str(paths[scenario])
    if command == "evaluate":
        return ["evaluate", model, "search", "--set", "elem=1",
                f"list={lists[0]}", "res=1"]
    if command == "sweep":
        return ["sweep", model, "search", "list", *SWEEP,
                "--set", "elem=1", "res=1"]
    if command == "batch":
        args = ["batch", "search", "--model", str(paths["local"]),
                "--model", str(paths["remote"])]
        for value in lists:
            args += ["--at", "elem=1", f"list={value}", "res=1"]
        return args
    return ["closed-form", model, "search"]


def _close(a: float, b: float, rel: float) -> bool:
    # abs_tol: a Pfail near 1e-11 is computed as 1 - (a value near 1)
    return math.isclose(a, b, rel_tol=rel, abs_tol=1e-15)


def sweep_rows_ok(out: str, reference: dict, golden: dict) -> bool:
    """Every printed sweep row matches the reference grid (and the golden
    value where the grid hits a golden point)."""
    rows = re.findall(rf"^({_FLOAT})\s+({_FLOAT})\s+({_FLOAT})$", out, re.M)
    if len(rows) < 10:
        return False
    for value, pfail, reliability in rows:
        x, p = float(value), float(pfail)
        if x not in reference or not _close(p, reference[x], REL_TABLE):
            return False
        if not _close(float(reliability), 1.0 - reference[x], REL_TABLE):
            return False
        if int(x) in golden and not _close(p, golden[int(x)], REL_TABLE):
            return False
    return True


def output_ok(command: str, scenario: str, lists: tuple, run,
              expected: Expected) -> bool:
    if run.code != 0:
        return False
    out = run.out
    golden = {key[1]: value for key, value in expected.golden.items()
              if key[0] == scenario}
    if command == "evaluate":
        found = re.search(rf"^Pfail\(search\) = ({_FLOAT})$", out, re.M)
        return bool(found) and _close(float(found.group(1)),
                                      golden[lists[0]], REL)
    if command == "sweep":
        return sweep_rows_ok(out, expected.sweep[scenario], golden)
    if command == "batch":
        lines = re.findall(
            rf"(local|remote)\.json elem=1 list=(\d+) res=1\s+Pfail = ({_FLOAT})",
            out)
        wanted = {(s, v) for s in ("local", "remote") for v in lists}
        return (
            {(s, int(v)) for s, v, _ in lines} == wanted
            and len(lines) == 4
            and all(_close(float(p), expected.golden[(s, int(v))], REL)
                    for s, v, p in lines)
        )
    from repro.symbolic.parser import parse_expression

    lines = out.splitlines()
    if len(lines) != 2 or not lines[0].startswith("Pfail(search"):
        return False
    expression = parse_expression(lines[1].strip())
    return all(
        _close(float(expression.evaluate({**FIXED, "list": float(v)})),
               golden[v], 1e-9)
        for v in GOLDEN_LISTS
    )


def _latency(samples: dict) -> float:
    """Mean over the commands of each command's median call latency, so
    the figure never sits on the boundary between two commands' modes."""
    return sum(median(v) for v in samples.values()) / len(samples)


def _run_calls(ctx, plan, paths, expected, result, traced=False):
    samples = {command: [] for command in COMMANDS}
    peak = 0.0
    layers = []
    for i, (command, scenario, lists) in enumerate(plan):
        args = argv(command, scenario, lists, paths)
        if traced:
            out = ctx.work / f"layers-{i}.json"
            run = run_program(python_cmd(str(HERE / "traced_cli.py"),
                                         str(out), *args))
            layers.append((command, json.loads(out.read_text())
                           if out.exists() else {}))
        else:
            run = run_program(repro_cmd(*args))
        result.check(output_ok(command, scenario, lists, run, expected),
                     f"{command} {scenario} {lists}: exit {run.code} "
                     f"{run.err.strip()[-200:]}")
        samples[command].append(run.seconds)
        peak = max(peak, run.rss_mb)
    return samples, peak, layers


def setup_trial(ctx, expected) -> dict:
    """Write the inputs and give every command one untimed warm-up call,
    which also fills the bytecode cache on the first run in a checkout."""
    paths = write_inputs(ctx.work, expected)
    for command in COMMANDS:
        run_program(repro_cmd(*argv(command, "local", (17, 400), paths)),
                    write_bytecode=True)
    return paths


def _importtime(run) -> dict:
    """numpy and scipy cumulative, and repro's own self time, in ms, from
    ``-X importtime`` output."""
    entries = []
    for line in run.err.splitlines():
        found = re.match(r"import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)", line)
        if found:
            entries.append((int(found.group(1)), int(found.group(2)),
                            len(found.group(3)), found.group(4)))
    # postorder: an entry's parent is the next entry that is less indented
    parent = [None] * len(entries)
    pending: list[int] = []
    for i, (_, _, depth, _) in enumerate(entries):
        while pending and entries[pending[-1]][2] > depth:
            parent[pending.pop()] = i
        pending.append(i)

    def package(i):
        return entries[i][3].split(".")[0]

    def root_cumulative(prefix: str) -> float:
        """Cumulative ms of ``prefix`` imports not nested in a numpy or
        scipy import (numpy modules that scipy drags in count as scipy)."""
        total = 0
        for i, entry in enumerate(entries):
            if package(i) != prefix:
                continue
            p = parent[i]
            while p is not None and package(p) not in ("numpy", "scipy"):
                p = parent[p]
            if p is None:
                total += entry[1]
        return total / 1e3

    return {
        "import.numpy_ms": root_cumulative("numpy"),
        "import.scipy_ms": root_cumulative("scipy"),
        "import.repro_ms": sum(entry[0] for i, entry in enumerate(entries)
                               if package(i) == "repro") / 1e3,
    }


def _layer_metrics(ctx, layers, samples, paths, result) -> dict:
    def first_calls(metric, commands):
        values = [ms(data[metric][0]) for command, data in layers
                  if command in commands and data.get(metric)]
        result.check(bool(values), f"wrapper {metric} saw no call")
        return median(values) if values else 0.0

    probes = 1 if ctx.smoke else 5
    interp = [run_program(python_cmd("-c", "pass")).seconds
              for _ in range(probes)]
    imports = [_importtime(run_program(python_cmd("-X", "importtime", "-c",
                                                  "import repro")))
               for _ in range(probes)]
    blas = [run_program(repro_cmd(*argv("evaluate", "local", (17,), paths)),
                        env_extra=inherited_blas()).seconds
            for _ in range(probes)]
    metrics = {"cli.interp_ms": ms(median(interp)),
               "cli.evaluate_blas_default_ms": ms(median(blas))}
    for key in imports[0]:
        metrics[key] = median([entry[key] for entry in imports])
    metrics.update({
        "dsl.load_ms": first_calls("dsl.load", COMMANDS),
        "core.pfail_cold_ms": first_calls("core.pfail", ("evaluate",)),
        "engine.compile_plan_cold_ms": first_calls(
            "engine.compile_plan", ("sweep", "batch")),
        "symbolic.compile_expression_ms": first_calls(
            "symbolic.compile_expression", ("sweep", "batch")),
    })
    for command, values in samples.items():
        metrics[f"cli.{command.replace('-', '_')}_ms"] = ms(median(values))
    return metrics


def run(ctx) -> Outcome:
    result = Outcome()
    expected = Expected()
    setups = []
    for _ in range(ctx.setup_trials):
        started = time.perf_counter()
        paths = setup_trial(ctx, expected)
        setups.append(time.perf_counter() - started)

    if ctx.trace:
        # a fixed number of calls, so the traced run repeats exactly
        plan = list(itertools.islice(calls(ctx.seed),
                                     4 if ctx.smoke else 8))
        plain, plain_peak, _ = _run_calls(ctx, plan, paths, expected, result)
        started = time.perf_counter()
        setup_trial(ctx, expected)
        traced_setup = time.perf_counter() - started
        samples, peak, layers = _run_calls(ctx, plan, paths, expected,
                                           result, traced=True)
        metrics = _layer_metrics(ctx, layers, plain, paths, result)
        metrics.update({
            "trace.overhead.setup_s": traced_setup - setups[0],
            "trace.overhead.latency_p50_ms":
                ms(_latency(samples) - _latency(plain)),
            "trace.overhead.peak_rss_mb": peak - plain_peak,
        })
        result.metrics = metrics
        return result

    samples, peak, _ = _run_calls(
        ctx, until(time.perf_counter() + ctx.seconds, calls(ctx.seed)),
        paths, expected, result)
    result.metrics = {
        "setup_s": median(setups),
        "latency_p50_ms": ms(_latency(samples)),
        "peak_rss_mb": peak,
    }
    result.notes.append(
        "calls per command: " + ", ".join(
            f"{c} {len(v)} (p50 {ms(median(v)):.1f} ms, "
            f"p90 {ms(percentile(v, 90)):.1f} ms)"
            for c, v in samples.items()))
    return result
