"""Command-line interface: the "reliability prediction engine" binding.

Section 5 of the paper argues the analytic interface should live in
machine-processable service descriptions "bound to some underlying
reliability prediction engine that implements the algorithm outlined in
section 3.3".  This CLI is that engine over the ``repro/1`` JSON form:

.. code-block:: text

    python -m repro export-scenario local -o local.json
    python -m repro validate local.json
    python -m repro describe local.json
    python -m repro evaluate local.json search --set elem=1 list=500 res=1
    python -m repro evaluate local.json search --set ... --report
    python -m repro closed-form local.json search
    python -m repro batch search --model local.json --model remote.json \\
        --at elem=1 list=500 res=1 --at elem=1 list=1000 res=1 --jobs 4
    python -m repro sweep local.json search list --from 1 --to 1000 \\
        --points 25 --set elem=1 res=1 --jobs 4
    python -m repro compare local.json remote.json search list \\
        --from 1 --to 1000 --points 25 --set elem=1 res=1
    python -m repro invocations local.json search --set elem=1 list=500 res=1
    python -m repro simulate local.json search --trials 20000 --seed 7 \\
        --set elem=1 list=500 res=1 --jobs 2
    python -m repro fuzz local.json --count 200 --seed 7 --jobs 2
    python -m repro serve --port 8349

``--jobs N`` fans the command's independent work units (batch points,
sweep grid chunks, Monte-Carlo trial blocks, fuzz cases) across ``N``
workers through :mod:`repro.engine`; ``--jobs 0`` uses every core and the
default ``--jobs 1`` keeps the exact sequential path.

``--metrics summary`` (on ``evaluate``/``batch``/``sweep``/``fuzz``)
prints a per-span profile table and the counter/gauge values collected by
:mod:`repro.observability`; ``--metrics json:PATH`` writes the snapshot as
``repro/metrics/1`` JSON; ``--trace PATH`` appends one JSON line per
finished span.  Worker processes ship their metrics and spans back to the
parent, so the output aggregates the whole pool.  Both flags default to
off, in which case the instrumentation short-circuits to no-ops.

Errors never surface as tracebacks: every :class:`ReproError` subtree maps
to its own nonzero exit code with a one-line message on stderr (see
``EXIT_CODES`` / ``--help``), so unattended callers can branch on the
failure class.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Sequence
from pathlib import Path

import numpy as np

from repro.errors import (
    BudgetExceededError,
    EvaluationError,
    MarkovError,
    ModelError,
    NumericalInstabilityError,
    ReproError,
    SymbolicError,
    WorkerCrashedError,
)

__all__ = ["main", "build_parser", "exit_code_for", "EXIT_CODES"]

#: The exit-code taxonomy, most specific error class first.
EXIT_CODES: tuple[tuple[type[BaseException], int], ...] = (
    (NumericalInstabilityError, 7),
    (BudgetExceededError, 8),
    (WorkerCrashedError, 11),
    (ModelError, 3),
    (SymbolicError, 4),
    (MarkovError, 5),
    (EvaluationError, 6),
    (ReproError, 10),
)

#: Exit code when the fuzz harness finds a contract violation.
EXIT_FUZZ_VIOLATION = 9

_EXIT_CODE_HELP = """\
exit codes:
   0  success
   1  generic failure (missing file, invalid model report)
   2  usage error (bad command line)
   3  model error — malformed model or input document
   4  symbolic error — expression parsing/evaluation
   5  markov error — non-analyzable Markov chain
   6  evaluation error — evaluator failure (cycles, bad actuals, ...)
   7  numerical instability — result rejected as untrustworthy
   8  budget exceeded — deadline/state/depth/sweep/trial limit hit
   9  fuzz contract violated — a mutated model crashed the engine
  10  other repro error
  11  worker died — a pool process was killed (SIGKILL/OOM) mid-run;
      rerun as a campaign (--store/--resume) to retry around it
"""


def exit_code_for(error: ReproError) -> int:
    """The taxonomy exit code for a :class:`ReproError` instance."""
    for cls, code in EXIT_CODES:
        if isinstance(error, cls):
            return code
    return 10  # pragma: no cover - EXIT_CODES ends with ReproError


def _parse_bindings(pairs: Sequence[str]) -> dict[str, float]:
    bindings: dict[str, float] = {}
    for pair in pairs:
        name, _, value = pair.partition("=")
        if not name or not value:
            raise ReproError(
                f"--set expects name=value pairs, got {pair!r}"
            )
        try:
            bindings[name] = float(value)
        except ValueError:
            raise ReproError(f"--set {pair!r}: {value!r} is not a number") from None
    return bindings


def _load(path: str):
    from repro.dsl import load_assembly

    text = Path(path).read_text()
    return load_assembly(text)


def _budget_from_args(args):
    """An :class:`~repro.runtime.EvaluationBudget` from the budget flags,
    or ``None`` when no limit was requested."""
    from repro.runtime import EvaluationBudget

    limits = {
        "deadline": getattr(args, "deadline", None),
        "max_states": getattr(args, "max_states", None),
        "max_depth": getattr(args, "max_depth", None),
        "max_sweeps": getattr(args, "max_sweeps", None),
        "max_trials": getattr(args, "max_trials", None),
    }
    if all(v is None for v in limits.values()):
        return None
    return EvaluationBudget(**limits)


def build_parser() -> argparse.ArgumentParser:
    """The argparse command tree (exposed for testing and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Architecture-based reliability prediction engine "
                    "(Grassi, LNCS 3549).",
        epilog=_EXIT_CODE_HELP,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    commands = parser.add_subparsers(dest="command", required=True)

    def add_set(sub):
        sub.add_argument(
            "--set", nargs="*", default=[], metavar="NAME=VALUE",
            help="actual parameter bindings",
        )

    def non_negative(cast):
        def parse(text: str):
            try:
                value = cast(text)
            except ValueError:
                raise argparse.ArgumentTypeError(
                    f"invalid {cast.__name__} value: {text!r}"
                ) from None
            if value < 0:
                raise argparse.ArgumentTypeError(
                    f"must be non-negative, got {text!r}"
                )
            return value
        return parse

    def add_jobs(sub):
        sub.add_argument(
            "--jobs", type=non_negative(int), default=1, metavar="N",
            help="parallel workers (0 = all cores, 1 = sequential)",
        )

    def metrics_mode(text: str) -> str:
        if text in ("off", "summary") or text.startswith("json:"):
            return text
        raise argparse.ArgumentTypeError(
            f"expected off, summary or json:PATH, got {text!r}"
        )

    def add_observability(sub):
        sub.add_argument(
            "--metrics", type=metrics_mode, default="off",
            metavar="{off,summary,json:PATH}",
            help="collect evaluation metrics: 'summary' prints a profile "
                 "table and counter list, 'json:PATH' writes a metrics "
                 "snapshot as JSON (schema repro/metrics/1)",
        )
        sub.add_argument(
            "--trace", default=None, metavar="PATH",
            help="append one JSON line per finished span to PATH",
        )

    def add_campaign(sub):
        group = sub.add_argument_group(
            "campaign mode",
            "fault-tolerant sharded execution (repro.workunits): any of "
            "these flags switches the command to a supervised campaign "
            "with per-unit retry, quarantine and a resumable journal",
        )
        group.add_argument(
            "--store", default=None, metavar="PATH",
            help="journal every work-unit attempt to this JSONL store "
                 "(an existing store for the same campaign is resumed)",
        )
        group.add_argument(
            "--resume", default=None, metavar="STORE",
            help="resume from an existing journal: completed units are "
                 "skipped, output is bit-identical to an uninterrupted run",
        )
        group.add_argument(
            "--unit-timeout", type=non_negative(float), default=None,
            metavar="SECONDS",
            help="hard per-unit wall-clock timeout; hung workers are "
                 "killed and the unit retried",
        )
        group.add_argument(
            "--retries", type=non_negative(int), default=2, metavar="N",
            help="failed attempts a unit may retry before quarantine "
                 "(default 2; capped exponential backoff between attempts)",
        )
        group.add_argument(
            "--validate-redundancy", type=non_negative(int), default=0,
            metavar="N",
            help="re-execute every N-th completed unit and compare the "
                 "payloads (0 = off; a nondeterminism tripwire)",
        )
        group.add_argument(
            "--units", type=non_negative(int), default=None, metavar="N",
            help="shard the campaign into N work units (default: "
                 "kind-specific slice size, independent of --jobs)",
        )
        group.add_argument(
            "--chaos", default=None, metavar="SPEC",
            help="inject worker faults for testing, e.g. "
                 "'crash@0,hang@1,corrupt@2x*' (ACTION@UNIT[xN|x*])",
        )

    def add_budget(sub):
        sub.add_argument(
            "--deadline", type=non_negative(float), default=None,
            metavar="SECONDS",
            help="wall-clock budget; exceeding it exits with code 8",
        )
        sub.add_argument(
            "--max-states", type=non_negative(int), default=None, metavar="N",
            help="largest absorbing DTMC the solver may factor",
        )
        sub.add_argument(
            "--max-depth", type=non_negative(int), default=None, metavar="N",
            help="maximum service-composition recursion depth",
        )
        sub.add_argument(
            "--max-sweeps", type=non_negative(int), default=None, metavar="N",
            help="maximum fixed-point sweeps",
        )
        sub.add_argument(
            "--max-trials", type=non_negative(int), default=None, metavar="N",
            help="maximum Monte Carlo trials",
        )

    sub = commands.add_parser("validate", help="structural validation report")
    sub.add_argument("file")

    sub = commands.add_parser("describe", help="render assembly and flows")
    sub.add_argument("file")

    sub = commands.add_parser("evaluate", help="predict Pfail/reliability")
    sub.add_argument("file")
    sub.add_argument("service")
    add_set(sub)
    add_budget(sub)
    sub.add_argument(
        "--report", action="store_true",
        help="include the per-state failure breakdown",
    )
    sub.add_argument(
        "--fixed-point", action="store_true",
        help="use the fixed-point evaluator (required for recursive "
             "assemblies)",
    )
    sub.add_argument(
        "--robust", action="store_true",
        help="run the graceful-degradation chain (symbolic -> numeric -> "
             "fixed-point -> Monte Carlo) and report the serving tier",
    )
    add_observability(sub)

    sub = commands.add_parser(
        "closed-form", help="derive the symbolic Pfail expression"
    )
    sub.add_argument("file")
    sub.add_argument("service")
    sub.add_argument(
        "--symbolic-attributes", action="store_true",
        help="leave interface attributes as free 'service::attr' symbols",
    )

    sub = commands.add_parser(
        "batch",
        help="evaluate many (model, point) pairs in one pass with plan "
             "caching and an optional worker pool",
    )
    sub.add_argument("service")
    sub.add_argument(
        "--model", action="append", required=True, metavar="FILE",
        help="assembly to evaluate (repeat for a multi-model batch)",
    )
    sub.add_argument(
        "--at", action="append", nargs="+", default=None, metavar="NAME=VALUE",
        help="one evaluation point per --at group (repeatable); every "
             "model is evaluated at every point",
    )
    add_jobs(sub)
    add_budget(sub)
    add_campaign(sub)
    add_observability(sub)

    sub = commands.add_parser("sweep", help="reliability vs one parameter")
    sub.add_argument("file")
    sub.add_argument("service")
    sub.add_argument("parameter")
    sub.add_argument("--from", dest="start", type=float, required=True)
    sub.add_argument("--to", dest="stop", type=float, required=True)
    sub.add_argument("--points", type=int, default=20)
    sub.add_argument(
        "--method", choices=["symbolic", "numeric"], default="symbolic",
        help="evaluation back-end for the grid",
    )
    add_set(sub)
    add_jobs(sub)
    add_budget(sub)
    add_campaign(sub)
    add_observability(sub)

    sub = commands.add_parser(
        "compare", help="two assemblies head-to-head with crossovers"
    )
    sub.add_argument("file_a")
    sub.add_argument("file_b")
    sub.add_argument("service")
    sub.add_argument("parameter")
    sub.add_argument("--from", dest="start", type=float, required=True)
    sub.add_argument("--to", dest="stop", type=float, required=True)
    sub.add_argument("--points", type=int, default=20)
    add_set(sub)

    sub = commands.add_parser(
        "invocations", help="expected invocation counts per service"
    )
    sub.add_argument("file")
    sub.add_argument("service")
    add_set(sub)

    sub = commands.add_parser(
        "simulate", help="Monte Carlo fault-injection estimate"
    )
    sub.add_argument("file")
    sub.add_argument("service")
    sub.add_argument("--trials", type=int, default=10_000)
    sub.add_argument("--seed", type=int, default=None)
    add_set(sub)
    add_jobs(sub)
    add_budget(sub)

    sub = commands.add_parser(
        "fuzz",
        help="model fault injection: corrupt the assembly N ways and "
             "assert the engine answers or refuses with a typed error",
    )
    sub.add_argument("file")
    sub.add_argument(
        "--service", default=None,
        help="target service (default: top-level composite)",
    )
    sub.add_argument(
        "--count", type=int, default=200,
        help="number of mutated models to run (default 200)",
    )
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument(
        "--trials", type=int, default=2_000,
        help="Monte Carlo trials for the degradation tier",
    )
    sub.add_argument(
        "--deadline", type=float, default=10.0,
        help="per-case wall-clock budget in seconds",
    )
    sub.add_argument(
        "--smoke", action="store_true",
        help="CI smoke mode: fewer trials and a tight per-case deadline",
    )
    add_set(sub)
    add_jobs(sub)
    add_campaign(sub)
    add_observability(sub)

    sub = commands.add_parser(
        "performance", help="predict the expected execution time"
    )
    sub.add_argument("file")
    sub.add_argument("service")
    add_set(sub)

    sub = commands.add_parser(
        "uncertainty",
        help="propagate published-attribute uncertainty to the prediction",
    )
    sub.add_argument("file")
    sub.add_argument("service")
    sub.add_argument(
        "--relative-std", type=float, default=0.1,
        help="relative standard deviation applied to every attribute",
    )
    sub.add_argument("--samples", type=int, default=10_000)
    sub.add_argument("--seed", type=int, default=None)
    add_set(sub)

    sub = commands.add_parser(
        "serve",
        help="run the reliability-as-a-service daemon: a long-running "
             "HTTP server with persistent warm caches (plan, kernel, "
             "solver, model), request coalescing and load shedding",
    )
    sub.add_argument(
        "--host", default="127.0.0.1",
        help="bind address (default 127.0.0.1; 0.0.0.0 exposes the "
             "daemon to the network)",
    )
    sub.add_argument(
        "--port", type=non_negative(int), default=8349,
        help="TCP port (default 8349; 0 picks an ephemeral port and "
             "prints it in the banner)",
    )
    sub.add_argument(
        "--max-inflight", type=non_negative(int), default=64, metavar="N",
        help="concurrent evaluations admitted before shedding with 429 "
             "(default 64)",
    )
    sub.add_argument(
        "--max-body-bytes", type=non_negative(int),
        default=8 * 1024 * 1024, metavar="BYTES",
        help="largest accepted request body (default 8 MiB)",
    )
    sub.add_argument(
        "--plan-cache-size", type=non_negative(int), default=256, metavar="N",
        help="compiled evaluation plans kept warm (LRU; default 256)",
    )
    sub.add_argument(
        "--model-cache-size", type=non_negative(int), default=64, metavar="N",
        help="parsed model documents kept warm, keyed by content digest "
             "(LRU; default 64)",
    )
    sub.add_argument(
        "--quiet", action="store_true",
        help="suppress per-request log lines (the banner still prints; "
             "all server output goes to stderr either way)",
    )
    add_budget(sub)
    add_observability(sub)

    sub = commands.add_parser(
        "export-scenario",
        help="write a built-in scenario assembly as repro/1 JSON",
    )
    sub.add_argument(
        "name",
        choices=["local", "remote", "booking", "booking-shared",
                 "pipeline", "shared-db", "replicated-db"],
    )
    sub.add_argument("-o", "--output", default=None, help="output path "
                     "(default: stdout)")

    return parser


def _cmd_validate(args) -> int:
    from repro.model import validate_assembly

    report = validate_assembly(_load(args.file))
    print(report)
    return 0 if report.ok else 1


def _cmd_describe(args) -> int:
    from repro.model.service import CompositeService

    assembly = _load(args.file)
    print(assembly.describe())
    for service in assembly.services:
        if isinstance(service, CompositeService):
            print(f"\nflow of {service.name!r}:")
            print(service.flow.describe())
    return 0


def _cmd_evaluate(args) -> int:
    from repro.core import FixedPointEvaluator, ReliabilityEvaluator

    assembly = _load(args.file)
    bindings = _parse_bindings(args.set)
    budget = _budget_from_args(args)
    if args.robust:
        from repro.runtime import RobustEvaluator

        evaluator = RobustEvaluator(assembly, budget=budget)
        print(evaluator.evaluate(args.service, **bindings))
        return 0
    cls = FixedPointEvaluator if args.fixed_point else ReliabilityEvaluator
    evaluator = cls(assembly, budget=budget)
    if args.report:
        print(evaluator.report(args.service, **bindings))
    else:
        pfail = evaluator.pfail(args.service, **bindings)
        print(f"Pfail({args.service}) = {pfail:.9e}")
        print(f"R({args.service})     = {1.0 - pfail:.9f}")
    return 0


def _cmd_closed_form(args) -> int:
    from repro.core import SymbolicEvaluator

    assembly = _load(args.file)
    evaluator = SymbolicEvaluator(
        assembly, symbolic_attributes=args.symbolic_attributes
    )
    expression = evaluator.pfail_expression(args.service)
    print(f"Pfail({args.service}, {', '.join(sorted(expression.free_parameters()))}) =")
    print(f"  {expression}")
    return 0


def _kernel_stats_line() -> str:
    """One-line summary of the process-wide kernel cache for batch/sweep
    output (hit/miss counters of :func:`repro.symbolic.kernel_cache_stats`)."""
    from repro.symbolic import default_kernel_cache

    cache = default_kernel_cache()
    stats = cache.stats
    return (
        f"kernel cache: {stats.hits} hits, {stats.misses} misses, "
        f"{len(cache)} kernel(s) cached"
    )


def _campaign_requested(args) -> bool:
    """True when any campaign-mode flag was used on this invocation."""
    return any((
        getattr(args, "store", None) is not None,
        getattr(args, "resume", None) is not None,
        getattr(args, "unit_timeout", None) is not None,
        getattr(args, "validate_redundancy", 0),
        getattr(args, "units", None) is not None,
        getattr(args, "chaos", None) is not None,
    ))


#: sentinel: "derive the campaign budget from this command's budget flags"
_BUDGET_FROM_FLAGS = object()


def _campaign_run(args, campaign, budget=_BUDGET_FROM_FLAGS):
    """Run ``campaign`` under the supervisor with this command's flags.

    Returns the :class:`~repro.workunits.CampaignReport`; the campaign
    summary goes to stderr so stdout stays bit-identical across
    interrupted-and-resumed runs.  Commands whose ``--deadline`` flag is
    *not* a whole-run budget (fuzz: it is per-case) must pass ``budget``
    explicitly.
    """
    from repro.workunits import run_campaign

    if args.store is not None and args.resume is not None:
        raise ReproError("--store and --resume are mutually exclusive "
                         "(both name the journal; pick one)")
    chaos = None
    if args.chaos is not None:
        from repro.robustness import ChaosPolicy

        chaos = ChaosPolicy.parse(args.chaos)
    report = run_campaign(
        campaign,
        args.store if args.store is not None else args.resume,
        jobs=args.jobs,
        unit_timeout=args.unit_timeout,
        retries=args.retries,
        validate_redundancy=args.validate_redundancy,
        budget=_budget_from_args(args) if budget is _BUDGET_FROM_FLAGS
        else budget,
        chaos=chaos,
    )
    print(report.summary(), file=sys.stderr)
    return report


def _print_batch_entries(entries) -> None:
    """One line per batch entry: its ``Pfail`` and backend, or its typed
    error — the same lines whether the batch ran plain or as a campaign."""
    for entry in entries:
        point = " ".join(
            f"{k}={v:g}" for k, v in sorted(entry.actuals.items())
        ) or "-"
        if entry.ok:
            outcome = f"Pfail = {entry.pfail:.9e}  [{entry.backend}]"
        else:
            outcome = f"error[{type(entry.error).__name__}]: {entry.error}"
        print(f"{entry.label:24s} {point:32s} {outcome}")


def _cmd_batch_campaign(args) -> int:
    from repro.workunits import assemble_batch, batch_campaign

    points = [_parse_bindings(group) for group in args.at] if args.at else None
    campaign = batch_campaign(
        [(path, _load(path)) for path in args.model],
        args.service,
        points,
        units=args.units,
    )
    report = _campaign_run(args, campaign)
    entries = assemble_batch(campaign, report)
    _print_batch_entries(entries)
    return 0 if report.ok and all(e.ok for e in entries) else 1


def _cmd_batch(args) -> int:
    if _campaign_requested(args):
        return _cmd_batch_campaign(args)
    from repro.engine import BatchEngine, BatchRequest
    from repro.robustness.harness import domain_representative

    def default_point(assembly):
        # no --at: evaluate each model at its domain representatives
        service = assembly.service(args.service)
        return {
            p.name: domain_representative(p.domain)
            for p in service.interface.formal_parameters
        }

    points = [_parse_bindings(group) for group in args.at] if args.at else None
    engine = BatchEngine(jobs=args.jobs, budget=_budget_from_args(args))
    models = [_load(path) for path in args.model]
    requests = [
        BatchRequest(assembly, args.service, point, label=path)
        for path, assembly in zip(args.model, models)
        for point in (points if points is not None else [default_point(assembly)])
    ]
    result = engine.run(requests)
    _print_batch_entries(result)
    stats = result.stats
    print(
        f"batch: {stats.entries} evaluations over {stats.plans} plans "
        f"({stats.compilations} compiled, {stats.cache_hits} cache hits, "
        f"{stats.fused_entries} fused) "
        f"with {stats.jobs} worker(s) in {stats.elapsed:.3f}s"
    )
    print(_kernel_stats_line())
    return 0 if result.ok else 1


def _cmd_sweep_campaign(args) -> int:
    from repro.analysis import format_sweep
    from repro.workunits import assemble_sweep, sweep_campaign

    campaign = sweep_campaign(
        _load(args.file),
        args.service,
        args.parameter,
        [float(v) for v in np.linspace(args.start, args.stop, args.points)],
        _parse_bindings(args.set),
        method=args.method,
        units=args.units,
    )
    report = _campaign_run(args, campaign)
    print(format_sweep(assemble_sweep(campaign, report)))
    return 0 if report.ok else 1


def _cmd_sweep(args) -> int:
    from repro.analysis import format_sweep, sweep_parameter

    if _campaign_requested(args):
        return _cmd_sweep_campaign(args)
    assembly = _load(args.file)
    grid = np.linspace(args.start, args.stop, args.points)
    sweep = sweep_parameter(
        assembly, args.service, args.parameter, grid, _parse_bindings(args.set),
        method=args.method, jobs=args.jobs, budget=_budget_from_args(args),
    )
    print(format_sweep(sweep))
    print(_kernel_stats_line())
    return 0


def _cmd_compare(args) -> int:
    from repro.analysis import compare_assemblies, format_comparison

    grid = np.linspace(args.start, args.stop, args.points)
    comparison = compare_assemblies(
        _load(args.file_a), _load(args.file_b), args.service, args.parameter,
        grid, _parse_bindings(args.set),
    )
    print(format_comparison(comparison))
    return 0


def _cmd_invocations(args) -> int:
    from repro.analysis import expected_invocations

    profile = expected_invocations(
        _load(args.file), args.service, **_parse_bindings(args.set)
    )
    print(profile)
    return 0


def _cmd_simulate(args) -> int:
    from repro.simulation import MonteCarloSimulator

    simulator = MonteCarloSimulator(
        _load(args.file), seed=args.seed, budget=_budget_from_args(args)
    )
    result = simulator.estimate_pfail(
        args.service, args.trials, jobs=args.jobs, **_parse_bindings(args.set)
    )
    low, high = result.confidence_interval()
    print(
        f"simulated Pfail({args.service}) = {result.pfail:.6e} "
        f"({result.failures}/{result.trials} failures)"
    )
    print(f"95% Wilson interval: [{low:.6e}, {high:.6e}]")
    return 0


def _cmd_performance(args) -> int:
    from repro.core import PerformanceEvaluator
    from repro.model.service import CompositeService

    assembly = _load(args.file)
    bindings = _parse_bindings(args.set)
    evaluator = PerformanceEvaluator(assembly)
    duration = evaluator.expected_duration(args.service, **bindings)
    print(f"E[T]({args.service}) = {duration:.6e} time units")
    if isinstance(assembly.service(args.service), CompositeService):
        print("per-state breakdown (duration x expected visits):")
        for name, (state_duration, visits) in evaluator.state_durations(
            args.service, **bindings
        ).items():
            print(
                f"  {name:20s} {state_duration:.6e} x {visits:.4f} "
                f"= {state_duration * visits:.6e}"
            )
    return 0


def _cmd_uncertainty(args) -> int:
    from repro.analysis import delta_method, sample_uncertainty

    assembly = _load(args.file)
    bindings = _parse_bindings(args.set)
    delta = delta_method(
        assembly, args.service, bindings, relative_std=args.relative_std
    )
    sampled = sample_uncertainty(
        assembly, args.service, bindings,
        relative_std=args.relative_std, samples=args.samples, seed=args.seed,
    )
    low, high = delta.interval()
    print(f"Pfail({args.service}) = {delta.pfail:.6e}")
    print(
        f"attribute uncertainty +/-{args.relative_std * 100:.0f}% -> "
        f"std {delta.std:.3e} (delta method), {sampled.std:.3e} (sampled)"
    )
    print(f"95% interval (delta): [{low:.6e}, {high:.6e}]")
    print("sampled percentiles:")
    for p, value in sorted(sampled.percentiles.items()):
        print(f"  p{p:>4.1f}  {value:.6e}")
    if delta.contributions:
        print("variance contributions:")
        ranked = sorted(
            delta.contributions.items(), key=lambda kv: kv[1], reverse=True
        )
        for name, share in ranked[:5]:
            print(f"  {name:35s} {share * 100:6.2f}%")
    return 0


def _cmd_export_scenario(args) -> int:
    from repro.dsl import dump_assembly
    from repro.scenarios import (
        booking_assembly,
        local_assembly,
        pipeline_assembly,
        remote_assembly,
        replicated_assembly,
    )

    builders = {
        "local": local_assembly,
        "remote": remote_assembly,
        "booking": booking_assembly,
        "booking-shared": lambda: booking_assembly(shared_gds=True),
        "pipeline": pipeline_assembly,
        "shared-db": lambda: replicated_assembly(3, shared=True),
        "replicated-db": lambda: replicated_assembly(3, shared=False),
    }
    text = dump_assembly(builders[args.name]())
    if args.output:
        Path(args.output).write_text(text + "\n")
        print(f"wrote {args.output}")
    else:
        print(text)
    return 0


def _cmd_serve(args) -> int:
    from repro import observability as obs
    from repro.engine.cache import PlanCache
    from repro.server import EvaluationService, ReproServer

    # the daemon always collects metrics so GET /metrics is live; the
    # --metrics/--trace flags only control what is *emitted* on shutdown
    # (handled by _finish_observation — on stderr/file, never stdout)
    obs.enable()
    limits = {
        name: value
        for name, value in {
            "deadline": args.deadline,
            "max_states": args.max_states,
            "max_depth": args.max_depth,
            "max_sweeps": args.max_sweeps,
            "max_trials": args.max_trials,
        }.items()
        if value is not None
    }
    service = EvaluationService(
        plan_cache=PlanCache(args.plan_cache_size or None),
        model_cache_size=args.model_cache_size,
        default_budget=limits,
        max_inflight=args.max_inflight,
    )
    server = ReproServer(
        host=args.host,
        port=args.port,
        service=service,
        max_body_bytes=args.max_body_bytes,
        quiet=args.quiet,
    )
    return server.serve_forever()


def _cmd_fuzz_campaign(args) -> int:
    from repro.workunits import assemble_fuzz, fuzz_campaign

    bindings = _parse_bindings(args.set)
    trials = 500 if args.smoke else args.trials
    deadline = min(args.deadline, 5.0) if args.smoke else args.deadline
    campaign = fuzz_campaign(
        _load(args.file),
        args.count,
        seed=args.seed,
        service=args.service,
        actuals=bindings or None,
        trials=trials,
        deadline=deadline,
        units=args.units,
    )
    # fuzz's --deadline is the per-case budget baked into each unit, not
    # a whole-campaign wall clock — never hand it to the supervisor
    report = _campaign_run(args, campaign, budget=None)
    fuzz = assemble_fuzz(campaign, report)
    print(fuzz.summary())
    if not fuzz.ok:
        return EXIT_FUZZ_VIOLATION
    return 0 if report.ok else 1


def _cmd_fuzz(args) -> int:
    from repro.robustness import FuzzHarness

    if _campaign_requested(args):
        return _cmd_fuzz_campaign(args)
    bindings = _parse_bindings(args.set)
    trials = 500 if args.smoke else args.trials
    deadline = min(args.deadline, 5.0) if args.smoke else args.deadline
    harness = FuzzHarness(
        _load(args.file),
        service=args.service,
        actuals=bindings or None,
        seed=args.seed,
        trials=trials,
        deadline=deadline,
    )
    report = harness.run(args.count, jobs=args.jobs)
    print(report.summary())
    return 0 if report.ok else EXIT_FUZZ_VIOLATION


def _begin_observation(args):
    """Enable metrics/trace collection when the command asked for it.

    Returns the state tuple :func:`_finish_observation` needs, or ``None``
    when both flags are off (the zero-overhead default).
    """
    metrics = getattr(args, "metrics", "off")
    trace = getattr(args, "trace", None)
    if metrics == "off" and trace is None:
        return None
    from repro import observability as obs
    from repro.observability.hooks import JsonlSink

    obs.reset()
    sink = None
    hooks = []
    if trace is not None:
        sink = JsonlSink(trace)
        hooks.append(sink)
    obs.enable(hooks=hooks)
    return metrics, trace, sink


def _finish_observation(state) -> None:
    """Emit the requested metrics/trace outputs and disable collection.

    Runs in a ``finally`` so a failing command still flushes what it
    collected — the profile of a run that tripped its budget is exactly
    the interesting one.
    """
    if state is None:
        return
    metrics, trace, sink = state
    from repro import observability as obs
    from repro.observability.hooks import SummarySink

    if metrics == "summary":
        summary = SummarySink()
        summary.merge_records([s.to_dict() for s in obs.tracer().finished])
        print(summary.render(), file=sys.stderr)
        snapshot = obs.registry().snapshot()
        for name, value in sorted(snapshot["counters"].items()):
            print(f"  {name} = {value}", file=sys.stderr)
        for name, value in sorted(snapshot["gauges"].items()):
            print(f"  {name} = {value:g}", file=sys.stderr)
    elif metrics.startswith("json:"):
        Path(metrics[len("json:"):]).write_text(
            obs.registry().to_json() + "\n"
        )
    if sink is not None:
        sink.close()
        if sink.write_errors:
            print(
                f"warning: {sink.write_errors} trace write error(s) on "
                f"{trace}", file=sys.stderr,
            )
    obs.reset()


_COMMANDS = {
    "validate": _cmd_validate,
    "describe": _cmd_describe,
    "evaluate": _cmd_evaluate,
    "closed-form": _cmd_closed_form,
    "batch": _cmd_batch,
    "sweep": _cmd_sweep,
    "compare": _cmd_compare,
    "invocations": _cmd_invocations,
    "simulate": _cmd_simulate,
    "performance": _cmd_performance,
    "uncertainty": _cmd_uncertainty,
    "export-scenario": _cmd_export_scenario,
    "fuzz": _cmd_fuzz,
    "serve": _cmd_serve,
}


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code.

    Every :class:`ReproError` maps to its taxonomy exit code (see
    ``EXIT_CODES``) with a one-line ``error[<Class>]`` message on stderr —
    no tracebacks at this boundary.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    observation = _begin_observation(args)
    try:
        return _COMMANDS[args.command](args)
    except ReproError as exc:
        print(f"error[{type(exc).__name__}]: {exc}", file=sys.stderr)
        return exit_code_for(exc)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        _finish_observation(observation)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
