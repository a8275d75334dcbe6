"""The fault-injection harness: assert the engine never lies or crashes.

For each corrupted model produced by
:class:`~repro.robustness.mutator.ModelMutator`, the harness runs the full
hardened path — load, validate, :class:`~repro.runtime.RobustEvaluator`
degradation chain under an :class:`~repro.runtime.EvaluationBudget` — and
classifies the outcome:

- ``ok``           — a result with ``0 <= pfail <= 1`` was produced;
- ``typed-error``  — a :class:`~repro.errors.ReproError` subclass was
  raised (the *correct* response to a corrupt model);
- ``out-of-range`` — a probability escaped ``[0, 1]`` (**violation**);
- ``crash``        — an unhandled non-``ReproError`` exception
  (**violation**).

A run with zero violations is the robustness contract the CI smoke job
(``python -m repro fuzz --smoke``) enforces on every push.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

from repro import observability as obs
from repro.errors import ReproError, format_error_chain
from repro.model.assembly import Assembly
from repro.model.parameters import FiniteDomain, IntegerDomain, RealDomain
from repro.model.service import CompositeService
from repro.robustness.mutator import ModelMutator, Mutation
from repro.runtime.budget import EvaluationBudget
from repro.runtime.robust import RobustEvaluator

__all__ = [
    "FuzzCase",
    "FuzzHarness",
    "FuzzReport",
    "default_target",
    "domain_representative",
    "run_fuzz_case",
]

OK = "ok"
TYPED_ERROR = "typed-error"
OUT_OF_RANGE = "out-of-range"
CRASH = "crash"


@dataclass
class FuzzCase:
    """Outcome of one mutated model."""

    index: int
    operator: str
    detail: str
    status: str
    pfail: float | None = None
    tier: str | None = None
    error: str = ""

    @property
    def violation(self) -> bool:
        """True for contract-breaking outcomes (crash / range escape)."""
        return self.status in (CRASH, OUT_OF_RANGE)


@dataclass
class FuzzReport:
    """Aggregate outcome of a fuzzing run."""

    cases: list[FuzzCase] = field(default_factory=list)
    elapsed: float = 0.0

    @property
    def ok(self) -> bool:
        """True when no case violated the robustness contract."""
        return not self.violations

    @property
    def violations(self) -> list[FuzzCase]:
        """Contract-breaking cases (empty on a healthy engine)."""
        return [c for c in self.cases if c.violation]

    def count(self, status: str) -> int:
        """Number of cases with the given status."""
        return sum(1 for c in self.cases if c.status == status)

    def by_operator(self) -> dict[str, dict[str, int]]:
        """``{operator: {status: count}}`` breakdown."""
        out: dict[str, dict[str, int]] = {}
        for case in self.cases:
            bucket = out.setdefault(case.operator, {})
            bucket[case.status] = bucket.get(case.status, 0) + 1
        return out

    def summary(self) -> str:
        """Human-readable run summary."""
        lines = [
            f"fuzz: {len(self.cases)} mutated models in {self.elapsed:.1f}s — "
            f"{self.count(OK)} ok, {self.count(TYPED_ERROR)} typed errors, "
            f"{self.count(OUT_OF_RANGE)} out-of-range, "
            f"{self.count(CRASH)} crashes"
        ]
        for operator, buckets in sorted(self.by_operator().items()):
            detail = ", ".join(f"{k}={v}" for k, v in sorted(buckets.items()))
            lines.append(f"  {operator:22s} {detail}")
        for case in self.violations:
            lines.append(
                f"  VIOLATION #{case.index} [{case.operator}] "
                f"{case.detail}: {case.status} {case.error}"
            )
        lines.append("contract " + ("HELD" if self.ok else "VIOLATED"))
        return "\n".join(lines)


def domain_representative(domain) -> float:
    """A safe in-domain value: first finite choice, smallest positive
    integer, or interval midpoint — so any healthy model evaluates."""
    if isinstance(domain, FiniteDomain):
        return float(domain.values[0])
    if isinstance(domain, IntegerDomain):
        low = domain.low if math.isfinite(domain.low) else 1
        return float(max(low, 1))
    if isinstance(domain, RealDomain):
        if math.isfinite(domain.low) and math.isfinite(domain.high):
            return (domain.low + domain.high) / 2.0
        if math.isfinite(domain.low):
            return domain.low + 1.0
        if math.isfinite(domain.high):
            return domain.high - 1.0
    return 1.0


def default_target(assembly: Assembly) -> tuple[str, dict[str, float]]:
    """Pick the top-level composite service and in-domain actuals for it.

    The "top" service is the composite at the highest recursion level —
    the one representing the whole architecture.  Actuals are domain
    representatives (first finite value, smallest positive integer,
    interval midpoint), so any healthy model evaluates cleanly.
    """
    levels = assembly.recursion_levels()
    composites = [
        s for s in assembly.services if isinstance(s, CompositeService)
    ]
    if not composites:
        raise ReproError("assembly has no composite service to fuzz")
    top = max(composites, key=lambda s: levels.get(s.name, 0))
    actuals = {
        p.name: domain_representative(p.domain)
        for p in top.interface.formal_parameters
    }
    return top.name, actuals


def run_fuzz_case(
    index: int,
    mutation: Mutation,
    *,
    service: str,
    actuals: dict[str, float],
    seed: int,
    trials: int,
    deadline: float,
) -> FuzzCase:
    """Evaluate one mutated model and classify the outcome.

    Module-level (and driven entirely by picklable arguments — mutations
    are plain documents) so the engine's worker
    (:func:`repro.engine.parallel.fuzz_block`) can run cases in process
    or on the pool alike.
    """
    try:
        assembly = mutation.build()
        budget = EvaluationBudget(
            deadline=deadline,
            max_depth=64,
            max_sweeps=1_000,
            max_trials=trials * 4,
        )
        evaluator = RobustEvaluator(
            assembly, budget=budget, trials=trials,
            seed=seed + index,
        )
        result = evaluator.evaluate(service, **actuals)
    except ReproError as exc:
        # format_error_chain keeps nested causes (raise ... from ...) in the
        # string-only case record instead of flattening to the outer message
        return FuzzCase(
            index, mutation.operator, mutation.detail, TYPED_ERROR,
            error=format_error_chain(exc),
        )
    except Exception as exc:  # the contract violation we hunt
        return FuzzCase(
            index, mutation.operator, mutation.detail, CRASH,
            error=format_error_chain(exc),
        )
    if not (
        isinstance(result.pfail, float)
        and math.isfinite(result.pfail)
        and 0.0 <= result.pfail <= 1.0
    ):
        return FuzzCase(
            index, mutation.operator, mutation.detail, OUT_OF_RANGE,
            pfail=result.pfail, tier=result.tier,
            error=f"pfail={result.pfail!r}",
        )
    return FuzzCase(
        index, mutation.operator, mutation.detail, OK,
        pfail=result.pfail, tier=result.tier,
    )


class FuzzHarness:
    """Run the mutation contract over many corrupted models.

    Args:
        base: the healthy assembly to corrupt.
        service: target service name (default: auto-detected top service).
        actuals: actual parameters (default: domain representatives).
        seed: mutation + simulation seed for reproducible runs.
        trials: Monte Carlo trials for the degradation tier.
        deadline: per-case wall-clock budget in seconds.
        operators: restrict mutation operators (default: all).
    """

    def __init__(
        self,
        base: Assembly,
        service: str | None = None,
        actuals: dict[str, float] | None = None,
        seed: int = 0,
        trials: int = 2_000,
        deadline: float = 10.0,
        operators: tuple[str, ...] | None = None,
    ):
        self.base = base
        if service is None or actuals is None:
            detected_service, detected_actuals = default_target(base)
            service = service if service is not None else detected_service
            actuals = actuals if actuals is not None else detected_actuals
        self.service = service
        self.actuals = dict(actuals)
        self.seed = seed
        self.trials = trials
        self.deadline = deadline
        self.mutator = ModelMutator(base, seed=seed, operators=operators)

    # -- execution ---------------------------------------------------------

    def run(self, count: int = 200, jobs: int = 1) -> FuzzReport:
        """Run ``count`` mutated models and aggregate the outcomes.

        The mutations are generated here, in order (so the corpus is
        identical regardless of worker count), then sharded through
        :func:`~repro.engine.parallel.fan_out`: in this process at
        ``jobs=1``, across a process pool otherwise.  Cases land in the
        report in index order either way, and each case's simulation seed
        depends only on its index, so classification does not depend on
        ``jobs``.
        """
        from repro.engine import parallel

        started = time.monotonic()
        report = FuzzReport()
        mutations = list(enumerate(self.mutator.generate(count)))
        jobs = parallel.resolve_jobs(jobs)
        with obs.span("fuzz.run", cases=len(mutations), jobs=jobs) as sp:
            shards = parallel.split_evenly(mutations, jobs)
            payloads = [
                {
                    "cases": shard,
                    "service": self.service,
                    "actuals": self.actuals,
                    "seed": self.seed,
                    "trials": self.trials,
                    "deadline": self.deadline,
                }
                for shard in shards
            ]
            blocks = parallel.fan_out(
                "fuzz campaign", parallel.fuzz_block, payloads,
                [[index for index, _ in shard] for shard in shards],
                jobs=jobs if len(shards) > 1 else 1,
            )
            report.cases = [case for block in blocks for case in block]
            for case in report.cases:
                obs.count(f"fuzz.case.{case.status}")
            sp.set_tag(violations=len(report.violations))
        report.elapsed = time.monotonic() - started
        return report
