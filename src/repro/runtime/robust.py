"""Graceful degradation: the hardened front door of the prediction engine.

A production prediction service must return *an* answer whenever one is
honestly computable, and a typed refusal otherwise — never a hang, never a
traceback, never a silently wrong number.  :class:`RobustEvaluator` wraps
the three evaluation back-ends of the library into a fallback chain, ordered
from most exact/cheapest-to-reuse to most tolerant:

1. ``symbolic``     — closed-form derivation, evaluated at the actuals;
2. ``numeric``      — the recursive procedure with direct linear solves,
   and the least fixed point on recursive assemblies;
3. ``monte-carlo``  — simulation estimate with a Wilson confidence
   interval, retried under fresh seeds on failure.

Each tier runs under the shared :class:`~repro.runtime.EvaluationBudget`;
a tier that fails contributes a :class:`TierDiagnostic` (typed error +
elapsed time) and the chain falls through.  The returned
:class:`EvaluationResult` always names the tier that produced the number
and carries the diagnostics of every tier that did not — the
degraded-but-honest contract.  When every tier fails, the chain raises
:class:`~repro.errors.AllTiersFailedError`, itself a
:class:`~repro.errors.ReproError`.
"""

from __future__ import annotations

import time
from collections.abc import Sequence

from repro import observability as obs
from repro.errors import (
    AllTiersFailedError,
    BudgetExceededError,
    EvaluationError,
    ModelError,
    ReproError,
)
from repro.runtime.budget import EvaluationBudget
from repro.runtime.guards import check_probability
from repro.model.assembly import Assembly
from repro.model.service import Service
from repro.model.validation import validate_assembly
from repro.symbolic import Environment

__all__ = ["EvaluationResult", "RobustEvaluator", "TierDiagnostic"]

#: The default degradation order.
DEFAULT_TIERS = ("symbolic", "numeric", "monte-carlo")


class TierDiagnostic:
    """Record of one failed tier: which, why (typed), and how long it ran."""

    def __init__(self, tier: str, error: ReproError, elapsed: float, attempts: int = 1):
        self.tier = tier
        self.error = error
        self.elapsed = elapsed
        self.attempts = attempts

    def __repr__(self) -> str:
        return (
            f"TierDiagnostic({self.tier!r}, {type(self.error).__name__}: "
            f"{self.error}, {self.elapsed:.3f}s, attempts={self.attempts})"
        )


class EvaluationResult:
    """The answer of a degradation chain, with provenance.

    Attributes:
        service: evaluated service name.
        actuals: the actual parameters used.
        pfail: the predicted unreliability.
        tier: which tier produced it (``"symbolic"``, ``"numeric"`` or
            ``"monte-carlo"``).
        exact: True for analytic tiers, False for the Monte Carlo estimate.
        confidence_interval: 95% Wilson interval for Monte Carlo results,
            the degenerate ``(pfail, pfail)`` for exact tiers.
        standard_error: binomial standard error (0.0 for exact tiers).
        trials: Monte Carlo trials actually run (None for exact tiers).
        diagnostics: one :class:`TierDiagnostic` per tier that failed
            before this one succeeded.
    """

    def __init__(
        self,
        service: str,
        actuals: dict[str, float],
        pfail: float,
        tier: str,
        diagnostics: tuple[TierDiagnostic, ...],
        confidence_interval: tuple[float, float] | None = None,
        standard_error: float = 0.0,
        trials: int | None = None,
        elapsed: float = 0.0,
    ):
        self.service = service
        self.actuals = dict(actuals)
        self.pfail = pfail
        self.tier = tier
        self.exact = trials is None
        self.confidence_interval = (
            confidence_interval if confidence_interval is not None
            else (pfail, pfail)
        )
        self.standard_error = standard_error
        self.trials = trials
        self.diagnostics = diagnostics
        self.elapsed = elapsed

    @property
    def reliability(self) -> float:
        """``1 - pfail``."""
        return 1.0 - self.pfail

    @property
    def degraded(self) -> bool:
        """True when at least one earlier tier failed."""
        return bool(self.diagnostics)

    def __repr__(self) -> str:
        return (
            f"EvaluationResult({self.service!r}, pfail={self.pfail:.6e}, "
            f"tier={self.tier!r}, degraded={self.degraded})"
        )

    def __str__(self) -> str:
        lines = [
            f"Pfail({self.service}) = {self.pfail:.6e} via {self.tier} tier"
        ]
        if not self.exact:
            low, high = self.confidence_interval
            lines.append(
                f"  95% interval [{low:.6e}, {high:.6e}] "
                f"over {self.trials} trials"
            )
        for diag in self.diagnostics:
            lines.append(
                f"  degraded past {diag.tier}: "
                f"{type(diag.error).__name__}: {diag.error}"
            )
        return "\n".join(lines)


class RobustEvaluator:
    """Hardened evaluation with graceful degradation.

    Args:
        assembly: the service assembly to analyze (validated once, up
            front, with typed errors).
        budget: shared resource envelope for the whole chain; ``None``
            means unlimited.
        tiers: degradation order — a subsequence of
            ``("symbolic", "numeric", "monte-carlo")``.
        trials: Monte Carlo trials for the estimation tier (shed down to
            the budget's remaining trial allowance).
        seed: base seed for the Monte Carlo tier; retries reseed from it.
        retries: extra Monte Carlo attempts, each under a fresh seed.
        validate: validate the assembly up front (recommended).
    """

    def __init__(
        self,
        assembly: Assembly,
        budget: EvaluationBudget | None = None,
        tiers: Sequence[str] = DEFAULT_TIERS,
        trials: int = 20_000,
        seed: int = 0,
        retries: int = 2,
        validate: bool = True,
    ):
        unknown = [t for t in tiers if t not in DEFAULT_TIERS]
        if unknown:
            raise EvaluationError(f"unknown evaluation tiers {unknown}")
        self.assembly = assembly
        self.budget = budget if budget is not None else EvaluationBudget()
        self.tiers = tuple(tiers)
        self.trials = int(trials)
        self.seed = int(seed)
        self.retries = int(retries)
        if validate:
            try:
                validate_assembly(assembly).raise_if_invalid()
            except ReproError:
                raise
            except Exception as exc:  # defensive: validation must be typed
                raise ModelError(
                    f"assembly validation crashed: "
                    f"{type(exc).__name__}: {exc}"
                ) from exc
        self._symbolic_evaluator = None
        self._numeric_evaluator = None

    # -- public API --------------------------------------------------------

    def evaluate(self, service: str | Service, **actuals: float) -> EvaluationResult:
        """Run the degradation chain; always an :class:`EvaluationResult`
        or a :class:`~repro.errors.ReproError`."""
        name = service.name if isinstance(service, Service) else str(service)
        started = time.monotonic()
        self.budget.start()
        diagnostics: list[TierDiagnostic] = []
        runners = {
            "symbolic": self._tier_symbolic,
            "numeric": self._tier_numeric,
            "monte-carlo": self._tier_monte_carlo,
        }
        obs.count("robust.evaluations")
        with obs.span("robust.evaluate", service=name) as chain_span:
            for tier in self.tiers:
                self.budget.check_deadline(f"{tier} tier")
                tier_started = time.monotonic()
                with obs.span("robust.tier", tier=tier) as tier_span:
                    try:
                        result = runners[tier](name, actuals)
                    except BudgetExceededError as exc:
                        tier_span.set_tag(outcome=type(exc).__name__)
                        obs.count(f"robust.tier.{tier}.failed")
                        if exc.resource == "deadline":
                            raise  # no lower tier can beat an expired clock
                        diagnostics.append(
                            TierDiagnostic(
                                tier, exc, time.monotonic() - tier_started
                            )
                        )
                        continue
                    except ReproError as exc:
                        tier_span.set_tag(outcome=type(exc).__name__)
                        obs.count(f"robust.tier.{tier}.failed")
                        diagnostics.append(
                            TierDiagnostic(
                                tier, exc, time.monotonic() - tier_started
                            )
                        )
                        continue
                    except Exception as exc:
                        # The contract: the chain never leaks an untyped
                        # exception.
                        tier_span.set_tag(outcome=type(exc).__name__)
                        obs.count(f"robust.tier.{tier}.failed")
                        wrapped = EvaluationError(
                            f"{tier} tier crashed: {type(exc).__name__}: {exc}"
                        )
                        wrapped.__cause__ = exc
                        diagnostics.append(
                            TierDiagnostic(
                                tier, wrapped, time.monotonic() - tier_started
                            )
                        )
                        continue
                    tier_span.set_tag(outcome="served")
                pfail, interval, stderr, trials = result
                obs.count(f"robust.tier.{tier}.served")
                if diagnostics:
                    obs.count("robust.degraded")
                chain_span.set_tag(tier=tier, degraded=bool(diagnostics))
                return EvaluationResult(
                    name, dict(actuals), pfail, tier, tuple(diagnostics),
                    confidence_interval=interval, standard_error=stderr,
                    trials=trials, elapsed=time.monotonic() - started,
                )
            obs.count("robust.all_tiers_failed")
            chain_span.set_tag(outcome="all-tiers-failed")
            raise AllTiersFailedError(name, diagnostics)

    def pfail(self, service: str | Service, **actuals: float) -> float:
        """``Pfail`` through the degradation chain."""
        return self.evaluate(service, **actuals).pfail

    def reliability(self, service: str | Service, **actuals: float) -> float:
        """``1 - Pfail`` through the degradation chain."""
        return 1.0 - self.pfail(service, **actuals)

    # -- tiers -------------------------------------------------------------

    def _tier_symbolic(self, service: str, actuals: dict[str, float]):
        from repro.core.symbolic_evaluator import SymbolicEvaluator

        if self._symbolic_evaluator is None:
            self._symbolic_evaluator = SymbolicEvaluator(
                self.assembly, validate=False, budget=self.budget
            )
        else:
            # pooled plans swap budgets between calls; the cached tier
            # must charge the current one, not the budget it was born with
            self._symbolic_evaluator.budget = self.budget
        expression = self._symbolic_evaluator.pfail_expression(service)
        value = float(
            expression.evaluate(Environment({k: float(v) for k, v in actuals.items()}))
        )
        return check_probability(f"Pfail({service})", value), None, 0.0, None

    def _tier_numeric(self, service: str, actuals: dict[str, float]):
        from repro.core.evaluator import ReliabilityEvaluator

        if self._numeric_evaluator is None:
            self._numeric_evaluator = ReliabilityEvaluator(
                self.assembly, validate=False, budget=self.budget
            )
        else:
            self._numeric_evaluator.budget = self.budget
        value = self._numeric_evaluator.pfail(service, **actuals)
        return check_probability(f"Pfail({service})", value), None, 0.0, None

    def _tier_monte_carlo(self, service: str, actuals: dict[str, float]):
        from repro.simulation.engine import MonteCarloSimulator

        trials = self.budget.effective_trials(self.trials)
        if trials <= 0:
            raise BudgetExceededError(
                "trials", self.budget.max_trials or 0,
                self.budget.trials_used, "monte-carlo tier",
            )
        last: ReproError | None = None
        for attempt in range(self.retries + 1):
            simulator = MonteCarloSimulator(
                self.assembly, seed=self.seed + attempt, validate=False,
                budget=self.budget,
            )
            try:
                result = simulator.estimate_pfail(service, trials, **actuals)
            except BudgetExceededError:
                raise
            except ReproError as exc:
                last = exc  # reseed and retry: distinct sample path
                continue
            low, high = result.confidence_interval()
            return (
                check_probability(f"Pfail({service})", result.pfail),
                (low, high), result.standard_error, result.trials,
            )
        raise last if last is not None else EvaluationError(
            "monte-carlo tier exhausted retries"
        )
