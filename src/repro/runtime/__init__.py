"""Hardened evaluation runtime: budgets, numerical guards, degradation.

The serving-stack layer the ROADMAP's production north star requires:

- :mod:`repro.runtime.budget` — :class:`EvaluationBudget`, the resource
  envelope (deadline, states, depth, sweeps, trials) every evaluator
  honors by raising :class:`~repro.errors.BudgetExceededError`;
- :mod:`repro.runtime.guards` — numerical guards that turn silent
  floating-point garbage into typed
  :class:`~repro.errors.NumericalInstabilityError` and
  :class:`~repro.errors.ProbabilityRangeError`;
- :mod:`repro.runtime.robust` — :class:`RobustEvaluator`, the graceful
  degradation chain (symbolic → numeric → Monte Carlo) with
  provenance-carrying :class:`EvaluationResult`.
"""

from repro.runtime.budget import EvaluationBudget
from repro.runtime.guards import check_finite_array, check_probability
from repro.runtime.robust import (
    DEFAULT_TIERS,
    EvaluationResult,
    RobustEvaluator,
    TierDiagnostic,
)

__all__ = [
    "DEFAULT_TIERS",
    "EvaluationBudget",
    "EvaluationResult",
    "RobustEvaluator",
    "TierDiagnostic",
    "check_finite_array",
    "check_probability",
]
