"""The paper's primary contribution: compositional reliability prediction.

- :mod:`repro.core.state_failure` — per-state failure probabilities under
  the completion x dependency models (eqs. 4–13);
- :mod:`repro.core.failure_structure` — Fail-state augmentation (Figure 5);
- :mod:`repro.core.evaluator` — the recursive ``Pfail_Alg`` (section 3.3);
- :mod:`repro.core.fixed_point` — the least fixed point ``Pfail_Alg``
  solves on recursive assemblies (the paper's stated future work);
- :mod:`repro.core.symbolic_evaluator` — closed-form derivation (section 4);
- :mod:`repro.core.sensitivity` — derivative-based what-if analysis.
"""

from repro.core.evaluator import EvaluationReport, ReliabilityEvaluator, StateBreakdown
from repro.core.failure_structure import augment_with_failures
from repro.core.performance import PerformanceEvaluator
from repro.core.sensitivity import (
    SensitivityResult,
    attribute_sensitivities,
    finite_difference_attribute_sensitivity,
    finite_difference_sensitivity,
    parameter_sensitivities,
)
from repro.core.state_failure import (
    and_no_sharing,
    and_sharing,
    external_failure_probability,
    grouped_state_failure_probability,
    or_no_sharing,
    or_sharing,
    poisson_binomial_below,
    request_failure_probability,
    state_failure_probability,
)
from repro.core.symbolic_evaluator import (
    SymbolicEvaluator,
    attribute_environment,
    attribute_symbol,
)

__all__ = [
    "EvaluationReport",
    "PerformanceEvaluator",
    "ReliabilityEvaluator",
    "SensitivityResult",
    "StateBreakdown",
    "SymbolicEvaluator",
    "and_no_sharing",
    "and_sharing",
    "attribute_environment",
    "attribute_sensitivities",
    "attribute_symbol",
    "augment_with_failures",
    "external_failure_probability",
    "grouped_state_failure_probability",
    "finite_difference_attribute_sensitivity",
    "finite_difference_sensitivity",
    "or_no_sharing",
    "or_sharing",
    "parameter_sensitivities",
    "poisson_binomial_below",
    "request_failure_probability",
    "state_failure_probability",
]
