"""repro — architecture-based reliability prediction for service-oriented
computing.

A complete implementation of Vincenzo Grassi, *"Architecture-Based
Reliability Prediction for Service-Oriented Computing"* (Architecting
Dependable Systems III, LNCS 3549, 2005): the unified service/connector
model, parametric analytic interfaces, the per-state failure math under
completion x sharing models, the recursive evaluation procedure
``Pfail_Alg`` with numeric and symbolic back-ends (the numeric one solving
recursive assemblies as a least fixed point), Monte Carlo cross-validation, related-work
baselines, and analysis tooling (sweeps, crossovers, service selection,
sensitivity).  The :mod:`repro.engine` layer scales all of it: compiled
evaluation plans, a fingerprint-keyed plan cache, and parallel batch /
sweep / simulation / fuzz execution (``--jobs N`` on the CLI).

Quickstart::

    from repro import ReliabilityEvaluator
    from repro.scenarios import local_assembly

    evaluator = ReliabilityEvaluator(local_assembly())
    print(evaluator.reliability("search", elem=1, list=100, res=1))

See README.md for the architecture overview, DESIGN.md for the system
inventory and EXPERIMENTS.md for the paper-vs-measured record.
"""

import importlib

from repro.core import (
    PerformanceEvaluator,
    ReliabilityEvaluator,
    SymbolicEvaluator,
)
from repro.errors import (
    BudgetExceededError,
    CyclicAssemblyError,
    EvaluationError,
    MarkovError,
    ModelError,
    NumericalInstabilityError,
    ReproError,
    SymbolicError,
)
from repro.model import (
    AND,
    OR,
    AnalyticInterface,
    Assembly,
    CompositeService,
    CpuResource,
    FlowBuilder,
    FormalParameter,
    KOfNCompletion,
    LocalCallConnector,
    NetworkResource,
    RemoteCallConnector,
    ServiceRegistry,
    ServiceRequest,
    SimpleService,
    SoftwareComponent,
    perfect_connector,
    validate_assembly,
)
from repro.symbolic import Environment, Expression, Parameter, parse_expression

__version__ = "1.0.0"

#: Names re-exported on first access (PEP 562), so ``import repro`` does
#: not pay for the engine layer a one-shot evaluation never touches.
_LAZY = {
    "BatchEngine": "repro.engine",
    "BatchRequest": "repro.engine",
    "EvaluationPlan": "repro.engine",
    "PlanCache": "repro.engine",
    "compile_plan": "repro.engine",
    "EvaluationBudget": "repro.runtime",
    "EvaluationResult": "repro.runtime",
    "RobustEvaluator": "repro.runtime",
}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value
    return value

__all__ = [
    "AND",
    "OR",
    "AnalyticInterface",
    "Assembly",
    "BatchEngine",
    "BatchRequest",
    "BudgetExceededError",
    "CompositeService",
    "CpuResource",
    "CyclicAssemblyError",
    "Environment",
    "EvaluationBudget",
    "EvaluationError",
    "EvaluationPlan",
    "EvaluationResult",
    "Expression",
    "FlowBuilder",
    "FormalParameter",
    "KOfNCompletion",
    "MarkovError",
    "ModelError",
    "NetworkResource",
    "NumericalInstabilityError",
    "Parameter",
    "PerformanceEvaluator",
    "PlanCache",
    "ReliabilityEvaluator",
    "RemoteCallConnector",
    "ReproError",
    "RobustEvaluator",
    "ServiceRegistry",
    "ServiceRequest",
    "SimpleService",
    "SoftwareComponent",
    "SymbolicError",
    "SymbolicEvaluator",
    "compile_plan",
    "parse_expression",
    "perfect_connector",
    "validate_assembly",
    "__version__",
]
