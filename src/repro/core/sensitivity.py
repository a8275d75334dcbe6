"""Sensitivity analysis of predicted reliability.

The paper motivates prediction as the input to *selection*: a broker
assembling services needs to know not only the predicted reliability but
which published attribute to improve (or which service to re-select) for
the largest gain.  This module differentiates the symbolic closed form of
``Pfail(S, fp)`` with respect to

- the service's **formal parameters** (how unreliability scales with
  workload — e.g. d Pfail(search) / d list, the slope of Figure 6), and
- every **interface attribute** in the assembly (failure rates, speeds,
  bandwidths), via the ``symbolic_attributes`` mode of the symbolic
  evaluator,

and evaluates the derivatives at a concrete design point.  A
finite-difference cross-check is provided for validation.

The finite-difference probes evaluate *structurally identical* models at
nearby points, so they share one cached structural solve plan and each
probe pays only its own factorization.  Reusing one factorization across
probes through low-rank updates does not pay: perturbing a 3-caller
provider of generated 150/1000/3000-state cyclic models, it saved 4-5%
of a :func:`finite_difference_attribute_sensitivity` call (median of 5;
2 vCPUs, BLAS on one thread), because re-parsing the perturbed model,
building its chain and validating it cost far more than the solve.
"""

from __future__ import annotations

import json
from collections.abc import Mapping
from dataclasses import dataclass

from repro.core.evaluator import ReliabilityEvaluator
from repro.core.symbolic_evaluator import (
    SymbolicEvaluator,
    attribute_environment,
)
from repro.errors import EvaluationError, ProbabilityRangeError
from repro.model.assembly import Assembly
from repro.symbolic import Environment
from repro.symbolic.compiler import compile_expression, gradient_kernels

__all__ = [
    "SensitivityResult",
    "parameter_sensitivities",
    "attribute_sensitivities",
    "finite_difference_sensitivity",
    "finite_difference_attribute_sensitivity",
]


@dataclass(frozen=True)
class SensitivityResult:
    """Sensitivity of ``Pfail`` to one quantity at a design point.

    Attributes:
        name: the parameter or ``service::attribute`` symbol.
        value: the quantity's value at the design point.
        derivative: ``d Pfail / d name`` at the point.
        elasticity: ``(name / Pfail) * derivative`` — the relative change of
            unreliability per relative change of the quantity; the
            scale-free number to *rank* by (zero when ``Pfail`` or the
            value is zero).
    """

    name: str
    value: float
    derivative: float
    elasticity: float


def _elasticity(value: float, pfail: float, derivative: float) -> float:
    if pfail == 0.0 or value == 0.0:
        return 0.0
    return (value / pfail) * derivative


def parameter_sensitivities(
    assembly: Assembly,
    service: str,
    actuals: Mapping[str, float],
) -> list[SensitivityResult]:
    """Sensitivity of ``Pfail(service)`` to each formal parameter, ranked by
    absolute elasticity (descending).

    The closed form and each gradient are differentiated and compiled to
    numpy kernels once per parameter, ever — repeated probes of the same
    design re-walk nothing.
    """
    evaluator = SymbolicEvaluator(assembly)
    pfail_expr = evaluator.pfail_expression(service)
    env = Environment(dict(actuals))
    formals = assembly.service(service).formal_parameters
    pfail = float(compile_expression(pfail_expr).evaluate(env))
    gradients = gradient_kernels(pfail_expr, formals)
    results = []
    for name in formals:
        derivative = float(gradients[name].evaluate(env))
        value = float(actuals[name])
        results.append(
            SensitivityResult(name, value, derivative, _elasticity(value, pfail, derivative))
        )
    results.sort(key=lambda r: abs(r.elasticity), reverse=True)
    return results


def attribute_sensitivities(
    assembly: Assembly,
    service: str,
    actuals: Mapping[str, float],
    top: int | None = None,
) -> list[SensitivityResult]:
    """Sensitivity of ``Pfail(service)`` to every interface attribute in the
    assembly (``service::attribute`` symbols), ranked by absolute
    elasticity.

    This answers the broker's question directly: e.g. in the remote
    assembly of section 4, the network failure rate ``net12::failure_rate``
    dominates for large ``gamma`` — matching the Figure 6 story.
    """
    evaluator = SymbolicEvaluator(assembly, symbolic_attributes=True)
    pfail_expr = evaluator.pfail_expression(service)
    attr_env = attribute_environment(assembly)
    env = Environment({**dict(attr_env), **dict(actuals)})
    symbols = [
        s for s in sorted(pfail_expr.free_parameters()) if "::" in s
    ]  # formal parameters are handled by parameter_sensitivities
    pfail = float(compile_expression(pfail_expr).evaluate(env))
    gradients = gradient_kernels(pfail_expr, symbols)
    results = []
    for symbol in symbols:
        derivative = float(gradients[symbol].evaluate(env))
        value = float(env[symbol])
        results.append(
            SensitivityResult(symbol, value, derivative, _elasticity(value, pfail, derivative))
        )
    results.sort(key=lambda r: abs(r.elasticity), reverse=True)
    if top is not None:
        results = results[:top]
    return results


def finite_difference_sensitivity(
    assembly: Assembly,
    service: str,
    actuals: Mapping[str, float],
    parameter: str,
    step: float = 1e-4,
) -> float:
    """Central finite-difference ``d Pfail / d parameter`` — a
    model-independent cross-check of the symbolic derivatives.

    Domain checks are disabled for the probe points (the half-steps around
    an integer-domain point are intentionally non-integral).
    """
    evaluator = ReliabilityEvaluator(assembly, check_domains=False)
    value = float(actuals[parameter])
    h = step * max(abs(value), 1.0)
    up = dict(actuals)
    down = dict(actuals)
    up[parameter] = value + h
    down[parameter] = value - h
    return (evaluator.pfail(service, **up) - evaluator.pfail(service, **down)) / (2 * h)


def finite_difference_attribute_sensitivity(
    assembly: Assembly,
    service: str,
    actuals: Mapping[str, float],
    attribute: str,
    step: float = 1e-4,
    incremental: bool = False,
) -> float:
    """Central finite-difference ``d Pfail / d (service::attribute)`` by
    re-evaluating *perturbed copies* of the assembly — the numeric
    cross-check of :func:`attribute_sensitivities`.

    Each probe rebuilds the assembly with the published attribute nudged
    by ``±h`` and re-runs the full recursive evaluation.  ``incremental``
    is accepted and ignored; it is the flag of the retired low-rank update
    tier, still passed by ``perfbench``.

    When ``v - h`` leaves the attribute's domain (a failure rate below the
    step probes negative and raises :class:`ProbabilityRangeError`), the
    derivative is a one-sided forward difference from ``v`` instead.
    """
    from repro.dsl import load_assembly
    from repro.dsl.serializer import assembly_to_dict

    service_name, separator, attr = attribute.partition("::")
    if not separator:
        raise EvaluationError(
            f"expected an attribute symbol '<service>::<attribute>', got "
            f"{attribute!r}"
        )
    document = assembly_to_dict(assembly)
    target = next(
        (s for s in document["services"] if s["name"] == service_name), None
    )
    if target is None or attr not in target["interface"]["attributes"]:
        raise EvaluationError(
            f"{attribute!r} is not a published attribute of any service in "
            f"{assembly.name!r}"
        )
    value = float(target["interface"]["attributes"][attr])
    h = step * max(abs(value), 1.0)

    def probe(delta: float) -> float:
        target["interface"]["attributes"][attr] = value + delta
        evaluator = ReliabilityEvaluator(
            load_assembly(json.dumps(document)), check_domains=False
        )
        return evaluator.pfail(service, **dict(actuals))

    up = probe(h)
    try:
        return (up - probe(-h)) / (2 * h)
    except ProbabilityRangeError:
        return (up - probe(0.0)) / h
