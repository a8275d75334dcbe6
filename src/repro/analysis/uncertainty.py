"""Uncertainty propagation from published attributes to predictions.

The paper's prediction consumes *published* attribute values (failure
rates, speeds, bandwidths) at face value; its section 6 notes that
monitoring must check whether reality matches.  Between blind trust and
full monitoring sits a cheap question this module answers: **how sensitive
is the predicted unreliability to estimation error in the published
numbers?**

Two standard propagation routes, both built on the symbolic closed form
with attributes left free (so no re-evaluation of the assembly is needed
per sample):

- :func:`delta_method` — first-order propagation: with independent
  attribute uncertainties ``sigma_a``, ``Var[Pfail] ~= sum_a
  (dPfail/da * sigma_a)^2`` using the exact symbolic derivatives;
- :func:`sample_uncertainty` — Monte Carlo over attribute priors: each
  uncertain attribute is drawn from an independent **lognormal** centered
  on its published value (attributes are positive scale parameters;
  lognormal keeps samples positive), and the closed form is evaluated
  *vectorized* over all samples at once.

Both report on ``Pfail`` at a fixed actual-parameter point.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from repro.core.symbolic_evaluator import (
    SymbolicEvaluator,
    attribute_environment,
)
from repro.errors import EvaluationError
from repro.model.assembly import Assembly
from repro.symbolic.compiler import compile_expression, gradient_kernels

__all__ = ["UncertaintyEstimate", "delta_method", "sample_uncertainty"]


@dataclass(frozen=True)
class UncertaintyEstimate:
    """The propagated uncertainty of a ``Pfail`` prediction.

    Attributes:
        pfail: the point prediction at the published attribute values.
        std: the propagated standard deviation of ``Pfail``.
        percentiles: optional sampled percentiles (Monte Carlo route only),
            mapping e.g. 5.0 -> the 5th-percentile Pfail.
        contributions: per-attribute share of the variance (delta-method
            route only), mapping ``service::attribute`` to its fraction of
            the total variance — the "who do we need better data on"
            ranking.
    """

    pfail: float
    std: float
    percentiles: Mapping[float, float] | None = None
    contributions: Mapping[str, float] | None = None

    def interval(self, z: float = 1.96) -> tuple[float, float]:
        """A symmetric z-sigma interval clipped to [0, 1]."""
        return (
            max(0.0, self.pfail - z * self.std),
            min(1.0, self.pfail + z * self.std),
        )


def _resolve_uncertainties(
    assembly: Assembly,
    relative_std: float | Mapping[str, float],
    base: Mapping[str, float],
) -> dict[str, float]:
    """Attribute symbol -> absolute standard deviation."""
    if isinstance(relative_std, Mapping):
        unknown = set(relative_std) - set(base)
        if unknown:
            raise EvaluationError(
                f"uncertainties given for unknown attributes {sorted(unknown)}"
            )
        return {
            name: abs(base[name]) * float(rel)
            for name, rel in relative_std.items()
        }
    rel = float(relative_std)
    if rel < 0:
        raise EvaluationError("relative_std must be non-negative")
    return {name: abs(value) * rel for name, value in base.items()}


def delta_method(
    assembly: Assembly,
    service: str,
    actuals: Mapping[str, float],
    relative_std: float | Mapping[str, float] = 0.1,
) -> UncertaintyEstimate:
    """First-order uncertainty propagation via symbolic derivatives.

    Args:
        assembly: the assembly under analysis.
        service: the evaluated service.
        actuals: the fixed actual parameters.
        relative_std: either one relative standard deviation applied to
            every published attribute, or a mapping from
            ``service::attribute`` symbols to per-attribute relative
            standard deviations (attributes not listed are treated as
            exact).

    The closed form and its derivatives run through compiled kernels;
    each derivative is differentiated and compiled once per attribute,
    ever.
    """
    evaluator = SymbolicEvaluator(assembly, symbolic_attributes=True)
    expression = evaluator.pfail_expression(service)
    base = dict(attribute_environment(assembly))
    env = {**base, **{k: float(v) for k, v in dict(actuals).items()}}
    pfail = float(compile_expression(expression).evaluate(env))

    sigmas = _resolve_uncertainties(assembly, relative_std, base)
    variance = 0.0
    pieces: dict[str, float] = {}
    free = expression.free_parameters()
    symbols = [
        s for s, sigma in sigmas.items() if sigma != 0.0 and s in free
    ]
    slopes = gradient_kernels(expression, symbols)
    for symbol in symbols:
        sigma = sigmas[symbol]
        slope = float(slopes[symbol].evaluate(env))
        piece = (slope * sigma) ** 2
        variance += piece
        pieces[symbol] = piece
    contributions = (
        {name: piece / variance for name, piece in pieces.items()}
        if variance > 0.0
        else {name: 0.0 for name in pieces}
    )
    return UncertaintyEstimate(
        pfail=pfail, std=float(np.sqrt(variance)), contributions=contributions
    )


def sample_uncertainty(
    assembly: Assembly,
    service: str,
    actuals: Mapping[str, float],
    relative_std: float | Mapping[str, float] = 0.1,
    samples: int = 10_000,
    seed: int | None = None,
    percentiles: tuple[float, ...] = (5.0, 25.0, 50.0, 75.0, 95.0),
) -> UncertaintyEstimate:
    """Monte Carlo propagation: lognormal attribute priors, one vectorized
    closed-form evaluation.

    The lognormal for an attribute with published value ``v`` and relative
    standard deviation ``r`` has median ``v`` and log-space sigma
    ``sqrt(log(1 + r^2))`` — for small ``r`` this matches the delta
    method to first order (property-tested).
    """
    if samples < 2:
        raise EvaluationError("sample_uncertainty needs at least 2 samples")
    evaluator = SymbolicEvaluator(assembly, symbolic_attributes=True)
    expression = evaluator.pfail_expression(service)
    base = dict(attribute_environment(assembly))
    sigmas = _resolve_uncertainties(assembly, relative_std, base)

    rng = np.random.default_rng(seed)
    env: dict[str, object] = {k: float(v) for k, v in dict(actuals).items()}
    for name, value in base.items():
        sigma = sigmas.get(name, 0.0)
        if sigma == 0.0 or value == 0.0:
            env[name] = value
            continue
        rel = sigma / abs(value)
        log_sigma = float(np.sqrt(np.log1p(rel * rel)))
        env[name] = value * rng.lognormal(mean=0.0, sigma=log_sigma, size=samples)

    target = compile_expression(expression)
    draws = np.clip(
        np.broadcast_to(
            np.asarray(target.evaluate(env), dtype=float), (samples,)
        ),
        0.0,
        1.0,
    )
    point_env = {**base, **{k: float(v) for k, v in dict(actuals).items()}}
    return UncertaintyEstimate(
        pfail=float(target.evaluate(point_env)),
        std=float(draws.std(ddof=1)),
        percentiles={
            float(p): float(np.percentile(draws, p)) for p in percentiles
        },
    )
