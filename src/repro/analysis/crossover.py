"""Crossover detection between reliability curves.

The question Figure 6 answers is *where the local and remote curves cross*:
for which workloads (and attribute settings) does the architecture ranking
flip.  Given two sampled curves on a common grid, :func:`find_crossovers`
locates the sign changes of their difference and refines each by bisection
on caller-supplied continuous functions when available.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass

import numpy as np

from repro.errors import EvaluationError

__all__ = ["Crossover", "find_crossovers", "bisect_crossover", "pfail_difference"]


@dataclass(frozen=True)
class Crossover:
    """One crossing of two curves.

    Attributes:
        location: the (interpolated or refined) parameter value of the
            crossing.
        sign_before: +1 when curve A is above B just before the crossing,
            -1 when below.
    """

    location: float
    sign_before: int


def find_crossovers(
    grid: Sequence[float] | np.ndarray,
    curve_a: Sequence[float] | np.ndarray,
    curve_b: Sequence[float] | np.ndarray,
    refine: Callable[[float], float] | None = None,
    tolerance: float = 1e-9,
) -> list[Crossover]:
    """Crossings of two curves sampled on a common ascending grid.

    Args:
        grid: the common parameter grid (strictly ascending).
        curve_a, curve_b: the sampled values.
        refine: optional continuous function of the parameter returning
            ``a(x) - b(x)``; when given, each bracketing interval is
            bisected to ``tolerance``; otherwise crossings are linearly
            interpolated from the samples.
        tolerance: bisection convergence threshold.

    Exact ties on grid points are treated as crossings only when the sign
    actually flips across them.
    """
    x = np.asarray(grid, dtype=float)
    a = np.asarray(curve_a, dtype=float)
    b = np.asarray(curve_b, dtype=float)
    if not (x.shape == a.shape == b.shape) or x.ndim != 1:
        raise EvaluationError("grid and curves must be 1-D arrays of equal length")
    if x.size < 2:
        return []
    if np.any(np.diff(x) <= 0):
        raise EvaluationError("grid must be strictly ascending")

    delta = a - b
    crossings: list[Crossover] = []
    nonzero = [i for i in range(len(x)) if delta[i] != 0.0]
    for left, right in zip(nonzero, nonzero[1:]):
        d0, d1 = delta[left], delta[right]
        if d0 * d1 >= 0.0:
            continue
        if right == left + 1:
            if refine is not None:
                location = bisect_crossover(
                    refine, float(x[left]), float(x[right]), tolerance
                )
            else:
                location = float(
                    x[left] - d0 * (x[right] - x[left]) / (d1 - d0)
                )
        else:
            # the curves tie exactly on the grid points strictly between
            # left and right; report the center of the tie run
            location = float(0.5 * (x[left + 1] + x[right - 1]))
        crossings.append(Crossover(location, sign_before=1 if d0 > 0 else -1))
    return crossings


def pfail_difference(
    assembly_a,
    assembly_b,
    service: str,
    parameter: str,
    fixed: Mapping[str, float] | None = None,
) -> Callable[[float], float]:
    """Continuous ``pfail_a(x) - pfail_b(x)`` suitable as the ``refine``
    argument of :func:`find_crossovers`.

    Builds one numeric evaluator per assembly (domain checks off — the
    bisection probes non-grid points) and returns the difference of their
    predictions as a function of the swept ``parameter``.
    """
    from repro.core.evaluator import ReliabilityEvaluator

    eval_a = ReliabilityEvaluator(assembly_a, check_domains=False)
    eval_b = ReliabilityEvaluator(assembly_b, check_domains=False)
    fixed_map = dict(fixed or {})

    def difference(x: float) -> float:
        point = {**fixed_map, parameter: x}
        return eval_a.pfail(service, **point) - eval_b.pfail(service, **point)

    return difference


def bisect_crossover(
    difference: Callable[[float], float],
    low: float,
    high: float,
    tolerance: float = 1e-9,
    max_iterations: int = 200,
) -> float:
    """Bisection root of ``difference`` on a bracketing interval."""
    f_low = difference(low)
    f_high = difference(high)
    if f_low == 0.0:
        return low
    if f_high == 0.0:
        return high
    if f_low * f_high > 0.0:
        raise EvaluationError(
            f"interval [{low}, {high}] does not bracket a crossover "
            f"(f = {f_low}, {f_high})"
        )
    for _ in range(max_iterations):
        mid = 0.5 * (low + high)
        f_mid = difference(mid)
        if f_mid == 0.0 or (high - low) < tolerance:
            return mid
        if f_low * f_mid < 0.0:
            high = mid
        else:
            low, f_low = mid, f_mid
    return 0.5 * (low + high)
