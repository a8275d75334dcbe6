"""Numerical guards: detect garbage before it becomes a prediction.

The analytic engine is a pipeline of floating-point computations — attribute
expressions, state-failure combinators, an absorbing-chain linear solve.  A
corrupted model (NaN attribute, unnormalized transition row) or an
ill-conditioned ``(I - Q)`` system does not necessarily raise; unguarded, it
yields a *plausible-looking wrong number*, the worst failure mode a
prediction service can have.  These helpers turn silent contamination into
typed :class:`~repro.errors.NumericalInstabilityError` /
:class:`~repro.errors.ProbabilityRangeError` signals.

Tolerances follow the rest of the library: drift up to ``CLAMP_TOL`` beyond
``[0, 1]`` is attributed to round-off and clamped; anything larger is
evidence of a broken model or an untrustworthy solve and raises.
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import NumericalInstabilityError, ProbabilityRangeError

__all__ = [
    "CLAMP_TOL",
    "MAX_CONDITION",
    "RESIDUAL_TOL",
    "check_finite",
    "check_finite_array",
    "check_probability",
    "check_unit_interval_array",
    "solve_guarded",
]

#: Drift beyond [0, 1] attributed to round-off and silently clamped.
CLAMP_TOL = 1e-9

#: 1-norm condition number beyond which a solve is deemed untrustworthy.
MAX_CONDITION = 1e12

#: Relative residual (infinity norm) beyond which a solution is rejected.
RESIDUAL_TOL = 1e-8


def check_finite(what: str, value: float) -> float:
    """Return ``value`` if finite, else raise ``NumericalInstabilityError``."""
    value = float(value)
    if not math.isfinite(value):
        raise NumericalInstabilityError(f"{what} is not finite: {value!r}")
    return value


def check_finite_array(what: str, array: np.ndarray) -> np.ndarray:
    """Raise ``NumericalInstabilityError`` when ``array`` holds NaN/Inf."""
    if not np.all(np.isfinite(array)):
        bad = int(np.size(array) - np.count_nonzero(np.isfinite(array)))
        raise NumericalInstabilityError(
            f"{what} contains {bad} non-finite entries"
        )
    return array


def check_probability(what: str, value: float, tol: float = CLAMP_TOL) -> float:
    """Validate a scalar probability: finite, within ``[0, 1]`` up to
    ``tol`` drift (clamped), typed errors otherwise."""
    value = check_finite(what, value)
    if value < -tol or value > 1.0 + tol:
        raise ProbabilityRangeError(what, value)
    return min(max(value, 0.0), 1.0)


def check_unit_interval_array(
    what: str, array: np.ndarray, tol: float = CLAMP_TOL
) -> np.ndarray:
    """Vector form of :func:`check_probability`; returns the clamped array."""
    check_finite_array(what, array)
    low = float(np.min(array, initial=0.0))
    high = float(np.max(array, initial=1.0))
    if low < -tol or high > 1.0 + tol:
        worst = low if -low > high - 1.0 else high
        raise ProbabilityRangeError(what, worst)
    return np.clip(array, 0.0, 1.0)


def solve_guarded(
    system: np.ndarray,
    rhs: np.ndarray,
    what: str = "linear system",
    max_condition: float = MAX_CONDITION,
    residual_tol: float = RESIDUAL_TOL,
) -> np.ndarray:
    """``numpy.linalg.solve`` with instability detection.

    Checks, in order: finite inputs; non-singular factorization; a 1-norm
    condition estimate below ``max_condition``; a relative residual
    ``||A x - b|| / max(||b||, 1)`` below ``residual_tol``.  Any violation
    raises :class:`NumericalInstabilityError` instead of returning a
    solution that merely *looks* like probabilities.
    """
    check_finite_array(f"{what}: matrix", system)
    check_finite_array(f"{what}: right-hand side", rhs)
    try:
        solution = np.linalg.solve(system, rhs)
    except np.linalg.LinAlgError as exc:
        raise NumericalInstabilityError(f"{what} is singular: {exc}") from exc
    if not np.all(np.isfinite(solution)):
        raise NumericalInstabilityError(f"{what}: solution is not finite")
    # Cheap conditioning estimate: ||A||_1 * ||A^-1||_1 via one extra solve
    # of the identity would be O(n^3) again, so bound it with the residual
    # plus an explicit 1-norm condition number only for small systems.
    if system.shape[0] <= 512:
        try:
            condition = float(np.linalg.cond(system, 1))
        except np.linalg.LinAlgError:  # pragma: no cover - defensive
            condition = float("inf")
        if not math.isfinite(condition) or condition > max_condition:
            raise NumericalInstabilityError(
                f"{what} is ill-conditioned", condition=condition
            )
    residual = float(np.max(np.abs(system @ solution - rhs), initial=0.0))
    scale = max(float(np.max(np.abs(rhs), initial=0.0)), 1.0)
    if residual / scale > residual_tol:
        raise NumericalInstabilityError(
            f"{what}: residual check failed",
            residual=residual, scale=scale,
        )
    return solution
