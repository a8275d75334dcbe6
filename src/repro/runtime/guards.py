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
evidence of a broken model or an untrustworthy solve and raises.  Every
evaluation path checks probabilities with the one :func:`check_probability`,
so a NaN ``Pfail`` is the same :class:`ProbabilityRangeError` wherever it
surfaces; :class:`NumericalInstabilityError` is left to non-finite matrices
and untrustworthy solves.
"""

from __future__ import annotations

import numpy as np

from repro.errors import NumericalInstabilityError, ProbabilityRangeError

__all__ = [
    "CLAMP_TOL",
    "MAX_CONDITION",
    "RESIDUAL_TOL",
    "check_finite_array",
    "check_probability",
]

#: Drift beyond [0, 1] attributed to round-off and silently clamped.
CLAMP_TOL = 1e-9

#: 1-norm condition number beyond which a solve is deemed untrustworthy.
MAX_CONDITION = 1e12

#: Relative residual (infinity norm) beyond which a solution is rejected.
RESIDUAL_TOL = 1e-8


def check_finite_array(what: str, array: np.ndarray) -> np.ndarray:
    """Raise ``NumericalInstabilityError`` when ``array`` holds NaN/Inf."""
    if not np.all(np.isfinite(array)):
        bad = int(np.size(array) - np.count_nonzero(np.isfinite(array)))
        raise NumericalInstabilityError(
            f"{what} contains {bad} non-finite entries"
        )
    return array


def check_probability(what: str, value, names=None):
    """Validate a scalar-or-array probability, returning it clamped of
    round-off drift within ``CLAMP_TOL`` of ``[0, 1]``.  Anything else —
    NaN and +-inf included — raises :class:`ProbabilityRangeError` naming
    the first offending element (as ``f"{what} {names[i]!r}"`` when a
    sequence of element ``names`` is given).  A Python float takes a plain
    comparison (``plan.pfail`` runs it on every answer); arrays and other
    scalars are checked elementwise."""
    if isinstance(value, float):
        value = float(value)
        if not -CLAMP_TOL <= value <= 1.0 + CLAMP_TOL:
            raise ProbabilityRangeError(what, value)
        return min(max(value, 0.0), 1.0)
    arr = np.asarray(value, dtype=float)
    bad = ~((arr >= -CLAMP_TOL) & (arr <= 1.0 + CLAMP_TOL))
    if bad.any():
        first = int(np.argmax(bad))
        if names is not None:
            what = f"{what} {names[first]!r}"
        raise ProbabilityRangeError(what, float(arr.flat[first]))
    clipped = np.clip(arr, 0.0, 1.0)
    return float(clipped) if clipped.shape == () else clipped
