"""The least fixed point of a recursive (cyclic) service assembly.

Section 3.3 closes with: *"this recursive evaluation procedure does not work
in the case of a service assembly where some services recursively call each
other ... the assembly reliability should be expressed by a fixed point
equation, for which appropriate evaluation methods should be devised.  In
this work we do not investigate this point."*  This module devises that
method — the paper's stated future work — and
:class:`~repro.core.evaluator.ReliabilityEvaluator` runs it whenever a
``(service, actuals)`` key re-enters its own evaluation.

Formulation.  Let ``x = (x_1, ..., x_m)`` collect ``Pfail`` for every
(service, actuals) pair the recursion re-enters while it is still on the
evaluation stack.  One *sweep* of the recursive procedure, answering each
re-entry with the current estimate, defines ``x = F(x)``.  Every component
of ``F`` is built from the state-failure formulas (products and convex
combinations of probabilities) and absorbing-chain solves, all of which are
**monotone non-decreasing** in the assumed failure probabilities (a less
reliable callee never makes the caller more reliable), and ``F`` maps
``[0, 1]^m`` into itself.  The wanted answer is the **least fixed point** —
the standard semantics for recursive reliability equations (mass that cycles
forever is counted as neither success nor failure mass until the limit
resolves it).  Kleene iteration from ``x = 0`` reaches it, but only
linearly: at contraction rate ``rho`` it needs ``O(1/(1 - rho))`` sweeps,
and its stop rule (change between sweeps) under-reports the error by about
``1/(1 - rho)``.

Method: Newton with Kleene fallback.  These are the monotone equations of
recursive Markov chains, on which Newton's method started from below
converges to the least fixed point (Etessami & Yannakakis, J. ACM 56(1),
2009), quadratically in the limit (Esparza, Kiefer & Luttenberger, SIAM J.
Comput. 39(6), 2010).  Grassi's ``F`` is not always a positive polynomial,
so the solve is safeguarded:

- the Jacobian ``J`` of ``F`` comes from one forward-difference probe sweep
  per unknown;
- the step ``x <- x + (I - J)^{-1} (F(x) - x)`` is taken only while the
  spectral radius of ``J`` is below 1, ``I - J`` is nonsingular and the new
  iterate stays in ``[0, 1]``; otherwise the solve continues with Kleene
  sweeps from the last accepted iterate, for which the least fixed point
  is still the limit;
- a correction below :data:`TOLERANCE` ends the solve after one last sweep
  at the corrected iterate, whose top-level value is the answer.  That
  correction is kept as a first-order error estimate.

More than :data:`MAX_SWEEPS` sweeps raise
:class:`~repro.errors.FixedPointDivergenceError`.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from repro.errors import FixedPointDivergenceError

__all__ = ["FixedPointSolve", "MAX_SWEEPS", "TOLERANCE", "solve"]

#: Convergence threshold on the max absolute correction of any estimate.
TOLERANCE = 1e-12

#: Sweep cap of one solve (the first pass and the Jacobian probes
#: included); the user's own cap is ``EvaluationBudget.max_sweeps``.
MAX_SWEEPS = 10_000

#: Forward-difference step of the Jacobian probes.  ``F`` is affine in the
#: estimates when each execution makes at most one recursive request (the
#: mutual-recursion scenario), where a wide step costs nothing and keeps the
#: rounding error of ``J`` near ``eps / PROBE_STEP``; elsewhere its
#: truncation error only slows Newton from quadratic to fast linear
#: convergence.
PROBE_STEP = 1e-3

#: One sweep at the estimates ``x``: the top-level ``Pfail`` and ``F(x)``.
Sweep = Callable[[np.ndarray], tuple[float, np.ndarray]]


@dataclass
class FixedPointSolve:
    """Progress of one solve: the sweeps run (the first pass and the
    Jacobian probes included), the Newton steps taken, whether the
    safeguard fell back to Kleene sweeps, and the last correction (Newton)
    or change between sweeps (Kleene)."""

    service: str
    sweeps: int = 1
    newton_steps: int = 0
    fell_back: bool = False
    error_bound: float = 0.0


def solve(progress: FixedPointSolve, sweep: Sweep, top: float, values: np.ndarray) -> float:
    """The top-level ``Pfail`` at the least fixed point, from the first
    pass's top-level value ``top`` and image ``values = F(0)``."""
    last_top = top

    def counted(x: np.ndarray) -> tuple[float, np.ndarray]:
        nonlocal last_top
        if progress.sweeps >= MAX_SWEEPS:
            raise FixedPointDivergenceError(
                f"fixed-point iteration did not converge within "
                f"{MAX_SWEEPS} sweeps (last Pfail({progress.service}) = "
                f"{last_top})"
            )
        progress.sweeps += 1
        last_top, image = sweep(x)
        return last_top, image

    x = np.zeros(len(values))
    jacobian = None
    while True:
        residual = values - x
        # the last Jacobian decides convergence before new probes run
        step = None if jacobian is None else _newton_step(jacobian, residual, x)
        if step is None or abs(step).max() >= TOLERANCE:
            jacobian = _jacobian(counted, x, values)
            step = _newton_step(jacobian, residual, x)
            if step is None:
                return _kleene(progress, counted, values, top)
        x = x + step
        progress.newton_steps += 1
        progress.error_bound = float(abs(step).max())
        top, values = counted(x)
        if progress.error_bound < TOLERANCE:
            return top


def _kleene(progress: FixedPointSolve, sweep: Sweep, values: np.ndarray, top: float) -> float:
    """Kleene sweeps ``x <- F(x)`` from the last accepted iterate, whose
    image ``values`` and top-level value ``top`` are already known, until
    the change between sweeps is below the tolerance."""
    progress.fell_back = True
    while True:
        x, previous_top = values, top
        top, values = sweep(x)
        progress.error_bound = float(
            max(abs(values - x).max(), abs(top - previous_top))
        )
        if progress.error_bound < TOLERANCE:
            return top


def _jacobian(sweep: Sweep, x: np.ndarray, values: np.ndarray) -> np.ndarray:
    """``dF/dx`` at ``x`` (where ``F(x) = values``) by one forward-difference
    ``sweep`` per unknown, each probe kept inside ``[0, 1]``."""
    jacobian = np.empty((len(x), len(x)))
    for j in range(len(x)):
        h = PROBE_STEP if x[j] + PROBE_STEP <= 1.0 else -PROBE_STEP
        probe = x.copy()
        probe[j] += h
        _, probed = sweep(probe)
        jacobian[:, j] = (probed - values) / h
    return jacobian


def _newton_step(
    jacobian: np.ndarray, residual: np.ndarray, x: np.ndarray
) -> np.ndarray | None:
    """``(I - J)^{-1} (F(x) - x)``, or ``None`` where the safeguard refuses
    it: ``rho(J) >= 1``, ``I - J`` singular, or a new iterate outside
    ``[0, 1]``."""
    if not np.isfinite(jacobian).all():
        return None
    if abs(np.linalg.eigvals(jacobian)).max() >= 1.0:
        return None
    try:
        step = np.linalg.solve(np.eye(len(x)) - jacobian, residual)
    except np.linalg.LinAlgError:
        return None
    new = x + step
    if not np.isfinite(step).all() or new.min() < 0.0 or new.max() > 1.0:
        return None
    return step
