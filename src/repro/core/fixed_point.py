"""Fixed-point evaluation of recursive (cyclic) service assemblies.

Section 3.3 closes with: *"this recursive evaluation procedure does not work
in the case of a service assembly where some services recursively call each
other ... the assembly reliability should be expressed by a fixed point
equation, for which appropriate evaluation methods should be devised.  In
this work we do not investigate this point."*  This module devises that
method — the paper's stated future work.

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
- a correction below the tolerance ends the solve after one last sweep at
  the corrected iterate, whose top-level value is the answer.  That
  correction is kept as a first-order error estimate.

:class:`FixedPointEvaluator` overrides the cycle hook of
:class:`~repro.core.evaluator.ReliabilityEvaluator` to return the current
estimate and drives the sweeps; all of them, probes included, share the
solve's evaluation frames and count against the iteration and budget caps.
"""

from __future__ import annotations

import numpy as np

from repro import observability as obs
from repro.errors import FixedPointDivergenceError
from repro.core.evaluator import ReliabilityEvaluator
from repro.model.assembly import Assembly
from repro.model.service import Service
from repro.runtime.budget import EvaluationBudget

__all__ = ["FixedPointEvaluator"]

#: Forward-difference step of the Jacobian probes.  ``F`` is affine in the
#: estimates when each execution makes at most one recursive request (the
#: mutual-recursion scenario), where a wide step costs nothing and keeps the
#: rounding error of ``J`` near ``eps / PROBE_STEP``; elsewhere its
#: truncation error only slows Newton from quadratic to fast linear
#: convergence.
PROBE_STEP = 1e-3


class FixedPointEvaluator(ReliabilityEvaluator):
    """Reliability evaluation for assemblies with recursive service calls.

    Behaves exactly like :class:`ReliabilityEvaluator` on acyclic
    assemblies (the first sweep encounters no cycle and is the answer); on
    cyclic ones it solves for the least fixed point by Newton with Kleene
    fallback, starting from all-zero failure estimates.

    After each :meth:`pfail`, :attr:`iterations_used` holds the sweeps run
    (Jacobian probes included), :attr:`newton_steps` the Newton steps
    taken, :attr:`fell_back` whether the safeguard switched to Kleene
    sweeps, and :attr:`error_bound` the last correction (Newton) or change
    between sweeps (Kleene).

    Args:
        assembly: the service assembly (may be cyclic).
        tolerance: convergence threshold on the max absolute correction of
            any estimate.
        max_iterations: sweep cap; exceeding it raises
            :class:`FixedPointDivergenceError`.
        validate: forwarded to the base evaluator (cyclic assemblies
            validate fine — the cycle is reported only as a warning).
    """

    def __init__(
        self,
        assembly: Assembly,
        tolerance: float = 1e-12,
        max_iterations: int = 10_000,
        validate: bool = True,
        check_domains: bool = True,
        budget: EvaluationBudget | None = None,
        solver: str = "auto",
    ):
        super().__init__(
            assembly, validate=validate, check_domains=check_domains,
            budget=budget, solver=solver,
        )
        if tolerance <= 0:
            raise FixedPointDivergenceError("tolerance must be positive")
        self.tolerance = float(tolerance)
        self.max_iterations = int(max_iterations)
        self._estimates: dict[tuple, float] = {}
        #: re-entered keys of the current sweep, in first-seen order
        self._assumed: dict[tuple, None] = {}
        self.iterations_used = 0
        self.newton_steps = 0
        self.fell_back = False
        self.error_bound = 0.0

    # -- hook override ---------------------------------------------------

    def _handle_cycle(self, key: tuple, cycle: tuple[str, ...]) -> float:
        """Return the current fixed-point estimate for a re-entered
        ``(service, actuals)`` key (0.0 until the solve has one — the
        least-fixed-point start).

        A service re-entered under other actuals than the ones on the stack
        is no unknown of the equation: a sweep never finishes it, so it is
        refused with the base evaluator's
        :class:`~repro.errors.CyclicAssemblyError`.
        """
        if key not in self._stack:
            return super()._handle_cycle(key, cycle)
        self._assumed[key] = None
        return self._estimates.get(key, 0.0)

    # -- public API --------------------------------------------------------

    def pfail(self, service: str | Service, **actuals: float) -> float:
        """``Pfail(S, fp)``, solving the fixed-point equation if needed."""
        svc = self._coerce(service)
        normalized = self._normalize(svc, actuals)
        with obs.span("fixed_point.solve", service=svc.name) as span:
            try:
                return self._solve(svc, normalized)
            finally:
                span.set_tag(
                    sweeps=self.iterations_used, newton_steps=self.newton_steps,
                    fallback=self.fell_back, error_bound=self.error_bound,
                )
                obs.count("fixed_point.sweeps", self.iterations_used)
                if self.fell_back:
                    obs.count("fixed_point.fallbacks")

    # -- the solve ---------------------------------------------------------

    def _solve(self, svc: Service, normalized: tuple) -> float:
        self.iterations_used = self.newton_steps = 0
        self.fell_back = False
        self.error_bound = 0.0
        self._frames.clear()  # the sweeps below share this solve's frames
        keys: tuple = ()
        last_top = None

        def sweep(x: np.ndarray) -> tuple[float, np.ndarray]:
            """One pass of the recursive procedure with the estimates ``x``
            for ``keys``: the top-level ``Pfail`` and ``F(x)``."""
            nonlocal last_top
            if self.iterations_used >= self.max_iterations:
                raise FixedPointDivergenceError(
                    f"fixed-point iteration did not converge within "
                    f"{self.max_iterations} sweeps (last Pfail({svc.name}) = "
                    f"{last_top})"
                )
            if self.budget is not None:
                self.budget.check_deadline("fixed-point iteration")
                self.budget.check_sweeps(
                    self.iterations_used + 1, "fixed-point iteration"
                )
            self.iterations_used += 1
            self._estimates = dict(zip(keys, x.tolist()))
            self._cache.clear()
            self._assumed.clear()
            last_top = self._pfail_service(svc, normalized)
            return last_top, np.array(
                [self._cache.get(key, 0.0) for key in keys]
            )

        top, _ = sweep(np.zeros(0))
        if not self._assumed:
            # acyclic evaluation: nothing to solve
            return top
        keys = tuple(self._assumed)
        x = np.zeros(len(keys))
        values = np.array([self._cache.get(key, 0.0) for key in keys])
        jacobian = None
        while True:
            residual = values - x
            # the last Jacobian decides convergence before new probes run
            step = None if jacobian is None else _newton_step(jacobian, residual, x)
            if step is None or abs(step).max() >= self.tolerance:
                jacobian = _jacobian(sweep, x, values)
                step = _newton_step(jacobian, residual, x)
                if step is None:
                    return self._kleene(sweep, values, top)
            x = x + step
            self.newton_steps += 1
            self.error_bound = float(abs(step).max())
            top, values = sweep(x)
            if self.error_bound < self.tolerance:
                return top

    def _kleene(self, sweep, values: np.ndarray, top: float) -> float:
        """Kleene sweeps ``x <- F(x)`` from the last accepted iterate, whose
        image ``values`` and top-level value ``top`` are already known,
        until the change between sweeps is below the tolerance."""
        self.fell_back = True
        while True:
            x, previous_top = values, top
            top, values = sweep(x)
            self.error_bound = float(
                max(abs(values - x).max(), abs(top - previous_top))
            )
            if self.error_bound < self.tolerance:
                return top


def _jacobian(sweep, x: np.ndarray, values: np.ndarray) -> np.ndarray:
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
