"""Fixed-point evaluation of recursive (cyclic) service assemblies.

Section 3.3 closes with: *"this recursive evaluation procedure does not work
in the case of a service assembly where some services recursively call each
other ... the assembly reliability should be expressed by a fixed point
equation, for which appropriate evaluation methods should be devised.  In
this work we do not investigate this point."*  This module devises that
method — the paper's stated future work.

Formulation.  Let ``x = (x_1, ..., x_m)`` collect ``Pfail`` for every
(service, actuals) pair touched by the evaluation.  The recursive procedure
defines ``x = F(x)`` where ``F`` re-evaluates each entry using the current
estimates wherever the recursion re-enters a service already on the stack.
Every component of ``F`` is built from the state-failure formulas (products
and convex combinations of probabilities) and absorbing-chain solves, all of
which are **monotone non-decreasing** in the assumed failure probabilities
(a less reliable callee never makes the caller more reliable), and ``F``
maps ``[0, 1]^m`` into itself.  Kleene iteration from ``x = 0`` therefore
produces a non-decreasing, bounded sequence converging to the **least fixed
point** — the standard semantics for recursive reliability equations (mass
that cycles forever is counted as neither success nor failure mass until the
limit resolves it).

:class:`FixedPointEvaluator` implements exactly this: it overrides the
cycle hook of :class:`~repro.core.evaluator.ReliabilityEvaluator` to return
the current estimate, then sweeps until the estimates stabilize.
"""

from __future__ import annotations

from repro.errors import FixedPointDivergenceError
from repro.core.evaluator import ReliabilityEvaluator
from repro.model.assembly import Assembly
from repro.model.service import Service
from repro.runtime.budget import EvaluationBudget

__all__ = ["FixedPointEvaluator"]


class FixedPointEvaluator(ReliabilityEvaluator):
    """Reliability evaluation for assemblies with recursive service calls.

    Behaves exactly like :class:`ReliabilityEvaluator` on acyclic
    assemblies (the first sweep encounters no cycle and converges
    immediately); on cyclic ones it runs Kleene iteration from all-zero
    failure estimates.

    Args:
        assembly: the service assembly (may be cyclic).
        tolerance: convergence threshold on the max absolute change of any
            estimate between sweeps.
        max_iterations: iteration cap; exceeding it raises
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
        self._assumed: set[tuple] = set()
        self.iterations_used = 0

    # -- hook override ---------------------------------------------------

    def _handle_cycle(self, key: tuple, cycle: tuple[str, ...]) -> float:
        """Return the current fixed-point estimate for a re-entered service
        (0.0 on the first sweep — the Kleene iteration start point)."""
        self._assumed.add(key)
        return self._estimates.get(key, 0.0)

    # -- public API --------------------------------------------------------

    def pfail(self, service: str | Service, **actuals: float) -> float:
        """``Pfail(S, fp)``, solving the fixed-point equation if needed."""
        svc = self._coerce(service)
        normalized = self._normalize(svc, actuals)
        top_key = (svc.name, normalized)

        self._estimates = {}
        self._frames.clear()  # the sweeps below share this solve's frames
        previous_top = None
        for iteration in range(1, self.max_iterations + 1):
            if self.budget is not None:
                self.budget.check_deadline("fixed-point iteration")
                self.budget.check_sweeps(iteration, "fixed-point iteration")
            self.iterations_used = iteration
            self._cache.clear()
            self._assumed.clear()
            top_value = self._pfail_service(svc, normalized)
            if not self._assumed:
                # acyclic evaluation: nothing to iterate
                return top_value
            # Next-iteration estimates: everything computed this sweep.
            new_estimates = dict(self._cache)
            new_estimates[top_key] = top_value
            delta = max(
                abs(new_estimates.get(k, 0.0) - self._estimates.get(k, 0.0))
                for k in self._assumed | set(new_estimates)
            )
            if previous_top is not None:
                delta = max(delta, abs(top_value - previous_top))
            self._estimates = new_estimates
            previous_top = top_value
            if delta < self.tolerance:
                return top_value
        raise FixedPointDivergenceError(
            f"fixed-point iteration did not converge within "
            f"{self.max_iterations} sweeps (last Pfail({svc.name}) = "
            f"{previous_top})"
        )
