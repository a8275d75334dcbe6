"""Absorbing-chain analysis: the numerical engine behind equation (3).

The failure-augmented flow of a composite service is an absorbing DTMC with
two absorbing states, ``End`` (successful completion) and ``Fail``.  The
service unreliability is ``Pfail(S, fp) = 1 - p*(Start, End)`` where
``p*(Start, End)`` is the probability of eventual absorption in ``End``
starting from ``Start`` (eq. 3) — "standard Markov methods" in the paper's
words.  This module implements those standard methods:

given the canonical partition of the transition matrix into

.. math::

    P = \\begin{pmatrix} Q & R \\\\ 0 & I \\end{pmatrix}

with ``Q`` the transient-to-transient block and ``R`` the
transient-to-absorbing block, the fundamental matrix ``N = (I - Q)^{-1}``
yields absorption probabilities ``B = N R``, expected visit counts ``N``
itself, and expected steps-to-absorption ``t = N 1``.

Rather than forming the inverse we solve the linear systems through a
pluggable :mod:`repro.markov.solvers` backend.  The constructor performs
exactly one factorization and the *absorption* solve (which doubles as the
chain's well-posedness check); expected visits and expected steps are
solved lazily against that same factorization, and visit counts are solved
**per requested column** rather than eagerly against the full identity — a
caller that only wants ``absorption_probability`` pays one ``O(nnz)``-ish
solve, not three dense ones.  Backend selection (``solver="auto"``)
switches to sparse ``splu`` — or a pure-substitution triangular fast path
for DAG-like flows — on large sparse chains; see the solvers module.

The solves are *guarded*: a singular system still raises
:class:`~repro.errors.NotAbsorbingError` (the classical "transient state
cannot reach absorption" diagnosis), but a nearly-singular system — one
whose condition number or residual says the computed probabilities are
numerically untrustworthy — raises
:class:`~repro.errors.NumericalInstabilityError` instead of returning
garbage.  The condition number is exact on every backend and costs one
transposed solve (:meth:`~repro.markov.solvers.Factorization.m_matrix_condition`),
not an ``O(n^3)`` ``np.linalg.cond``.  Each guarded solve is one
``solver.solve`` span tagged ``backend``, ``n`` and ``condition``; every
refusal (condition, residual or drift) makes it an error span.
Absorption probabilities are clamped to ``[0, 1]``; drift beyond
``DRIFT_TOL`` is itself treated as instability.
"""

from __future__ import annotations

from collections.abc import Hashable

import numpy as np

from repro import observability as obs
from repro.errors import (
    NotAbsorbingError,
    NumericalInstabilityError,
    UnknownStateError,
)
from repro.markov import solvers
from repro.markov.dtmc import DiscreteTimeMarkovChain

__all__ = ["AbsorbingChainAnalysis", "absorption_probability", "DRIFT_TOL"]

#: Maximum tolerated drift of an absorption probability beyond [0, 1]
#: before clamping is no longer honest and the solve is rejected.
DRIFT_TOL = 1e-6


class AbsorbingChainAnalysis:
    """Cached analysis of an absorbing DTMC.

    Args:
        chain: the chain to analyze.  It must contain at least one absorbing
            state; transient states from which no absorbing state is
            reachable make the analysis ill-posed and raise
            :class:`NotAbsorbingError`.
        solver: linear-solver backend request — ``"auto"`` (default),
            ``"dense"`` or ``"sparse"``; see :mod:`repro.markov.solvers`.
        solver_cache: structural-plan cache override (``None`` shares the
            process-wide cache, ``False`` disables plan caching).
    """

    def __init__(
        self,
        chain: DiscreteTimeMarkovChain,
        solver: str = "auto",
        solver_cache=None,
    ):
        self._chain = chain
        self._solver = solvers.validate_solver(solver)
        self._transient = list(chain.transient_states())
        self._absorbing = list(chain.absorbing_states())
        if not self._absorbing:
            raise NotAbsorbingError("chain has no absorbing state")
        self._t_index = {s: i for i, s in enumerate(self._transient)}
        self._a_index = {s: i for i, s in enumerate(self._absorbing)}

        matrix = chain.matrix
        self._clamp_drift = 0.0
        self._factorization: solvers.Factorization | None = None
        self._plan: solvers.ChainSolvePlan | None = None
        self._visit_columns: dict[int, np.ndarray] = {}
        self._visits_matrix: np.ndarray | None = None
        self._steps: np.ndarray | None = None
        n_transient = len(self._transient)
        if not n_transient:
            self._absorption = np.zeros((0, len(self._absorbing)))
            self._visits_matrix = np.zeros((0, 0))
            self._steps = np.zeros(0)
            return

        from repro.runtime.guards import (
            MAX_CONDITION,
            RESIDUAL_TOL,
            check_finite_array,
        )

        check_finite_array("(I - Q) system: transition matrix", matrix)
        # Structural plan (partition, sparsity pattern, topological order,
        # backend choice) — cached across structurally identical chains, so
        # a sweep varying only rates skips straight to value extraction.
        plan = solvers.chain_plan(
            matrix, chain.absorbing_mask, solver=self._solver,
            cache=solver_cache,
        )
        self._plan = plan
        r = matrix[np.ix_(plan.transient, plan.absorbing)]
        with obs.span(
            "solver.solve", backend=plan.backend, n=n_transient
        ) as span:
            # Singular (I - Q) means some transient state can never reach
            # an absorbing state, i.e. the chain keeps probability mass
            # cycling forever; the reliability question is then ill-posed.
            try:
                factorization = solvers.factorize_chain(matrix, plan)
                self._absorption = np.asarray(factorization.solve(r))
            except solvers.SingularSystemError as exc:
                raise NotAbsorbingError(
                    "some transient state cannot reach any absorbing state"
                ) from exc
            self._factorization = factorization
            # Near-singular systems factor without raising but produce
            # numbers no one should trust; measure instead of hoping.
            if not np.all(np.isfinite(self._absorption)):
                raise NumericalInstabilityError(
                    "(I - Q) solve produced non-finite absorption "
                    "probabilities"
                )
            condition = factorization.m_matrix_condition()
            span.set_tag(condition=condition)
            if not np.isfinite(condition) or condition > MAX_CONDITION:
                raise NumericalInstabilityError(
                    "(I - Q) system is ill-conditioned; absorption "
                    "probabilities are untrustworthy",
                    condition=condition,
                )
            residual = float(
                np.max(
                    np.abs(factorization.matvec(self._absorption) - r),
                    initial=0.0,
                )
            )
            if residual > RESIDUAL_TOL:
                raise NumericalInstabilityError(
                    "(I - Q) solve failed the residual check",
                    residual=residual, condition=condition,
                )
            # Clamp round-off drift outside [0, 1]; reject real violations.
            drift = float(
                max(
                    np.max(-self._absorption, initial=0.0),
                    np.max(self._absorption - 1.0, initial=0.0),
                )
            )
            self._clamp_drift = max(drift, 0.0)
            if drift > DRIFT_TOL:
                raise NumericalInstabilityError(
                    "absorption probabilities drifted outside [0, 1] "
                    "beyond tolerance",
                    drift=drift, condition=condition,
                )
        self._absorption = np.clip(self._absorption, 0.0, 1.0)

    # -- accessors ------------------------------------------------------------

    @property
    def chain(self) -> DiscreteTimeMarkovChain:
        """The analyzed chain."""
        return self._chain

    @property
    def transient_states(self) -> tuple[Hashable, ...]:
        """Transient states, in analysis order."""
        return tuple(self._transient)

    @property
    def absorbing_states(self) -> tuple[Hashable, ...]:
        """Absorbing states, in analysis order."""
        return tuple(self._absorbing)

    @property
    def clamp_drift(self) -> float:
        """Largest round-off drift outside ``[0, 1]`` that was clamped
        (diagnostic; always ``<= DRIFT_TOL``, larger drift raises)."""
        return self._clamp_drift

    @property
    def solver_backend(self) -> str:
        """The resolved solver backend (``"dense"``, ``"sparse-lu"`` or
        ``"sparse-tri"``; ``"dense"`` for chains with no transient state)."""
        return self._plan.backend if self._plan is not None else "dense"

    @property
    def structural_fingerprint(self) -> str | None:
        """The structural digest the solve plan was cached under (``None``
        for chains with no transient state)."""
        return self._plan.fingerprint if self._plan is not None else None

    # -- lazy solves ----------------------------------------------------------

    def _expected_steps(self) -> np.ndarray:
        """``t = N 1``, solved on first use against the kept factorization."""
        if self._steps is None:
            steps = np.asarray(
                self._factorization.solve(np.ones(len(self._transient)))
            )
            if not np.all(np.isfinite(steps)):
                raise NumericalInstabilityError(
                    "(I - Q) solve produced non-finite expected steps"
                )
            self._steps = steps
        return self._steps

    def _visits_column(self, column: int) -> np.ndarray:
        """Column ``column`` of the fundamental matrix ``N``.

        With a reusable factorization (kept LU or triangular substitution)
        each requested column is one cheap solve, memoized; without one
        (the scipy-less dense path, where every solve re-factors) the full
        ``N`` is computed lazily once — matching the historical total cost
        while still skipping it for absorption-only callers.
        """
        if self._visits_matrix is not None:
            return self._visits_matrix[:, column]
        if not self._factorization.reusable:
            visits = np.asarray(
                self._factorization.solve(np.eye(len(self._transient)))
            )
            if not np.all(np.isfinite(visits)):
                raise NumericalInstabilityError(
                    "(I - Q) solve produced non-finite expected visits"
                )
            self._visits_matrix = visits
            return visits[:, column]
        cached = self._visit_columns.get(column)
        if cached is None:
            unit = np.zeros(len(self._transient))
            unit[column] = 1.0
            cached = np.asarray(self._factorization.solve(unit))
            if not np.all(np.isfinite(cached)):
                raise NumericalInstabilityError(
                    "(I - Q) solve produced non-finite expected visits"
                )
            self._visit_columns[column] = cached
        return cached

    # -- queries --------------------------------------------------------------

    def absorption_probability(self, start: Hashable, target: Hashable) -> float:
        """Probability of eventual absorption in ``target`` from ``start``.

        ``start`` may itself be absorbing (probability is then 1 or 0).
        This is the paper's ``p*(start, target)`` of equation (3).
        """
        if target not in self._a_index:
            if target in self._t_index:
                return 0.0
            raise UnknownStateError(target)
        if start in self._a_index:
            return 1.0 if start == target else 0.0
        if start not in self._t_index:
            raise UnknownStateError(start)
        value = self._absorption[self._t_index[start], self._a_index[target]]
        return float(min(max(value, 0.0), 1.0))

    def absorption_distribution(self, start: Hashable) -> dict[Hashable, float]:
        """Absorption probabilities from ``start`` into every absorbing state."""
        return {
            target: self.absorption_probability(start, target)
            for target in self._absorbing
        }

    def expected_visits(self, start: Hashable, state: Hashable) -> float:
        """Expected number of visits to transient ``state`` from ``start``.

        This is entry ``(start, state)`` of the fundamental matrix ``N``.
        """
        if start in self._a_index:
            return 0.0
        if start not in self._t_index:
            raise UnknownStateError(start)
        if state not in self._t_index:
            if state in self._a_index:
                raise NotAbsorbingError(
                    "expected_visits is defined for transient states only"
                )
            raise UnknownStateError(state)
        column = self._visits_column(self._t_index[state])
        return float(column[self._t_index[start]])

    def expected_steps_to_absorption(self, start: Hashable) -> float:
        """Expected number of transitions until absorption from ``start``."""
        if start in self._a_index:
            return 0.0
        if start not in self._t_index:
            raise UnknownStateError(start)
        return float(self._expected_steps()[self._t_index[start]])


def absorption_probability(
    chain: DiscreteTimeMarkovChain,
    start: Hashable,
    target: Hashable,
    solver: str = "auto",
) -> float:
    """One-shot convenience wrapper around :class:`AbsorbingChainAnalysis`."""
    return AbsorbingChainAnalysis(chain, solver=solver).absorption_probability(
        start, target
    )
