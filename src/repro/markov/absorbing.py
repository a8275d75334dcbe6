"""Absorbing-chain analysis: the numerical engine behind equation (3).

The failure-augmented flow of a composite service is an absorbing DTMC with
two absorbing states, ``End`` (successful completion) and ``Fail``, and
``Pfail(S, fp) = 1 - p*(Start, End)`` (eq. 3).  With ``Q`` the
transient-to-transient block and ``R`` the transient-to-absorbing block of
the transition matrix, the fundamental matrix ``N = (I - Q)^{-1}`` yields
absorption probabilities ``B = N R``, expected visits ``N`` and expected
steps ``t = N 1``.

The chain arrives as a CSR triple with its absorbing mask (see
:class:`~repro.core.failure_structure.AugmentationFrame`).  The analysis
looks up the chain's structural plan, gathers ``R`` from the triple and
factors ``I - Q`` once through
:func:`~repro.markov.solvers.factorize_chain`, the one factorization entry
point; no dense transition matrix is formed.  The constructor performs the
absorption solve, which doubles as the well-posedness check; expected
steps and visits (per requested column) are solved lazily against the
same factorization.

The solve is *guarded*: a singular system raises
:class:`~repro.errors.NotAbsorbingError` (a transient state cannot reach
absorption), and a system whose exact condition number (one transposed
solve, :meth:`~repro.markov.solvers.Factorization.m_matrix_condition`),
residual or drift outside ``[0, 1]`` beyond ``DRIFT_TOL`` says the numbers
are untrustworthy raises :class:`~repro.errors.NumericalInstabilityError`.
Each guarded solve is one ``solver.solve`` span tagged ``backend``, ``n``
and ``condition``; every refusal makes it an error span.
"""

from __future__ import annotations

from collections.abc import Hashable

import numpy as np

from repro import observability as obs
from repro.errors import (
    NotAbsorbingError,
    NumericalInstabilityError,
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
        mask = chain.absorbing_mask
        if not mask.any():
            raise NotAbsorbingError("chain has no absorbing state")
        self._mask = mask
        self._clamp_drift = 0.0
        self._factorization: solvers.Factorization | None = None
        self._plan: solvers.ChainSolvePlan | None = None
        self._visit_columns: dict[int, np.ndarray] = {}
        self._visits_matrix: np.ndarray | None = None
        self._steps: np.ndarray | None = None
        n_transient = len(mask) - int(np.count_nonzero(mask))
        if not n_transient:
            self._absorption = np.zeros((0, len(mask)))
            self._visits_matrix = np.zeros((0, 0))
            self._steps = np.zeros(0)
            self._local = np.arange(len(mask))
            return

        from repro.runtime.guards import MAX_CONDITION, RESIDUAL_TOL, check_finite_array

        csr = chain.csr
        check_finite_array("(I - Q) system: transition matrix", csr[2])
        # Structural plan (partition, entry pattern, topological order,
        # backend choice) — cached across structurally identical chains, so
        # a sweep varying only rates skips straight to value extraction.
        plan = self._plan = solvers.chain_plan(csr, mask, self._solver, solver_cache)
        self._local = plan.local
        r = np.zeros((n_transient, plan.absorbing.size))
        np.add.at(r, (plan.r_rows, plan.r_cols), csr[2][plan.r_entries])
        with obs.span("solver.solve", backend=plan.backend, n=n_transient) as span:
            # Singular (I - Q) means some transient state can never reach
            # an absorbing state, i.e. the chain keeps probability mass
            # cycling forever; the reliability question is then ill-posed.
            try:
                factorization = solvers.factorize_chain(csr, plan)
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
            drift = self._clamp_drift = max(
                0.0, -float(np.min(self._absorption, initial=0.0)),
                float(np.max(self._absorption, initial=1.0)) - 1.0,
            )
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
        return self._chain.transient_states()

    @property
    def absorbing_states(self) -> tuple[Hashable, ...]:
        """Absorbing states, in analysis order."""
        return self._chain.absorbing_states()

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

    def _solve_finite(self, rhs: np.ndarray, what: str) -> np.ndarray:
        """A lazy solve against the kept factorization, refused when it
        produces non-finite ``what``."""
        solution = np.asarray(self._factorization.solve(rhs))
        if not np.all(np.isfinite(solution)):
            raise NumericalInstabilityError(
                f"(I - Q) solve produced non-finite {what}"
            )
        return solution

    def _expected_steps(self) -> np.ndarray:
        """``t = N 1``, solved on first use against the kept factorization."""
        if self._steps is None:
            self._steps = self._solve_finite(
                np.ones(self._absorption.shape[0]), "expected steps"
            )
        return self._steps

    def _visits_column(self, column: int) -> np.ndarray:
        """Column ``column`` of the fundamental matrix ``N``.

        With a reusable factorization (kept LU or triangular substitution)
        each requested column is one cheap solve, memoized; without one
        (the scipy-less dense path, where every solve re-factors) the full
        ``N`` is computed lazily once.
        """
        size = self._absorption.shape[0]
        if self._visits_matrix is None and not self._factorization.reusable:
            self._visits_matrix = self._solve_finite(np.eye(size), "expected visits")
        if self._visits_matrix is not None:
            return self._visits_matrix[:, column]
        if column not in self._visit_columns:
            unit = np.zeros(size)
            unit[column] = 1.0
            self._visit_columns[column] = self._solve_finite(unit, "expected visits")
        return self._visit_columns[column]

    # -- queries --------------------------------------------------------------

    def _where(self, state: Hashable) -> tuple[bool, int]:
        """Whether ``state`` is absorbing and its position within its class
        (raises :class:`UnknownStateError`)."""
        i = self._chain.index(state)
        return bool(self._mask[i]), int(self._local[i])

    def absorption_probability(self, start: Hashable, target: Hashable) -> float:
        """Probability of eventual absorption in ``target`` from ``start``.

        ``start`` may itself be absorbing (probability is then 1 or 0).
        This is the paper's ``p*(start, target)`` of equation (3).
        """
        absorbing, column = self._where(target)
        if not absorbing:
            return 0.0
        absorbing, row = self._where(start)
        if absorbing:
            return 1.0 if start == target else 0.0
        return float(self._absorption[row, column])  # clipped to [0, 1]

    def absorption_distribution(self, start: Hashable) -> dict[Hashable, float]:
        """Absorption probabilities from ``start`` into every absorbing state."""
        return {
            target: self.absorption_probability(start, target)
            for target in self.absorbing_states
        }

    def expected_visits(self, start: Hashable, state: Hashable) -> float:
        """Expected number of visits to transient ``state`` from ``start``.

        This is entry ``(start, state)`` of the fundamental matrix ``N``.
        """
        absorbing, row = self._where(start)
        if absorbing:
            return 0.0
        absorbing, column = self._where(state)
        if absorbing:
            raise NotAbsorbingError(
                "expected_visits is defined for transient states only"
            )
        return float(self._visits_column(column)[row])

    def expected_steps_to_absorption(self, start: Hashable) -> float:
        """Expected number of transitions until absorption from ``start``."""
        absorbing, row = self._where(start)
        return 0.0 if absorbing else float(self._expected_steps()[row])

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
