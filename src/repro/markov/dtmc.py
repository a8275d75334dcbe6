"""Discrete-time Markov chains over arbitrary hashable state labels.

The paper models the abstract usage profile of every composite service as a
DTMC (section 2, point (b)).  This module is the generic substrate: chain
construction and validation, stepping, reachability, and classification of
transient vs absorbing states.  The reliability-specific analysis (absorbing
probabilities into ``End`` vs ``Fail``) lives in
:mod:`repro.markov.absorbing`.

A chain is a CSR triple ``(indptr, indices, data)``, its absorbing mask read
off the triple's diagonal; the failure-augmented flow of eq. (3) arrives that
way through :meth:`DiscreteTimeMarkovChain.from_csr`, without a dense matrix.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Mapping

import numpy as np

from repro.errors import InvalidDistributionError, UnknownStateError

__all__ = ["DiscreteTimeMarkovChain", "ChainBuilder"]

#: Tolerance for row-stochasticity checks.
_ROW_SUM_TOL = 1e-9


class DiscreteTimeMarkovChain:
    """An immutable DTMC with labeled states, stored in CSR form.

    Args:
        states: ordered state labels (any hashable, must be unique).
        matrix: row-stochastic transition matrix aligned with ``states``.

    The matrix is validated on construction: entries must lie in ``[0, 1]``
    (within tolerance) and every row must sum to one.  States whose entire
    probability mass self-loops are *absorbing*.  :meth:`from_csr` builds a
    chain from an already-checked CSR triple without a dense matrix.
    """

    __slots__ = ("_states", "_indptr", "_indices", "_data", "_absorbing", "_index", "_matrix")

    def __init__(self, states: Iterable[Hashable], matrix: np.ndarray):
        state_list = tuple(states)
        if len(set(state_list)) != len(state_list):
            raise InvalidDistributionError("state labels must be unique")
        if not state_list:
            raise InvalidDistributionError("a Markov chain needs at least one state")
        mat = np.asarray(matrix, dtype=float)
        n = len(state_list)
        if mat.shape != (n, n):
            raise InvalidDistributionError(
                f"matrix shape {mat.shape} does not match {n} states"
            )
        if np.any(mat < -_ROW_SUM_TOL) or np.any(mat > 1.0 + _ROW_SUM_TOL):
            raise InvalidDistributionError("transition probabilities must lie in [0, 1]")
        row_sums = mat.sum(axis=1)
        bad = np.where(np.abs(row_sums - 1.0) > 1e-6)[0]
        if bad.size:
            raise InvalidDistributionError(
                f"rows {[state_list[i] for i in bad]} sum to "
                f"{row_sums[bad]} instead of 1"
            )
        # renormalize away round-off so downstream linear algebra is clean
        mat = np.clip(mat, 0.0, 1.0)
        mat = mat / mat.sum(axis=1, keepdims=True)
        mat.setflags(write=False)
        rows, columns = np.nonzero(mat)
        self._set(state_list, np.searchsorted(rows, np.arange(n + 1)), columns,
                  mat[rows, columns])
        self._matrix = mat

    @classmethod
    def from_csr(
        cls, states: tuple, indptr: np.ndarray, indices: np.ndarray,
        data: np.ndarray, index: dict | None = None,
    ) -> "DiscreteTimeMarkovChain":
        """A chain from a CSR triple the caller has already checked (unique
        ``states``, entries in ``[0, 1]`` that add up where a row repeats a
        column, rows summing to one); ``index`` may hand over a ready
        label-to-row dict.  Nothing is copied or densified."""
        chain = cls.__new__(cls)
        chain._set(states, indptr, indices, data, index)
        return chain

    def _set(self, states, indptr, indices, data, index=None):
        rows = np.repeat(np.arange(len(states)), np.diff(indptr))
        loops = rows == indices
        diagonal = np.bincount(rows[loops], data[loops], minlength=len(states))
        self._absorbing = diagonal >= 1.0 - _ROW_SUM_TOL
        self._states, self._index, self._matrix = states, index, None
        self._indptr, self._indices, self._data = indptr, indices, data
        for array in (indptr, indices, data, self._absorbing):
            array.setflags(write=False)

    # -- basic accessors ---------------------------------------------------

    @property
    def states(self) -> tuple[Hashable, ...]:
        """The ordered state labels."""
        return self._states

    @property
    def csr(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The read-only ``(indptr, indices, data)`` transition triple."""
        return self._indptr, self._indices, self._data

    @property
    def matrix(self) -> np.ndarray:
        """The (read-only) dense row-stochastic transition matrix, built on
        first use."""
        if self._matrix is None:
            n = len(self._states)
            matrix = np.zeros((n, n))
            rows = np.repeat(np.arange(n), np.diff(self._indptr))
            np.add.at(matrix, (rows, self._indices), self._data)
            matrix.setflags(write=False)
            self._matrix = matrix
        return self._matrix

    @property
    def absorbing_mask(self) -> np.ndarray:
        """Read-only boolean mask of the absorbing states, in state order."""
        return self._absorbing

    def __len__(self) -> int:
        return len(self._states)

    def __contains__(self, state: Hashable) -> bool:
        return state in self._labels()

    def _labels(self) -> dict:
        if self._index is None:
            self._index = {s: i for i, s in enumerate(self._states)}
        return self._index

    def index(self, state: Hashable) -> int:
        """Row/column index of ``state`` (raises :class:`UnknownStateError`)."""
        try:
            return self._labels()[state]
        except KeyError:
            raise UnknownStateError(state) from None

    def probability(self, source: Hashable, target: Hashable) -> float:
        """One-step transition probability ``P(source -> target)``."""
        return float(self.matrix[self.index(source), self.index(target)])

    def successors(self, state: Hashable) -> dict[Hashable, float]:
        """Mapping of states reachable from ``state`` in one step (prob > 0)."""
        row = self.matrix[self.index(state)]
        return {
            self._states[j]: float(p) for j, p in enumerate(row) if p > 0.0
        }

    # -- classification ------------------------------------------------------

    def is_absorbing_state(self, state: Hashable) -> bool:
        """True when ``state`` self-loops with probability one."""
        return bool(self._absorbing[self.index(state)])

    def absorbing_states(self) -> tuple[Hashable, ...]:
        """All absorbing states, in state order."""
        return tuple(
            s for s, a in zip(self._states, self._absorbing.tolist()) if a
        )

    def transient_states(self) -> tuple[Hashable, ...]:
        """All non-absorbing states, in state order."""
        return tuple(
            s for s, a in zip(self._states, self._absorbing.tolist()) if not a
        )

    def reachable_from(self, start: Hashable) -> frozenset[Hashable]:
        """States reachable from ``start`` (including itself) through
        positive-probability paths."""
        seen = {self.index(start)}
        frontier = [self.index(start)]
        while frontier:
            i = frontier.pop()
            for j in np.nonzero(self.matrix[i] > 0.0)[0]:
                if int(j) not in seen:
                    seen.add(int(j))
                    frontier.append(int(j))
        return frozenset(self._states[i] for i in seen)

    # -- dynamics --------------------------------------------------------------

    def step_distribution(
        self, distribution: Mapping[Hashable, float], steps: int = 1
    ) -> dict[Hashable, float]:
        """Push a state distribution ``steps`` transitions forward."""
        if steps < 0:
            raise InvalidDistributionError("steps must be non-negative")
        vec = np.zeros(len(self._states))
        for state, mass in distribution.items():
            vec[self.index(state)] = mass
        total = vec.sum()
        if not np.isclose(total, 1.0, atol=1e-6):
            raise InvalidDistributionError(
                f"initial distribution sums to {total}, expected 1"
            )
        for _ in range(steps):
            vec = vec @ self.matrix
        return {s: float(vec[i]) for i, s in enumerate(self._states) if vec[i] > 0.0}

    def n_step_matrix(self, steps: int) -> np.ndarray:
        """The ``steps``-step transition matrix ``P**steps``."""
        if steps < 0:
            raise InvalidDistributionError("steps must be non-negative")
        return np.linalg.matrix_power(self.matrix, steps)

    def __repr__(self) -> str:
        return (
            f"DiscreteTimeMarkovChain(states={len(self._states)}, "
            f"absorbing={len(self.absorbing_states())})"
        )


class ChainBuilder:
    """Incremental construction of a :class:`DiscreteTimeMarkovChain`.

    States are added implicitly by naming them in edges; probability mass
    not assigned on a row is reported as an error at :meth:`build` time
    (unless the state has no outgoing edges at all, in which case it is made
    absorbing with a self-loop — the convention for ``End``/``Fail`` states).
    """

    def __init__(self) -> None:
        self._order: list[Hashable] = []
        self._edges: dict[Hashable, dict[Hashable, float]] = {}

    def add_state(self, state: Hashable) -> "ChainBuilder":
        """Declare a state explicitly (useful to pin state ordering)."""
        if state not in self._edges:
            self._order.append(state)
            self._edges[state] = {}
        return self

    def add_edge(self, source: Hashable, target: Hashable, probability: float) -> "ChainBuilder":
        """Add (accumulate) transition probability from ``source`` to ``target``."""
        if probability < 0.0:
            raise InvalidDistributionError(
                f"negative probability {probability} on edge {source!r}->{target!r}"
            )
        self.add_state(source)
        self.add_state(target)
        row = self._edges[source]
        row[target] = row.get(target, 0.0) + float(probability)
        return self

    def build(self) -> DiscreteTimeMarkovChain:
        """Validate and freeze into a :class:`DiscreteTimeMarkovChain`."""
        n = len(self._order)
        index = {s: i for i, s in enumerate(self._order)}
        matrix = np.zeros((n, n))
        for source, row in self._edges.items():
            # a state without edges is absorbing by convention
            for target, p in (row or {source: 1.0}).items():
                matrix[index[source], index[target]] = p
        return DiscreteTimeMarkovChain(self._order, matrix)
