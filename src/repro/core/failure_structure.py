"""Failure-structure augmentation of a flow (section 3.2, Figure 5).

Under the fail-stop / no-repair assumptions, adding failure behavior to a
usage-profile flow means:

1. add a new ``Fail`` absorbing state;
2. for every internal state ``i`` with failure probability
   ``f = p(i, Fail)``: add a transition ``i -> Fail`` with probability ``f``
   and re-weight every existing outgoing transition by ``(1 - f)``;
3. leave ``Start`` untouched — "we assume that it does not represent any
   real behavior, and hence no failure can occur in it";
4. ``End`` and ``Fail`` are absorbing.

The result is a concrete :class:`~repro.markov.DiscreteTimeMarkovChain` on
which eq. (3) is one absorption query.  It is built from the flow's edges
as a CSR chain (:class:`AugmentationFrame`); no dense ``(n+3)^2`` matrix is
formed on the way to :func:`~repro.markov.solvers.factorize_chain`.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

import numpy as np

from repro.errors import InvalidFlowError
from repro.markov import DiscreteTimeMarkovChain
from repro.model.flow import END, FAIL, PROBABILITY_TOL, ROW_SUM_TOL, START, ServiceFlow
from repro.runtime.guards import check_probability
from repro.symbolic import Environment

__all__ = ["AugmentationFrame", "augment_with_failures", "FAIL"]


class AugmentationFrame:
    """The failure-independent part of a flow's augmented chain under one
    environment: the state order (``Start``, internal states, ``End``,
    ``Fail``), the flow's transition probabilities, evaluated once and
    checked on the edge arrays (a violation re-runs
    :meth:`~repro.model.flow.ServiceFlow.check_probabilities`, which names
    the first offender), and the chain's CSR pattern.  :meth:`chain` adds
    the state failure probabilities, so fixed-point sweeps redo only that
    part."""

    def __init__(
        self, flow: ServiceFlow, environment: Environment | Mapping[str, float]
    ):
        self.names = tuple(state.name for state in flow.states)
        self.states = (START, *self.names, END, FAIL)
        self.index = {state: i for i, state in enumerate(self.states)}
        edges = [
            (row, self.index[transition.target],
             float(transition.probability.evaluate(environment)))
            for row, source in enumerate((START, *self.names))
            for transition in flow.outgoing(source)
        ]
        rows, columns, probabilities = np.array(edges, dtype=float).reshape(-1, 3).T
        rows, columns = rows.astype(np.intp), columns.astype(np.intp)
        totals = np.bincount(rows, probabilities, minlength=len(self.names) + 1)
        ranged = (probabilities >= -PROBABILITY_TOL) & (probabilities <= 1 + PROBABILITY_TOL)
        if not (ranged.all() and np.all(np.abs(totals - 1.0) <= ROW_SUM_TOL)):
            flow.check_probabilities(environment)
        positive = probabilities > 0.0
        self._rows, self._probabilities = rows[positive], probabilities[positive]
        size = len(self.states)
        # CSR rows: the positive edges in flow order (parallel ones add up
        # where the chain is read), then a Fail entry; End loops on itself
        counts = np.bincount(self._rows, minlength=size)
        counts[1:] += 1
        self._indptr = np.concatenate(([0], np.cumsum(counts)))
        self._entry_rows = np.repeat(np.arange(size), counts)
        self._edges = np.arange(self._rows.size) + np.maximum(self._rows - 1, 0)
        self._indices = np.full(self._indptr[-1], size - 1)
        self._indices[self._edges] = columns[positive]
        self._indices[-2] = size - 2

    def chain(self, failures: Sequence[float] | np.ndarray) -> DiscreteTimeMarkovChain:
        """The augmented DTMC for ``p(i, Fail)`` of each internal state, in
        flow order (:class:`ProbabilityRangeError` names the first state
        outside ``[0, 1]``)."""
        failures = check_probability(
            "failure probability of state", np.asarray(failures, dtype=float),
            self.names,
        )
        survive = np.concatenate(([1.0], 1.0 - failures))
        data = np.ones(self._indptr[-1])
        data[self._edges] = survive[self._rows] * self._probabilities
        data[self._indptr[2:-2] - 1] = failures
        # renormalize away round-off, each row summed in entry order
        data /= np.bincount(self._entry_rows, data)[self._entry_rows]
        return DiscreteTimeMarkovChain.from_csr(
            self.states, self._indptr, self._indices, data, self.index
        )


def augment_with_failures(
    flow: ServiceFlow,
    environment: Environment | Mapping[str, float],
    state_failure_probabilities: Mapping[str, float],
) -> DiscreteTimeMarkovChain:
    """Build the failure-augmented concrete DTMC of a flow.

    Args:
        flow: the parametric usage profile.
        environment: bindings for the flow's formal parameters (and the
            owning service's attributes), used to evaluate transition
            probabilities.
        state_failure_probabilities: ``p(i, Fail)`` per internal state name,
            as computed by :mod:`repro.core.state_failure`.

    Returns:
        A DTMC over ``Start``, the internal states, ``End`` and ``Fail``.

    Raises:
        InvalidFlowError: if probabilities fail to normalize under
            ``environment`` or a failure probability is supplied for an
            unknown state.
        ProbabilityRangeError: if a supplied failure probability is outside
            ``[0, 1]``.
    """
    known = {state.name for state in flow.states}
    unknown = set(state_failure_probabilities) - known
    if unknown:
        raise InvalidFlowError(
            f"failure probabilities supplied for unknown states {sorted(unknown)}"
        )
    missing = known - set(state_failure_probabilities)
    if missing:
        raise InvalidFlowError(
            f"failure probabilities missing for states {sorted(missing)}"
        )
    frame = AugmentationFrame(flow, environment)
    return frame.chain([state_failure_probabilities[name] for name in frame.names])
