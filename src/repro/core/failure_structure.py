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
which eq. (3) is one absorption query.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

import numpy as np

from repro.errors import InvalidFlowError
from repro.markov import DiscreteTimeMarkovChain
from repro.model.flow import END, FAIL, START, ServiceFlow
from repro.runtime.guards import check_probability
from repro.symbolic import Environment

__all__ = ["AugmentationFrame", "augment_with_failures", "FAIL"]


class AugmentationFrame:
    """The failure-independent part of a flow's augmented chain under one
    environment: the state order (``Start``, internal states, ``End``,
    ``Fail``) and the flow's positive transition probabilities, evaluated
    and row-checked once.  :meth:`chain` adds the state failure
    probabilities, so fixed-point sweeps redo only that part."""

    def __init__(
        self, flow: ServiceFlow, environment: Environment | Mapping[str, float]
    ):
        flow.check_probabilities(environment)
        self.names = tuple(state.name for state in flow.states)
        self.states = (START, *self.names, END, FAIL)
        index = {state: i for i, state in enumerate(self.states)}
        edges = [
            (index[source], index[transition.target], probability)
            for source in (START, *self.names)
            for transition in flow.outgoing(source)
            if (probability := float(transition.probability.evaluate(environment)))
            > 0.0
        ]
        self._rows, self._columns, self._probabilities = map(np.array, zip(*edges))

    def chain(self, failures: Sequence[float] | np.ndarray) -> DiscreteTimeMarkovChain:
        """The augmented DTMC for ``p(i, Fail)`` of each internal state, in
        flow order (:class:`ProbabilityRangeError` names the first state
        outside ``[0, 1]``)."""
        failures = check_probability(
            "failure probability of state", np.asarray(failures, dtype=float),
            self.names,
        )
        survive = np.ones(len(self.states))
        survive[1:-2] = 1.0 - failures
        matrix = np.zeros((len(self.states), len(self.states)))
        # parallel transitions add up in flow order, one edge at a time
        np.add.at(
            matrix, (self._rows, self._columns),
            survive[self._rows] * self._probabilities,
        )
        matrix[1:-2, -1] = np.where(failures > 0.0, failures, 0.0)
        matrix[-2, -2] = matrix[-1, -1] = 1.0  # End and Fail absorb
        return DiscreteTimeMarkovChain(self.states, matrix)


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
