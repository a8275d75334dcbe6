"""Property tests: the absorbing solve's condition guard is exact.

``A = I - Q`` of an absorbing chain is an M-matrix, so its 1-norm
condition number is ``||A||_1 * max(A^{-T} 1)``: one transposed solve
(:meth:`~repro.markov.solvers.Factorization.m_matrix_condition`).  On
every backend — dense, ``sparse-lu`` and ``sparse-tri`` — that number
must equal ``np.linalg.cond(I - Q, 1)`` to round-off, and a nearly
trapped chain must still be refused.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import NumericalInstabilityError
from repro.markov import AbsorbingChainAnalysis, DiscreteTimeMarkovChain
from repro.markov.solvers import chain_plan, factorize_chain, scipy_available
from repro.runtime.guards import MAX_CONDITION

pytestmark = pytest.mark.skipif(
    not scipy_available(), reason="sparse backends require scipy"
)

EPS = np.finfo(float).eps

#: (solver request, resolved backend, whether the transient graph cycles)
BACKENDS = [
    ("dense", "dense", True),
    ("dense", "dense", False),
    ("sparse", "sparse-lu", True),
    ("sparse", "sparse-tri", False),
]


@st.composite
def absorbing_chains(draw, cyclic: bool, max_transient: int = 20):
    """Random absorbing chains with an ``End``/``Fail`` pair.

    Transient rows get up to three successors, forward only when
    ``cyclic`` is false (a DAG, so the sparse request resolves to the
    triangular path); a cyclic chain always has the 2-cycle
    ``t0 <-> t1`` (so it resolves to ``splu``).  Escape mass spans six
    decades, so conditions range from about 1 to about 1e7.
    """
    k = draw(st.integers(min_value=2, max_value=max_transient))
    states = [f"t{i}" for i in range(k)] + ["End", "Fail"]
    matrix = np.zeros((k + 2, k + 2))
    for i in range(k):
        candidates = [j for j in range(0 if cyclic else i + 1, k) if j != i]
        successors = draw(st.lists(
            st.sampled_from(candidates), max_size=3, unique=True,
        )) if candidates else []
        if cyclic and i < 2 and 1 - i not in successors:
            successors.append(1 - i)
        row = np.zeros(k + 2)
        for j in successors:
            row[j] = draw(st.floats(min_value=0.05, max_value=1.0))
        row[i] = draw(st.floats(min_value=0.0, max_value=0.9))  # self-loop
        escape = draw(st.floats(min_value=1e-6, max_value=1.0))
        row[k] = escape * draw(st.floats(min_value=0.0, max_value=1.0))
        row[k + 1] = escape - row[k]
        matrix[i] = row / row.sum()
    matrix[k, k] = matrix[k + 1, k + 1] = 1.0
    return DiscreteTimeMarkovChain(states, matrix)


def system_of(chain: DiscreteTimeMarkovChain) -> np.ndarray:
    transient = np.flatnonzero(~chain.absorbing_mask)
    return np.eye(transient.size) - chain.matrix[np.ix_(transient, transient)]


@pytest.mark.parametrize("solver, backend, cyclic", BACKENDS)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_condition_equals_numpy_cond(solver, backend, cyclic, data):
    chain = data.draw(absorbing_chains(cyclic))
    plan = chain_plan(chain.csr, chain.absorbing_mask, solver=solver,
                      cache=False)
    assert plan.backend == backend
    exact = np.linalg.cond(system_of(chain), 1)
    guard = factorize_chain(chain.csr, plan).m_matrix_condition()
    assert guard == pytest.approx(exact, rel=max(1e-12, 16 * exact * EPS))


def nearly_trapped(fan_in: int, escape: float, cyclic: bool):
    """``fan_in`` feeder states all move to a hub that keeps ``1 - escape``
    of its mass (just transient: absorbing is ``>= 1 - 1e-9``).  Column
    ``hub`` of ``N = A^{-1}`` sums to about ``fan_in / escape`` and
    ``||A||_1`` is about ``fan_in``, so the condition number exceeds
    ``MAX_CONDITION`` while the chain stays a DAG (``sparse-tri``); with
    ``cyclic`` the hub sends half its escape back to a feeder
    (``sparse-lu``)."""
    hub, end = fan_in, fan_in + 1
    states = [f"t{i}" for i in range(fan_in)] + ["hub", "End"]
    matrix = np.zeros((fan_in + 2, fan_in + 2))
    matrix[:fan_in, hub] = 1.0
    matrix[hub, hub] = 1.0 - escape
    if cyclic:
        matrix[hub, 0] = matrix[hub, end] = escape / 2
    else:
        matrix[hub, end] = escape
    matrix[end, end] = 1.0
    return DiscreteTimeMarkovChain(states, matrix)


@pytest.mark.parametrize("solver, backend, cyclic", BACKENDS)
@settings(max_examples=20, deadline=None)
@given(fan_in=st.integers(min_value=64, max_value=96),
       escape=st.floats(min_value=1.1e-9, max_value=2e-9))
def test_nearly_trapped_chain_is_refused(solver, backend, cyclic, fan_in,
                                        escape):
    chain = nearly_trapped(fan_in, escape, cyclic)
    assert chain.transient_states()[-1] == "hub"
    plan = chain_plan(chain.csr, chain.absorbing_mask, solver=solver,
                      cache=False)
    assert plan.backend == backend
    assert np.linalg.cond(system_of(chain), 1) > MAX_CONDITION
    with pytest.raises(NumericalInstabilityError, match="ill-conditioned"):
        AbsorbingChainAnalysis(chain, solver=solver)
