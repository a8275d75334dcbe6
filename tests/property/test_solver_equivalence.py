"""Property tests: sparse and dense solver backends are interchangeable.

The solver layer (:mod:`repro.markov.solvers`) promises that backend choice
is a pure performance decision — absorption probabilities, expected visits
and expected steps must agree between the dense path and both sparse paths
(``splu`` and the triangular DAG substitution) to solver tolerance, and
ill-posed chains must raise the *same* typed errors through every backend.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import NotAbsorbingError, NumericalInstabilityError
from repro.markov import AbsorbingChainAnalysis, DiscreteTimeMarkovChain
from repro.markov.solvers import scipy_available

# The sparse backends import scipy on first need, about 0.3 s.  Load it
# here so that cost does not land on whichever example first needs it and
# trip the hypothesis deadline when this file runs on its own.
try:
    import scipy.linalg  # noqa: F401
    import scipy.sparse.linalg  # noqa: F401
except ImportError:
    pass

pytestmark = pytest.mark.skipif(
    not scipy_available(), reason="sparse backend requires scipy"
)


@st.composite
def sparse_chains(draw, max_transient=24):
    """Random *sparse* absorbing chains, cyclic or DAG-shaped.

    Each transient row gets at most three successors (so large instances
    are genuinely sparse) plus guaranteed positive mass toward the
    absorbing pair.  ``allow_back_edges`` decides whether the transient
    graph may contain cycles — covering both the ``sparse-lu`` and the
    ``sparse-tri`` backends.
    """
    k = draw(st.integers(min_value=2, max_value=max_transient))
    allow_back_edges = draw(st.booleans())
    states = [f"t{i}" for i in range(k)] + ["End", "Fail"]
    n = len(states)
    matrix = np.zeros((n, n))
    for i in range(k):
        lo, hi = (0, k - 1) if allow_back_edges else (i + 1, k - 1)
        candidates = [j for j in range(lo, hi + 1) if j != i]
        successors = (
            draw(
                st.lists(
                    st.sampled_from(candidates), min_size=0, max_size=3,
                    unique=True,
                )
            )
            if candidates
            else []
        )
        row = np.zeros(n)
        for j in successors:
            row[j] = draw(st.floats(min_value=0.05, max_value=1.0))
        row[k] = draw(st.floats(min_value=0.05, max_value=1.0))     # End
        row[k + 1] = draw(st.floats(min_value=0.0, max_value=1.0))  # Fail
        matrix[i] = row / row.sum()
    matrix[k, k] = 1.0
    matrix[k + 1, k + 1] = 1.0
    return DiscreteTimeMarkovChain(states, matrix)


class TestBackendEquivalence:
    @given(sparse_chains())
    @settings(max_examples=100)
    def test_absorption_agrees(self, chain):
        dense = AbsorbingChainAnalysis(chain, solver="dense")
        sparse = AbsorbingChainAnalysis(chain, solver="sparse")
        assert sparse.solver_backend in ("sparse-lu", "sparse-tri")
        for start in dense.transient_states:
            for target in dense.absorbing_states:
                assert sparse.absorption_probability(
                    start, target
                ) == pytest.approx(
                    dense.absorption_probability(start, target), abs=1e-9
                )

    @given(sparse_chains())
    @settings(max_examples=75)
    def test_expected_steps_agree(self, chain):
        dense = AbsorbingChainAnalysis(chain, solver="dense")
        sparse = AbsorbingChainAnalysis(chain, solver="sparse")
        for start in dense.transient_states:
            assert sparse.expected_steps_to_absorption(
                start
            ) == pytest.approx(
                dense.expected_steps_to_absorption(start),
                rel=1e-9, abs=1e-9,
            )

    @given(sparse_chains(max_transient=10))
    @settings(max_examples=50)
    def test_expected_visits_agree(self, chain):
        dense = AbsorbingChainAnalysis(chain, solver="dense")
        sparse = AbsorbingChainAnalysis(chain, solver="sparse")
        for start in dense.transient_states:
            for state in dense.transient_states:
                assert sparse.expected_visits(start, state) == pytest.approx(
                    dense.expected_visits(start, state), rel=1e-9, abs=1e-9
                )

    @given(sparse_chains())
    @settings(max_examples=75)
    def test_auto_matches_dense(self, chain):
        dense = AbsorbingChainAnalysis(chain, solver="dense")
        auto = AbsorbingChainAnalysis(chain, solver="auto")
        for start in dense.transient_states:
            assert auto.absorption_probability(
                start, "End"
            ) == pytest.approx(
                dense.absorption_probability(start, "End"), abs=1e-9
            )


class TestErrorParity:
    @given(st.integers(min_value=2, max_value=12))
    @settings(max_examples=25)
    def test_trapped_transients_raise_through_every_backend(self, k):
        """A transient cycle with no escape is singular; both backends
        must diagnose it as NotAbsorbingError, not return garbage."""
        states = [f"t{i}" for i in range(k)] + ["End"]
        matrix = np.zeros((k + 1, k + 1))
        for i in range(k):
            matrix[i, (i + 1) % k] = 1.0  # pure cycle, never absorbs
        matrix[k, k] = 1.0
        chain = DiscreteTimeMarkovChain(states, matrix)
        for solver in ("dense", "sparse", "auto"):
            with pytest.raises(NotAbsorbingError):
                AbsorbingChainAnalysis(chain, solver=solver)

    @given(st.floats(min_value=1e-16, max_value=1e-14))
    @settings(max_examples=25)
    def test_near_singular_raises_through_every_backend(self, escape):
        """A nearly-trapped state (escape mass ~1e-15) produces a condition
        estimate beyond MAX_CONDITION on every backend."""
        states = ["t0", "t1", "End"]
        matrix = np.array(
            [
                [0.0, 1.0, 0.0],
                [1.0 - escape, 0.0, escape],
                [0.0, 0.0, 1.0],
            ]
        )
        chain = DiscreteTimeMarkovChain(states, matrix)
        for solver in ("dense", "sparse"):
            with pytest.raises(
                (NumericalInstabilityError, NotAbsorbingError)
            ):
                AbsorbingChainAnalysis(chain, solver=solver)
