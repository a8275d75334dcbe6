"""Property tests for the Markov substrate."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.markov import AbsorbingChainAnalysis, DiscreteTimeMarkovChain

# A kept dense LU (a second right-hand side: expected steps or visits)
# imports scipy on first need, about 0.3 s.  Load it here so that cost
# does not land on whichever example first needs it and trip the
# hypothesis deadline.
try:
    import scipy.linalg  # noqa: F401
    import scipy.sparse.linalg  # noqa: F401
except ImportError:
    pass


@st.composite
def absorbing_chains(draw, max_transient=5):
    """Random chains: transient states t0..tk feeding End/Fail, with every
    transient state given a positive escape path (so the analysis is
    well-posed)."""
    k = draw(st.integers(min_value=1, max_value=max_transient))
    states = [f"t{i}" for i in range(k)] + ["End", "Fail"]
    n = len(states)
    matrix = np.zeros((n, n))
    for i in range(k):
        weights = np.array(
            [draw(st.floats(min_value=0.0, max_value=1.0)) for _ in range(n)]
        )
        # guarantee positive mass toward the absorbing pair
        weights[k] += draw(st.floats(min_value=0.05, max_value=1.0))
        weights[k + 1] += draw(st.floats(min_value=0.0, max_value=1.0))
        matrix[i] = weights / weights.sum()
    matrix[k, k] = 1.0
    matrix[k + 1, k + 1] = 1.0
    return DiscreteTimeMarkovChain(states, matrix)


class TestAbsorptionInvariants:
    @given(absorbing_chains())
    @settings(max_examples=200)
    def test_distribution_sums_to_one(self, chain):
        analysis = AbsorbingChainAnalysis(chain)
        for state in analysis.transient_states:
            dist = analysis.absorption_distribution(state)
            assert sum(dist.values()) == pytest.approx(1.0, abs=1e-9)

    @given(absorbing_chains())
    @settings(max_examples=200)
    def test_probabilities_in_unit_interval(self, chain):
        analysis = AbsorbingChainAnalysis(chain)
        for start in analysis.transient_states:
            for target in analysis.absorbing_states:
                value = analysis.absorption_probability(start, target)
                assert 0.0 <= value <= 1.0

    @given(absorbing_chains())
    @settings(max_examples=200)
    def test_expected_steps_at_least_one(self, chain):
        """From a transient state at least one transition happens."""
        analysis = AbsorbingChainAnalysis(chain)
        for start in analysis.transient_states:
            assert analysis.expected_steps_to_absorption(start) >= 1.0 - 1e-12

    @given(absorbing_chains())
    @settings(max_examples=200)
    def test_self_visits_at_least_one(self, chain):
        analysis = AbsorbingChainAnalysis(chain)
        for state in analysis.transient_states:
            assert analysis.expected_visits(state, state) >= 1.0 - 1e-12

    @given(absorbing_chains())
    @settings(max_examples=150)
    def test_one_step_conditioning(self, chain):
        """p*(s, End) = sum_k P(s, k) p*(k, End) — the defining linear
        system, checked directly against the computed solution."""
        analysis = AbsorbingChainAnalysis(chain)
        for state in analysis.transient_states:
            expected = 0.0
            for successor, probability in chain.successors(state).items():
                expected += probability * analysis.absorption_probability(
                    successor, "End"
                )
            assert analysis.absorption_probability(state, "End") == pytest.approx(
                expected, abs=1e-9
            )

    @given(absorbing_chains())
    @settings(max_examples=100)
    def test_matches_power_iteration(self, chain):
        """Absorption probabilities equal the limit of P^n."""
        analysis = AbsorbingChainAnalysis(chain)
        limit = chain.n_step_matrix(4000)
        end_column = chain.index("End")
        for state in analysis.transient_states:
            assert analysis.absorption_probability(state, "End") == pytest.approx(
                float(limit[chain.index(state), end_column]), abs=1e-7
            )


class TestFailureMonotonicity:
    @given(absorbing_chains(), st.floats(min_value=0.0, max_value=0.5))
    @settings(max_examples=150)
    def test_shifting_mass_to_fail_lowers_end_absorption(self, chain, shift):
        """Moving probability mass from End to Fail on one row can only
        reduce absorption in End from every state — the structural fact
        behind 'a less reliable callee never helps'."""
        analysis = AbsorbingChainAnalysis(chain)
        t0 = chain.index("t0")
        end, fail = chain.index("End"), chain.index("Fail")
        matrix = chain.matrix.copy()
        moved = min(shift, matrix[t0, end])
        assume(moved > 0)
        matrix[t0, end] -= moved
        matrix[t0, fail] += moved
        worse = AbsorbingChainAnalysis(
            DiscreteTimeMarkovChain(chain.states, matrix)
        )
        for state in analysis.transient_states:
            assert worse.absorption_probability(state, "End") <= (
                analysis.absorption_probability(state, "End") + 1e-12
            )


#: Self-loop weights around the absorbing cut ``P_ii >= 1 - 1e-9``.
NEAR_ONE = (1.0, 1.0 - 1e-13, 1.0 - 1e-11, 1.0 - 1e-9, 1.0 - 1e-7, 0.5)


@st.composite
def classified_chains(draw, max_states=8):
    """Chains whose rows keep a self-loop drawn from :data:`NEAR_ONE`
    (so some sit just inside, some just outside the absorbing cut) and
    spread the rest of their mass at random."""
    n = draw(st.integers(min_value=1, max_value=max_states))
    matrix = np.zeros((n, n))
    for i in range(n):
        loop = draw(st.sampled_from(NEAR_ONE))
        rest = np.array(
            [draw(st.floats(min_value=0.0, max_value=1.0)) for _ in range(n)]
        )
        rest[i] = 0.0
        matrix[i] = (1.0 - loop) * rest / rest.sum() if rest.sum() else 0.0
        matrix[i, i] = loop if rest.sum() else 1.0
    return DiscreteTimeMarkovChain([f"s{i}" for i in range(n)], matrix)


class TestStateClassification:
    @given(classified_chains())
    @settings(max_examples=200)
    def test_mask_is_the_diagonal_cut(self, chain):
        cut = [
            chain.matrix[i, i] >= 1.0 - 1e-9 for i in range(len(chain))
        ]
        assert chain.absorbing_mask.tolist() == cut
        assert not chain.absorbing_mask.flags.writeable
        assert chain.absorbing_states() == tuple(
            s for s, a in zip(chain.states, cut) if a
        )
        assert chain.transient_states() == tuple(
            s for s, a in zip(chain.states, cut) if not a
        )
        assert [chain.is_absorbing_state(s) for s in chain.states] == cut
