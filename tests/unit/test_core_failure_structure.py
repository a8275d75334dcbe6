"""Unit tests for the failure-structure augmentation (Figure 5)."""

import pytest

from repro.core import augment_with_failures
from repro.errors import InvalidFlowError, ProbabilityRangeError
from repro.markov import AbsorbingChainAnalysis
from repro.model import FlowBuilder, ServiceRequest
from repro.symbolic import Environment, Parameter


def search_like_flow():
    """Start -q-> sort -> search -> End; Start -(1-q)-> search (Figure 1)."""
    return (
        FlowBuilder(formals=("q",))
        .state("sort", [ServiceRequest("sort", actuals={"list": 1})])
        .state("search", [ServiceRequest("cpu", actuals={"N": 1})])
        .transition("Start", "sort", Parameter("q"))
        .transition("Start", "search", 1 - Parameter("q"))
        .transition("sort", "search", 1)
        .transition("search", "End", 1)
        .build()
    )


class TestAugmentation:
    def test_figure_5_structure(self):
        chain = augment_with_failures(
            search_like_flow(), Environment(q=0.5),
            {"sort": 0.1, "search": 0.2},
        )
        assert set(chain.states) == {"Start", "sort", "search", "End", "Fail"}
        assert chain.is_absorbing_state("End")
        assert chain.is_absorbing_state("Fail")
        # reweighting: sort -> search carries (1 - 0.1)
        assert chain.probability("sort", "search") == pytest.approx(0.9)
        assert chain.probability("sort", "Fail") == pytest.approx(0.1)
        assert chain.probability("search", "Fail") == pytest.approx(0.2)

    def test_start_has_no_fail_edge(self):
        """No failure can occur in Start (paper assumption)."""
        chain = augment_with_failures(
            search_like_flow(), Environment(q=0.5),
            {"sort": 0.5, "search": 0.5},
        )
        assert chain.probability("Start", "Fail") == 0.0
        assert chain.probability("Start", "sort") == pytest.approx(0.5)

    def test_absorption_matches_hand_computation(self):
        q, f1, f2 = 0.4, 0.1, 0.2
        chain = augment_with_failures(
            search_like_flow(), Environment(q=q), {"sort": f1, "search": f2}
        )
        analysis = AbsorbingChainAnalysis(chain)
        expected_success = q * (1 - f1) * (1 - f2) + (1 - q) * (1 - f2)
        assert analysis.absorption_probability("Start", "End") == pytest.approx(
            expected_success
        )

    def test_zero_failures_reach_end_certainly(self):
        chain = augment_with_failures(
            search_like_flow(), Environment(q=0.3), {"sort": 0.0, "search": 0.0}
        )
        analysis = AbsorbingChainAnalysis(chain)
        assert analysis.absorption_probability("Start", "End") == pytest.approx(1.0)

    def test_certain_failure_never_reaches_end(self):
        chain = augment_with_failures(
            search_like_flow(), Environment(q=0.3), {"sort": 1.0, "search": 1.0}
        )
        analysis = AbsorbingChainAnalysis(chain)
        assert analysis.absorption_probability("Start", "End") == pytest.approx(0.0)


class TestValidation:
    def test_unknown_state_rejected(self):
        with pytest.raises(InvalidFlowError):
            augment_with_failures(
                search_like_flow(), Environment(q=0.5),
                {"sort": 0.1, "search": 0.1, "ghost": 0.1},
            )

    def test_missing_state_rejected(self):
        with pytest.raises(InvalidFlowError):
            augment_with_failures(
                search_like_flow(), Environment(q=0.5), {"sort": 0.1}
            )

    def test_out_of_range_failure_rejected(self):
        with pytest.raises(ProbabilityRangeError):
            augment_with_failures(
                search_like_flow(), Environment(q=0.5),
                {"sort": 1.5, "search": 0.0},
            )

    @pytest.mark.parametrize("bad", [-0.25, 1.5, float("nan")])
    def test_out_of_range_failure_names_its_state(self, bad):
        with pytest.raises(ProbabilityRangeError) as info:
            augment_with_failures(
                search_like_flow(), Environment(q=0.5),
                {"sort": 0.0, "search": bad},
            )
        assert info.value.what == "failure probability of state 'search'"

    def test_round_off_beyond_one_is_clamped(self):
        """Drift within the one probability guard's tolerance is clamped,
        the state failing certainly."""
        chain = augment_with_failures(
            search_like_flow(), Environment(q=0.5),
            {"sort": 0.0, "search": 1.0 + 1e-10},
        )
        exact = augment_with_failures(
            search_like_flow(), Environment(q=0.5), {"sort": 0.0, "search": 1.0},
        )
        assert chain.matrix.tobytes() == exact.matrix.tobytes()

    def test_bad_transition_probabilities_rejected(self):
        with pytest.raises(InvalidFlowError):
            augment_with_failures(
                search_like_flow(), Environment(q=1.7),
                {"sort": 0.0, "search": 0.0},
            )
