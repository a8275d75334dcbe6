"""Unit tests for service flows and the flow builder."""

import dataclasses
import pickle

import pytest

from repro.errors import InvalidFlowError, InvalidSharingError
from repro.model import (
    AND,
    OR,
    FlowBuilder,
    FlowState,
    FlowTransition,
    ServiceFlow,
    ServiceRequest,
)
from repro.symbolic import Constant, Parameter


def request(target="svc"):
    return ServiceRequest(target, actuals={})


class TestFlowState:
    def test_reserved_names_rejected(self):
        for name in ("Start", "End", "Fail"):
            with pytest.raises(InvalidFlowError):
                FlowState(name)

    def test_bad_request_type_rejected(self):
        with pytest.raises(InvalidFlowError):
            FlowState("s", requests=("not a request",))

    def test_sharing_needs_two_requests(self):
        with pytest.raises(InvalidFlowError):
            FlowState("s", requests=(request(),), shared=True)

    def test_sharing_restriction_same_target(self):
        state = FlowState("s", (request("a"), request("b")), shared=True)
        with pytest.raises(InvalidSharingError):
            state.check_sharing_restriction()

    def test_sharing_ok_single_target(self):
        FlowState("s", (request("a"), request("a")), shared=True).check_sharing_restriction()

    def test_effective_groups(self):
        pair = (request("a"), request("a"))
        assert FlowState("s", pair).effective_groups() == ((0,), (1,))
        assert FlowState("s", pair, shared=True).effective_groups() == ((0, 1),)
        assert FlowState(
            "s", pair, sharing_groups=[[1, 0]]
        ).effective_groups() == ((1, 0),)
        assert FlowState("s").effective_groups() == ()

    def test_cached_groups_stay_out_of_eq_hash_repr_and_pickle(self):
        state = FlowState("s")
        # the only "groups=" in the repr is the declared sharing_groups
        assert repr(state).count("groups=") == 1
        assert repr(FlowState("s", (request(), request()))).count("groups=") == 1
        assert state == FlowState("s")
        assert hash(state) == hash(FlowState("s"))
        restored = pickle.loads(pickle.dumps(state))
        assert restored == state
        assert restored.effective_groups() == ()
        independent = FlowState("s", (request("a"), request("a")))
        assert independent == FlowState("s", (request("a"), request("a")))

    def test_replace_derives_groups_again(self):
        state = FlowState("s", (request("a"), request("a")))
        shared = dataclasses.replace(state, shared=True)
        assert shared.effective_groups() == ((0, 1),)
        assert state.effective_groups() == ((0,), (1,))

    def test_kofn_validated_against_request_count(self):
        from repro.model import KOfNCompletion

        with pytest.raises(Exception):
            FlowState("s", (request(),), completion=KOfNCompletion(2))


class TestFlowValidation:
    def test_minimal_valid_flow(self):
        flow = FlowBuilder(("n",)).state("s", [request()]).sequence("s").build()
        assert [s.name for s in flow.states] == ["s"]
        assert flow.request_targets() == {"svc"}

    def test_duplicate_state_rejected(self):
        with pytest.raises(InvalidFlowError):
            ServiceFlow(
                (),
                [FlowState("s"), FlowState("s")],
                [FlowTransition("Start", "s", Constant(1.0)),
                 FlowTransition("s", "End", Constant(1.0))],
            )

    def test_missing_start_transition_rejected(self):
        with pytest.raises(InvalidFlowError):
            ServiceFlow((), [FlowState("s")], [FlowTransition("s", "End", Constant(1.0))])

    def test_end_with_outgoing_rejected(self):
        with pytest.raises(InvalidFlowError):
            FlowBuilder().state("s", [request()]).sequence("s").transition(
                "End", "s", 1
            ).build()

    def test_incoming_to_start_rejected(self):
        with pytest.raises(InvalidFlowError):
            FlowBuilder().state("s", [request()]).sequence("s").transition(
                "s", "Start", 1
            ).build()

    def test_unknown_state_in_transition_rejected(self):
        with pytest.raises(InvalidFlowError):
            FlowBuilder().transition("Start", "ghost", 1).build()

    def test_dead_end_state_rejected(self):
        with pytest.raises(InvalidFlowError):
            ServiceFlow(
                (),
                [FlowState("s")],
                [FlowTransition("Start", "s", Constant(1.0))],
            )

    def test_unreachable_state_rejected(self):
        with pytest.raises(InvalidFlowError):
            (
                FlowBuilder()
                .state("a", [request()])
                .state("island", [request()])
                .sequence("a")
                .transition("island", "End", 1)
                .build()
            )

    def test_end_unreachable_rejected(self):
        # one state looping on itself only
        with pytest.raises(InvalidFlowError):
            (
                FlowBuilder()
                .state("loop", [request()])
                .transition("Start", "loop", 1)
                .transition("loop", "loop", 1)
                .build()
            )

    def test_undeclared_parameter_in_probability_rejected(self):
        with pytest.raises(InvalidFlowError):
            (
                FlowBuilder(formals=("n",))
                .state("s", [request()])
                .transition("Start", "s", Parameter("q"))
                .transition("s", "End", 1)
                .build()
            )

    def test_shared_state_with_mixed_targets_rejected_at_build(self):
        with pytest.raises(InvalidSharingError):
            (
                FlowBuilder()
                .state("s", [request("a"), request("b")], shared=True)
                .sequence("s")
                .build()
            )


class TestProbabilityChecks:
    def make_branching_flow(self):
        return (
            FlowBuilder(formals=("q",))
            .state("a", [request()])
            .state("b", [request()])
            .transition("Start", "a", Parameter("q"))
            .transition("Start", "b", 1 - Parameter("q"))
            .transition("a", "End", 1)
            .transition("b", "End", 1)
            .build()
        )

    def test_valid_probabilities_pass(self):
        self.make_branching_flow().check_probabilities({"q": 0.4})

    def test_row_sum_violation_detected(self):
        flow = (
            FlowBuilder(formals=("q",))
            .state("a", [request()])
            .transition("Start", "a", Parameter("q"))
            .transition("a", "End", 1)
            .build()
        )
        with pytest.raises(InvalidFlowError):
            flow.check_probabilities({"q": 0.5})

    def test_out_of_range_probability_detected(self):
        with pytest.raises(InvalidFlowError):
            self.make_branching_flow().check_probabilities({"q": 1.5})

    def test_boundary_values_accepted(self):
        flow = self.make_branching_flow()
        flow.check_probabilities({"q": 0.0})
        flow.check_probabilities({"q": 1.0})


class TestFlowBuilderAndDescribe:
    def test_sequence_helper(self):
        flow = (
            FlowBuilder()
            .state("a", [request()])
            .state("b", [request()])
            .sequence("a", "b")
            .build()
        )
        assert flow.outgoing("a")[0].target == "b"
        assert flow.outgoing("b")[0].target == "End"

    def test_describe_mentions_states_and_modes(self):
        flow = (
            FlowBuilder(("n",))
            .state("s", [request(), request()], completion=OR)
            .sequence("s")
            .build()
        )
        text = flow.describe()
        assert "state s (1-of-2)" in text
        assert "Start -> s" in text

    def test_state_lookup(self):
        flow = FlowBuilder().state("s", [request()]).sequence("s").build()
        assert flow.state("s").completion == AND
        with pytest.raises(InvalidFlowError):
            flow.state("ghost")
