"""Unit tests for the DSL serialization layer."""

import json

import pytest

from repro.dsl import (
    SCHEMA_VERSION,
    assembly_from_dict,
    assembly_to_dict,
    dump_assembly,
    load_assembly,
    service_from_dict,
    service_to_dict,
)
from repro.errors import ModelError
from repro.model import CpuResource, KOfNCompletion, perfect_connector
from repro.scenarios import (
    booking_assembly,
    local_assembly,
    pipeline_assembly,
    remote_assembly,
)


class TestServiceSerialization:
    def test_simple_service_round_trip(self):
        original = CpuResource("cpu1", 1e6, 1e-7).service()
        data = service_to_dict(original)
        assert data["schema"] == SCHEMA_VERSION
        rebuilt = service_from_dict(data)
        assert rebuilt.name == "cpu1"
        assert rebuilt.pfail(N=1000) == original.pfail(N=1000)
        assert rebuilt.interface.attributes == original.interface.attributes

    def test_connector_flag_round_trips(self):
        original = perfect_connector("loc1")
        rebuilt = service_from_dict(service_to_dict(original))
        assert rebuilt.is_connector

    def test_composite_service_round_trip(self):
        assembly = local_assembly()
        original = assembly.service("search")
        rebuilt = service_from_dict(service_to_dict(original))
        assert rebuilt.requirements() == original.requirements()
        assert [s.name for s in rebuilt.flow.states] == [
            s.name for s in original.flow.states
        ]

    def test_completion_models_round_trip(self):
        assembly = pipeline_assembly()
        publish = assembly.service("publish")
        rebuilt = service_from_dict(service_to_dict(publish))
        deliver = rebuilt.flow.state("deliver")
        assert isinstance(deliver.completion, KOfNCompletion)
        assert deliver.completion.k == 2

    def test_sharing_flag_round_trips(self):
        assembly = pipeline_assembly()
        rebuilt = service_from_dict(service_to_dict(assembly.service("transcode")))
        assert rebuilt.flow.state("encode").shared

    def test_unknown_kind_rejected(self):
        with pytest.raises(ModelError):
            service_from_dict({"kind": "quantum", "name": "q"})


class TestExpressionForms:
    def test_string_expressions_accepted(self):
        data = {
            "kind": "simple",
            "name": "widget",
            "interface": {
                "parameters": [{"name": "n", "domain": {"kind": "integer", "low": 0}}],
                "attributes": {"rate": 0.001},
            },
            "failure_probability": "1 - (1 - rate) ** n",
        }
        service = service_from_dict(data)
        assert service.pfail(n=10) == pytest.approx(1 - 0.999**10)

    def test_numeric_literal_expressions_accepted(self):
        data = {
            "kind": "simple",
            "name": "flaky",
            "interface": {"parameters": []},
            "failure_probability": 0.25,
        }
        assert service_from_dict(data).pfail() == 0.25

    def test_bad_expression_rejected(self):
        with pytest.raises(ModelError):
            service_from_dict(
                {
                    "kind": "simple",
                    "name": "x",
                    "interface": {},
                    "failure_probability": ["not", "an", "expr"],
                }
            )


class TestAssemblySerialization:
    @pytest.mark.parametrize(
        "build", [local_assembly, remote_assembly, booking_assembly, pipeline_assembly]
    )
    def test_round_trip_preserves_semantics(self, build):
        from repro.core import ReliabilityEvaluator

        original = build()
        rebuilt = assembly_from_dict(assembly_to_dict(original))
        assert rebuilt.name == original.name
        assert {s.name for s in rebuilt.services} == {
            s.name for s in original.services
        }
        top = {
            "local": ("search", {"elem": 1, "list": 300, "res": 1}),
            "remote": ("search", {"elem": 1, "list": 300, "res": 1}),
            "booking": ("booking", {"itinerary": 4}),
            "media-pipeline": ("publish", {"mb": 50}),
        }[original.name]
        service, actuals = top
        assert ReliabilityEvaluator(rebuilt).pfail(service, **actuals) == (
            ReliabilityEvaluator(original).pfail(service, **actuals)
        )

    def test_json_text_round_trip(self):
        original = local_assembly()
        text = dump_assembly(original)
        json.loads(text)  # valid JSON
        rebuilt = load_assembly(text)
        assert {b.slot for b in rebuilt.bindings} == {
            b.slot for b in original.bindings
        }

    def test_infinity_bounds_serialized_as_null(self):
        data = assembly_to_dict(local_assembly())
        text = json.dumps(data)  # would raise on raw inf with allow_nan=False
        assert "Infinity" not in text

    def test_binding_connector_actuals_round_trip(self):
        original = local_assembly()
        rebuilt = assembly_from_dict(assembly_to_dict(original))
        binding = rebuilt.binding("search", "sort")
        assert set(binding.connector_actuals) == {"ip", "op"}
        assert binding.connector_actuals["ip"].evaluate(
            {"elem": 2.0, "list": 5.0}
        ) == 7.0


class TestLeafMemo:
    """The loader builds each distinct const/param leaf once per document."""

    @staticmethod
    def document(failure_probability, internal_failure=0.0) -> dict:
        """A consumer ``app`` with two states calling ``p``, whose failure
        closed form is ``failure_probability``."""
        request = {"target": "p", "actuals": {"n": {"kind": "param", "name": "n"}},
                   "internal_failure": internal_failure}
        return {
            "name": "memo",
            "services": [
                {"kind": "simple", "name": "p",
                 "interface": {"parameters": [{"name": "n"}]},
                 "failure_probability": failure_probability},
                {"kind": "composite", "name": "app",
                 "interface": {"parameters": [{"name": "n"}]},
                 "flow": {
                     "formals": ["n"],
                     "states": [{"name": "a", "requests": [request]},
                                {"name": "b", "requests": [request]}],
                     "transitions": [
                         {"source": "Start", "target": "a", "probability": 1},
                         {"source": "a", "target": "b", "probability": 1},
                         {"source": "b", "target": "End", "probability": 1},
                     ]}},
            ],
            "bindings": [{"consumer": "app", "slot": "p", "provider": "p"}],
        }

    @staticmethod
    def requests(assembly):
        return [state.requests[0] for state in assembly.service("app").flow.states]

    def test_equal_leaves_are_one_object(self):
        first, second = self.requests(assembly_from_dict(self.document(0.1)))
        assert first is second  # equal request dicts share one request
        assert first.actuals["n"] is second.actuals["n"]
        assert first.internal_failure is second.internal_failure
        assert first.masking is second.masking  # the default 0, a number

    def test_requests_that_differ_are_not_shared(self):
        data = self.document(0.1)
        states = data["services"][1]["flow"]["states"]
        request = states[0]["requests"][0]
        states[1]["requests"] = [
            request, dict(request, label="x"), dict(request, connector_actuals={}),
            dict(request, internal_failure=-0.0),
        ]
        flow = assembly_from_dict(data).service("app").flow
        first, same, *others = (flow.states[0].requests[0], *flow.states[1].requests)
        assert same is first
        assert len({id(r) for r in (first, *others)}) == 4
        assert [r.label for r in others] == ["x", "", ""]
        assert others[1].connector_actuals == {} and first.connector_actuals is None

    def test_signed_zeros_keep_their_sign(self):
        zero, negative = {"kind": "const", "value": 0.0}, {"kind": "const", "value": -0.0}
        data = self.document(
            {"kind": "binary", "op": "+", "left": negative, "right": zero},
            internal_failure=-0.0,
        )
        assembly = load_assembly(json.dumps(data))
        closed = assembly.service("p").failure_probability
        assert closed.left is not closed.right
        assert str(closed.left.value) == "-0.0" and str(closed.right.value) == "0.0"
        assert str(self.requests(assembly)[0].internal_failure.value) == "-0.0"
        again = json.loads(dump_assembly(load_assembly(dump_assembly(assembly))))
        closed = again["services"][0]["failure_probability"]
        assert (str(closed["left"]["value"]), str(closed["right"]["value"])) == (
            "-0.0", "0.0"
        )

    def test_const_and_param_leaves_never_collide(self):
        data = self.document({
            "kind": "binary", "op": "+",
            "left": {"kind": "param", "name": "const"},
            "right": {"kind": "const", "value": 1.0},
        })
        data["services"][0]["interface"]["parameters"].append({"name": "const"})
        closed = assembly_from_dict(data).service("p").failure_probability
        assert type(closed.left).__name__ == "Parameter" and closed.left.name == "const"
        assert type(closed.right).__name__ == "Constant" and closed.right.value == 1.0

    def test_two_loads_share_no_leaves(self):
        text = json.dumps(self.document(0.1))
        first, second = (self.requests(load_assembly(text))[0] for _ in range(2))
        assert first.actuals["n"] == second.actuals["n"]
        assert first.actuals["n"] is not second.actuals["n"]
        assert first.internal_failure is not second.internal_failure

    # (class name, message) of each malformed leaf, as raised before the
    # loader shared leaves
    MALFORMED = {
        "const without value": (
            {"kind": "const"},
            ("ModelError", "malformed assembly document: KeyError: 'value'")),
        "const text value": (
            {"kind": "const", "value": "abc"},
            ("ModelError", "malformed assembly document: ValueError: could not "
                           "convert string to float: 'abc'")),
        "const null value": (
            {"kind": "const", "value": None},
            ("ModelError", "malformed assembly document: TypeError: float() "
                           "argument must be a string or a real number, not "
                           "'NoneType'")),
        "param without name": (
            {"kind": "param"},
            ("ModelError", "malformed assembly document: KeyError: 'name'")),
        "param empty name": (
            {"kind": "param", "name": ""},
            ("SymbolicError", "Parameter requires a non-empty name, got ''")),
        "unknown kind": (
            {"kind": "weird"},
            ("SymbolicError", "unknown expression kind 'weird'")),
        "bad leaf under binary": (
            {"kind": "binary", "op": "+", "left": {"kind": "const", "value": 1.0},
             "right": {"kind": "const", "value": "x"}},
            ("ModelError", "malformed assembly document: ValueError: could not "
                           "convert string to float: 'x'")),
        "text child": (
            {"kind": "binary", "op": "+", "left": "n",
             "right": {"kind": "const", "value": 1.0}},
            ("ModelError", "malformed assembly document: AttributeError: 'str' "
                           "object has no attribute 'get'")),
        "unknown operator": (
            {"kind": "binary", "op": "%", "left": {"kind": "const", "value": 1.0},
             "right": {"kind": "const", "value": 1.0}},
            ("SymbolicError", "unknown binary operator '%'")),
        "unknown function": (
            {"kind": "call", "name": "nofunc",
             "args": [{"kind": "const", "value": 1.0}]},
            ("UnknownFunctionError", "unknown function 'nofunc'")),
    }

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_a_malformed_leaf_raises_as_before(self, case):
        leaf, (kind, message) = self.MALFORMED[case]
        document = {"name": "a", "services": [
            {"kind": "simple", "name": "s", "interface": {},
             "failure_probability": leaf},
        ]}
        with pytest.raises(Exception) as caught:
            assembly_from_dict(document)
        assert (type(caught.value).__name__, str(caught.value)) == (kind, message)
