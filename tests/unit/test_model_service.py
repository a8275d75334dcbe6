"""Unit tests for services and analytic interfaces."""

import dataclasses

import pytest

from repro.errors import ModelError
from repro.model import (
    AnalyticInterface,
    CompositeService,
    FlowBuilder,
    FormalParameter,
    IntegerDomain,
    ServiceRequest,
    SimpleService,
)
from repro.symbolic import Call, Constant, Parameter


def cpu_interface() -> AnalyticInterface:
    return AnalyticInterface(
        formal_parameters=(FormalParameter("N", domain=IntegerDomain(low=0)),),
        attributes={"speed": 1e6, "failure_rate": 1e-6},
    )


def eq1_expression():
    return Constant(1.0) - Call(
        "exp", (-(Parameter("failure_rate") * Parameter("N") / Parameter("speed")),)
    )


class TestAnalyticInterface:
    def test_parameter_names(self):
        assert cpu_interface().parameter_names == ("N",)

    def test_parameter_names_stay_out_of_eq_and_repr(self):
        used, fresh = cpu_interface(), cpu_interface()
        SimpleService("cpu", used, eq1_expression()).pfail(N=10)
        assert used == fresh
        assert repr(used) == repr(fresh)
        assert "parameter_names" not in repr(used)
        assert used != AnalyticInterface(
            formal_parameters=(FormalParameter("M"),),
            attributes=dict(used.attributes),
        )

    def test_replace_derives_parameter_names_again(self):
        renamed = dataclasses.replace(
            cpu_interface(), formal_parameters=(FormalParameter("M"),),
            attributes={},
        )
        assert renamed.parameter_names == ("M",)

    def test_duplicate_parameters_rejected(self):
        with pytest.raises(ModelError):
            AnalyticInterface(
                formal_parameters=(FormalParameter("N"), FormalParameter("N"))
            )

    def test_attribute_name_collision_rejected(self):
        with pytest.raises(ModelError):
            AnalyticInterface(
                formal_parameters=(FormalParameter("N"),),
                attributes={"N": 1.0},
            )

    def test_non_numeric_attribute_rejected(self):
        with pytest.raises(ModelError):
            AnalyticInterface(attributes={"speed": "fast"})

    def test_bad_attribute_name_rejected(self):
        with pytest.raises(ModelError):
            AnalyticInterface(attributes={"1bad": 1.0})

    def test_attributes_read_only(self):
        interface = cpu_interface()
        with pytest.raises(TypeError):
            interface.attributes["speed"] = 2.0

    def test_check_actuals_missing(self):
        with pytest.raises(ModelError):
            cpu_interface().check_actuals({})

    def test_check_actuals_out_of_domain(self):
        with pytest.raises(ModelError):
            cpu_interface().check_actuals({"N": -5})

    def test_check_actuals_accepts_valid(self):
        cpu_interface().check_actuals({"N": 100})


class TestSimpleService:
    def test_pfail_matches_equation_1(self):
        import math

        svc = SimpleService("cpu1", cpu_interface(), eq1_expression())
        expected = 1 - math.exp(-1e-6 * 1000 / 1e6)
        assert svc.pfail(N=1000) == pytest.approx(expected, rel=1e-12)

    def test_reliability_complements_pfail(self):
        svc = SimpleService("cpu1", cpu_interface(), eq1_expression())
        assert svc.reliability(N=100) == pytest.approx(1 - svc.pfail(N=100))

    def test_is_simple(self):
        svc = SimpleService("cpu1", cpu_interface(), eq1_expression())
        assert svc.is_simple and not svc.is_connector

    def test_unknown_names_in_expression_rejected(self):
        with pytest.raises(ModelError):
            SimpleService("cpu1", cpu_interface(), Parameter("mystery"))

    def test_default_pfail_is_zero(self):
        assert SimpleService("perfect").pfail() == 0.0

    def test_invalid_name_rejected(self):
        with pytest.raises(ModelError):
            SimpleService("")

    def test_domain_check_skippable(self):
        svc = SimpleService("cpu1", cpu_interface(), eq1_expression())
        env = svc.evaluation_environment({"N": 33.2}, check=False)
        assert env["N"] == 33.2
        with pytest.raises(ModelError):
            svc.evaluation_environment({"N": 33.2}, check=True)


class TestCompositeService:
    def make_flow(self, formals=("list",), target="cpu"):
        return (
            FlowBuilder(formals=formals)
            .state("s", [ServiceRequest(target, actuals={"N": Parameter("list")})])
            .sequence("s")
            .build()
        )

    def make_interface(self):
        return AnalyticInterface(
            formal_parameters=(FormalParameter("list", domain=IntegerDomain(low=1)),),
            attributes={"software_failure_rate": 1e-6},
        )

    def test_requirements_derived_from_flow(self):
        svc = CompositeService("search", self.make_interface(), self.make_flow())
        assert svc.requirements() == {"cpu"}
        assert not svc.is_simple

    def test_flow_params_must_be_published(self):
        bad_flow = self.make_flow(formals=("list", "hidden"))
        with pytest.raises(ModelError):
            CompositeService("search", self.make_interface(), bad_flow)

    def test_request_expressions_must_use_known_names(self):
        flow = (
            FlowBuilder(formals=("list",))
            .state(
                "s",
                [ServiceRequest("cpu", actuals={"N": Parameter("undeclared")})],
            )
            .sequence("s")
            .build()
        )
        with pytest.raises(ModelError):
            CompositeService("search", self.make_interface(), flow)

    def test_request_may_reference_attributes(self):
        flow = (
            FlowBuilder(formals=("list",))
            .state(
                "s",
                [
                    ServiceRequest(
                        "cpu",
                        actuals={"N": Parameter("list")},
                        internal_failure=Parameter("software_failure_rate"),
                    )
                ],
            )
            .sequence("s")
            .build()
        )
        CompositeService("search", self.make_interface(), flow)  # no raise

    def test_requires_service_flow(self):
        with pytest.raises(ModelError):
            CompositeService("search", self.make_interface(), flow="nope")

    def test_repr_mentions_params(self):
        svc = CompositeService("search", self.make_interface(), self.make_flow())
        assert "search" in repr(svc) and "list" in repr(svc)
