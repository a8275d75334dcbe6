"""Recursive assemblies beyond ``repro.scenarios.recursive_assembly``, for
the tests.

- :func:`never_terminating_assembly`: every point of ``[0, 1]`` is a fixed
  point, so the Newton safeguard refuses and Kleene sweeps answer;
- :func:`self_recursion`: ``A`` calls itself directly, so a breakdown of
  ``A`` meets ``A`` among its own callees;
- :func:`recursion_reached_twice`: ``T`` calls the recursive pair
  directly and through ``C``, whose value reads the pair's sweep values
  without re-entering anything itself;
- :func:`descending_recursion`: ``A`` is re-entered under other actuals
  than the ones it is being evaluated with, which no path may answer.
"""

import json

from repro.dsl import dump_assembly, load_assembly
from repro.model import (
    AnalyticInterface,
    Assembly,
    CompositeService,
    FlowBuilder,
    FormalParameter,
    IntegerDomain,
    ServiceRequest,
    perfect_connector,
)
from repro.reliability import constant_internal
from repro.scenarios import recursive_assembly
from repro.symbolic import Parameter


def never_terminating_assembly() -> Assembly:
    """``A`` calls ``B``, ``B`` calls ``A`` with probability 1, and no call
    ever fails: ``F(x) = x``, so every ``x`` in ``[0, 1]`` is a fixed
    point and ``J = 1``.  (``RecursiveParameters`` refuses ``r = 1``.)"""
    size = Parameter("size")
    interface = AnalyticInterface(
        formal_parameters=(FormalParameter("size", domain=IntegerDomain(low=0)),),
    )

    def service(name: str) -> CompositeService:
        flow = (
            FlowBuilder(formals=("size",))
            .state("call", requests=[ServiceRequest("next", actuals={"size": size})])
            .sequence("call")
            .build()
        )
        return CompositeService(name, interface, flow)

    assembly = Assembly("never-terminating")
    assembly.add_services(
        service("A"), service("B"),
        perfect_connector("loc_ab"), perfect_connector("loc_ba"),
    )
    assembly.bind("A", "next", "B", connector="loc_ab")
    assembly.bind("B", "next", "A", connector="loc_ba")
    return assembly


def self_recursion(r: float = 0.5, internal: float = 1e-3) -> Assembly:
    """``A`` recurses into itself with probability ``r``, each call failing
    internally with probability ``internal``: the least fixed point is
    ``a = r * internal / (1 - r * (1 - internal))``."""
    flow = (
        FlowBuilder(formals=("size",))
        .state("call", requests=[ServiceRequest(
            "next", actuals={"size": Parameter("size")},
            internal_failure=constant_internal(internal),
        )])
        .transition("Start", "call", r)
        .transition("Start", "End", 1.0 - r)
        .transition("call", "End", 1)
        .build()
    )
    interface = AnalyticInterface(
        formal_parameters=(FormalParameter("size", domain=IntegerDomain(low=0)),),
    )
    assembly = Assembly("self-recursion")
    assembly.add_services(
        CompositeService("A", interface, flow), perfect_connector("loc_aa")
    )
    assembly.bind("A", "next", "A", connector="loc_aa")
    return assembly


def recursion_reached_twice(internal_c: float = 2e-3) -> Assembly:
    """``recursive_assembly()`` plus ``T``, which calls ``A`` and then
    ``C``, which calls ``A`` with internal failure ``internal_c``:
    ``c = 1 - (1 - internal_c) * (1 - a)`` and ``t = 1 - (1 - a) * (1 - c)``
    with ``a`` from ``closed_form_pfail()``."""
    size = Parameter("size")
    interface = AnalyticInterface(
        formal_parameters=(FormalParameter("size", domain=IntegerDomain(low=0)),),
    )
    call_a = ServiceRequest("a", actuals={"size": size})
    flow_t = (
        FlowBuilder(formals=("size",))
        .state("call_a", requests=[call_a])
        .state("call_c", requests=[ServiceRequest("c", actuals={"size": size})])
        .sequence("call_a", "call_c")
        .build()
    )
    flow_c = (
        FlowBuilder(formals=("size",))
        .state("call_a", requests=[ServiceRequest(
            "a", actuals={"size": size},
            internal_failure=constant_internal(internal_c),
        )])
        .sequence("call_a")
        .build()
    )
    assembly = recursive_assembly()
    assembly.add_services(
        CompositeService("T", interface, flow_t),
        CompositeService("C", interface, flow_c),
        perfect_connector("loc_t"),
    )
    assembly.bind("T", "a", "A", connector="loc_t")
    assembly.bind("T", "c", "C", connector="loc_t")
    assembly.bind("C", "a", "A", connector="loc_t")
    return assembly


def descending_recursion() -> Assembly:
    """The recursive scenario with B calling ``A(size - 1)``: A is
    re-entered under other actuals than the ones on the stack."""
    data = json.loads(dump_assembly(recursive_assembly()))
    b = next(s for s in data["services"] if s["name"] == "B")
    b["flow"]["states"][0]["requests"][0]["actuals"]["size"] = "size - 1"
    return load_assembly(json.dumps(data))
