"""Mutually recursive services — the fixed-point test case.

Section 3.3 ends by noting the recursive procedure "does not work in the
case of a service assembly where some services recursively call each
other"; the reliability is then the solution of a fixed-point equation.
This scenario builds the smallest such assembly, chosen so the fixed point
also has a *pencil-and-paper* solution the tests can check against:

- service ``A``: one state calling ``B`` (internal failure ``ia``), then
  End.  So  ``a = 1 - (1 - ia) * (1 - b)``.
- service ``B``: with probability ``r`` one state calling ``A`` (internal
  failure ``ib``), otherwise straight to End.  So
  ``b = r * (1 - (1 - ib) * (1 - a))``.

Substituting gives a linear fixed point with solution::

    a = (ia + (1-ia) * r * (ib + (1-ib) * ia)) / (1 - (1-ia) * (1-ib) * r)
        ... equivalently solved by :func:`closed_form_pfail` below via the
        2x2 linear system.

Operationally the recursion terminates with probability one (each level
recurses with probability ``r < 1``), so the least fixed point is the true
unreliability; the least-fixed-point solve of
:class:`~repro.core.ReliabilityEvaluator` (Newton with Kleene fallback,
:mod:`repro.core.fixed_point`) must converge to it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ModelError
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
from repro.symbolic import Parameter

__all__ = ["RecursiveParameters", "recursive_assembly", "closed_form_pfail"]


@dataclass(frozen=True)
class RecursiveParameters:
    """Constants of the mutual-recursion scenario.

    Attributes:
        internal_a: internal failure probability of A's call to B (``ia``).
        internal_b: internal failure probability of B's call to A (``ib``).
        recursion_probability: probability ``r`` that B recurses into A.
    """

    internal_a: float = 1e-3
    internal_b: float = 2e-3
    recursion_probability: float = 0.5

    def __post_init__(self) -> None:
        if not 0.0 <= self.recursion_probability < 1.0:
            raise ModelError(
                "recursion probability must be in [0, 1) for the recursion "
                "to terminate with probability one"
            )


def recursive_assembly(params: RecursiveParameters | None = None) -> Assembly:
    """The two-service cyclic assembly ``A -> B -> A``."""
    p = params or RecursiveParameters()
    size = Parameter("size")

    interface = lambda name: AnalyticInterface(  # noqa: E731 - tiny local factory
        formal_parameters=(FormalParameter("size", domain=IntegerDomain(low=0)),),
        description=f"mutually recursive service {name!r}",
    )

    flow_a = (
        FlowBuilder(formals=("size",))
        .state(
            "call_b",
            requests=[
                ServiceRequest(
                    "next",
                    actuals={"size": size},
                    internal_failure=constant_internal(p.internal_a),
                )
            ],
        )
        .sequence("call_b")
        .build()
    )
    service_a = CompositeService("A", interface("A"), flow_a)

    flow_b = (
        FlowBuilder(formals=("size",))
        .state(
            "call_a",
            requests=[
                ServiceRequest(
                    "next",
                    actuals={"size": size},
                    internal_failure=constant_internal(p.internal_b),
                )
            ],
        )
        .transition("Start", "call_a", p.recursion_probability)
        .transition("Start", "End", 1.0 - p.recursion_probability)
        .transition("call_a", "End", 1)
        .build()
    )
    service_b = CompositeService("B", interface("B"), flow_b)

    assembly = Assembly("mutual-recursion")
    assembly.add_services(
        service_a, service_b, perfect_connector("loc_ab"), perfect_connector("loc_ba")
    )
    assembly.bind("A", "next", "B", connector="loc_ab")
    assembly.bind("B", "next", "A", connector="loc_ba")
    return assembly


def closed_form_pfail(params: RecursiveParameters | None = None) -> tuple[float, float]:
    """The exact fixed point ``(Pfail(A), Pfail(B))`` by linear algebra.

    The two equations above are affine in ``(a, b)``::

        a = ia + (1 - ia) * b
        b = r * (ib + (1 - ib) * a)

    Solve the 2x2 system directly.
    """
    p = params or RecursiveParameters()
    ia, ib, r = p.internal_a, p.internal_b, p.recursion_probability
    # a - (1-ia) b = ia ;  -r (1-ib) a + b = r ib
    matrix = np.array([[1.0, -(1.0 - ia)], [-r * (1.0 - ib), 1.0]])
    rhs = np.array([ia, r * ib])
    a, b = np.linalg.solve(matrix, rhs)
    return float(a), float(b)
