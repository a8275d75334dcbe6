"""Cyclic flows whose states repeat a few requests, for the tests.

:func:`repeated_request_assembly` builds one composite service ``app``
over ``n`` and ``m`` whose flow has ``states`` states with back edges
(retry loops).  Every state draws its requests from a small palette, so a
handful of distinct requests recurs across the whole flow, the shape the
numeric evaluator handles once per distinct request.  The palette covers
plain calls, derived actuals, internal failure and masking expressions, a
connector with binding-default and per-request actuals, and pairs of
requests that differ in one part only: the masking, the connector actuals,
or the sign of a zero constant (equal as floats, apart in bits).

``share=True`` puts the very same :class:`ServiceRequest` objects in every
state that uses them; ``share=False`` builds a fresh, equal request (with
fresh expression objects) each time.  The two must evaluate to the same
bits.
"""

from __future__ import annotations

import random

from repro.model import (
    AND,
    OR,
    AnalyticInterface,
    Assembly,
    CompositeService,
    FlowBuilder,
    KOfNCompletion,
    ServiceRequest,
    SimpleService,
)
from repro.model.connector import SimpleConnector
from repro.model.parameters import FormalParameter
from repro.symbolic import Binary, Call, Constant, Parameter

#: the flow state a back edge of state ``i`` returns to is ``i - BACK``
BACK = 7


def _palette():
    """Keyword arguments of the palette's requests (fresh expressions on
    every call)."""
    n, m = Parameter("n"), Parameter("m")
    return [
        dict(target="p0", actuals={"n": Parameter("n")}),
        dict(target="p0", actuals={"n": Parameter("n")}, masking=Constant(0.5)),
        dict(target="p1", actuals={"n": n * Constant(2.0)},
             internal_failure=Constant(1e-4) * m),
        dict(target="p0", actuals={"n": n + Constant(1.0)},
             masking=Constant(0.25)),
        dict(target="p2", actuals={"n": m},
             internal_failure=Constant(1.0) - Constant(0.999) ** n),
        dict(target="p2", actuals={"n": m},
             connector_actuals={"size": n * m}),
        dict(target="p2", actuals={"n": m},
             connector_actuals={"size": n + m}),
        dict(target="p1", actuals={"n": Call("log2", (n + Constant(1.0),))},
             internal_failure=Binary("*", Constant(0.0), n)),
        dict(target="p1", actuals={"n": Call("log2", (n + Constant(1.0),))},
             internal_failure=Binary("*", Constant(-0.0), n)),
    ]


def repeated_request_assembly(
    seed: int, states: int = 150, share: bool = True
) -> Assembly:
    """The assembly described in the module docstring; ``seed`` decides
    which palette requests each state holds and its completion model."""
    rng = random.Random(seed)
    palette = _palette()
    shared = [ServiceRequest(**kwargs) for kwargs in palette]

    def request(j: int) -> ServiceRequest:
        return shared[j] if share else ServiceRequest(**_palette()[j])

    interface = lambda *names, **attributes: AnalyticInterface(  # noqa: E731
        formal_parameters=tuple(FormalParameter(name) for name in names),
        attributes=attributes,
    )
    assembly = Assembly(f"repeated-{seed}")
    for j, fp in enumerate((2e-4, 5e-5, 1e-3)):
        assembly.add_service(SimpleService(
            f"p{j}", interface("n", fp=fp),
            Constant(1.0) - (Constant(1.0) - Parameter("fp")) ** Parameter("n"),
        ))
    assembly.add_service(SimpleConnector(
        "net", interface("size"), Constant(1.0) - Constant(0.99999) ** Parameter("size"),
    ))

    builder = FlowBuilder(formals=("n", "m"))
    names = [f"s{i}" for i in range(states)]
    for name in names:
        count = rng.choice((1, 1, 1, 2, 3))
        picks = [rng.randrange(len(palette)) for _ in range(count)]
        if count == 2 and rng.random() < 0.5:
            # one shared service behind both requests (section 3.2)
            builder.state(name, [request(0), request(0)], shared=True)
            continue
        completion = AND
        if count > 1:
            completion = rng.choice((AND, OR, KOfNCompletion(count - 1)))
        builder.state(name, [request(j) for j in picks], completion=completion)
    builder.transition("Start", names[0], 1)
    for i, name in enumerate(names):
        forward = names[i + 1] if i + 1 < states else "End"
        if i >= BACK and i % 5 == 0:
            builder.transition(name, forward, 0.85)
            builder.transition(name, names[i - BACK], 0.15)
        else:
            builder.transition(name, forward, 1)
    assembly.add_service(CompositeService("app", interface("n", "m"), builder.build()))
    assembly.bind("app", "p0", "p0")
    assembly.bind("app", "p1", "p1")
    assembly.bind("app", "p2", "p2", connector="net",
                  connector_actuals={"size": Parameter("n") + Constant(10.0)})
    return assembly
