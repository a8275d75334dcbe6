"""Seeded input generators for the benchmark workloads.

Everything the program under test sees is produced here from the workload
seed: repro/1 model files, CLI argument lists and HTTP request bodies.  The
same seed always gives the same inputs.

Generated published attributes stay at or above ``ATTRIBUTE_FLOOR``:
``finite_difference_attribute_sensitivity`` steps by ``1e-4 * max(|v|, 1)``,
so a failure probability below 1e-4 would be probed at a negative value and
raise ``ProbabilityRangeError`` (see README.md, "Known defects").
"""

from __future__ import annotations

import random

ATTRIBUTE_FLOOR = 1e-4

#: Every fifth state retries the state this many steps back; a fixed
#: distance keeps the sparsity pattern, and with it the factorization
#: cost, the same for every seed.
BACK_EDGE = 20

#: Section 4 golden points (tests/regression/goldens/section4.json).
GOLDEN_LISTS = (1, 2, 5, 17, 50, 123, 400, 1000)


def cyclic_assembly(name: str, states: int, calls: list[int],
                    rates: list[float], seed: int):
    """One composite service ``app`` with ``states`` flow states and
    back edges (retry loops), calling providers ``p0..p{k-1}``; the seed
    decides which states call which provider.

    Provider ``j`` is requested by ``calls[j]`` states, so perturbing its
    ``fp`` attribute changes that many rows of the absorbing chain: few
    callers keep the change under the low-rank crossover (an SMW update
    applies), many callers exceed it (the rank fallback re-factors).
    """
    from repro.model import (
        AnalyticInterface, Assembly, CompositeService, FlowBuilder,
        ServiceRequest, SimpleService,
    )
    from repro.model.parameters import FormalParameter
    from repro.symbolic import Constant, Parameter

    if sum(calls) > states or len(calls) != len(rates):
        raise ValueError("need one rate per provider and enough states")
    if min(rates) < ATTRIBUTE_FLOOR:
        raise ValueError(f"attribute values must be >= {ATTRIBUTE_FLOOR}")
    rng = random.Random(seed)
    owner = [j for j, count in enumerate(calls) for _ in range(count)]
    owner += [len(calls)] * (states - len(owner))  # the filler provider
    rng.shuffle(owner)

    assembly = Assembly(name)
    interface = lambda fp: AnalyticInterface(  # noqa: E731
        formal_parameters=(FormalParameter("n"),), attributes={"fp": fp},
    )
    for j, fp in enumerate([*rates, ATTRIBUTE_FLOOR]):
        assembly.add_service(SimpleService(
            f"p{j}", interface(fp),
            Constant(1.0) - (Constant(1.0) - Parameter("fp")) ** Parameter("n"),
        ))
    builder = FlowBuilder(formals=("n",))
    names = [f"s{i}" for i in range(states)]
    for i, provider in enumerate(owner):
        builder.state(names[i], [ServiceRequest(
            f"p{provider}", actuals={"n": Parameter("n")},
        )])
    builder.transition("Start", names[0], 1)
    for i in range(states):
        forward = names[i + 1] if i + 1 < states else "End"
        if i >= BACK_EDGE and i % 5 == 0:
            back = names[i - BACK_EDGE]
            builder.transition(names[i], forward, 0.9)
            builder.transition(names[i], back, 0.1)
        else:
            builder.transition(names[i], forward, 1)
    assembly.add_service(CompositeService("app", AnalyticInterface(
        formal_parameters=(FormalParameter("n"),)), builder.build()))
    for j in range(len(calls) + 1):
        assembly.bind("app", f"p{j}", f"p{j}")
    return assembly
