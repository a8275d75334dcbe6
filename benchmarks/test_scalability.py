"""PERF — scalability of the evaluation procedure.

The paper requires prediction "automatic and efficient ... to remain
compliant with the SOC requirement" (section 1).  This benchmark measures
how ``Pfail_Alg`` scales along the two structural axes:

- **depth**: a linear chain of composite services (each requiring the
  next), depth 1..64 — the recursion-level axis of section 4;
- **width**: one composite whose flow has many states with many requests —
  the per-flow Markov-solve axis;
- **flow size**: single absorbing solves on synthetic sparse flows up to
  10^4 states through the pluggable solver backends, with peak-RSS
  tracking (the production-scale axis the sparse backend exists for).

Both the numeric and symbolic back-ends are timed (the numeric-vs-symbolic
ablation of DESIGN.md §5).
"""

import resource
import time

import pytest

from repro.analysis import format_table
from repro.core import ReliabilityEvaluator, SymbolicEvaluator
from repro.model import (
    AnalyticInterface,
    Assembly,
    CompositeService,
    FlowBuilder,
    ServiceRequest,
    SimpleService,
)
from repro.model.parameters import FormalParameter
from repro.symbolic import Constant, Parameter

from _report import emit


def interface():
    return AnalyticInterface(formal_parameters=(FormalParameter("n"),))


def chain_assembly(depth: int) -> Assembly:
    """s0 -> s1 -> ... -> s_depth (simple base), each hop halving n."""
    assembly = Assembly(f"chain-{depth}")
    assembly.add_service(
        SimpleService(
            f"s{depth}", interface(),
            Constant(1.0) - (Constant(1.0) - Constant(1e-6)) ** Parameter("n"),
        )
    )
    for i in range(depth - 1, -1, -1):
        flow = (
            FlowBuilder(formals=("n",))
            .state(
                "call",
                [
                    ServiceRequest(
                        "next",
                        actuals={"n": Parameter("n") * 0.5},
                        internal_failure=Constant(1e-7),
                    )
                ],
            )
            .sequence("call")
            .build()
        )
        assembly.add_service(CompositeService(f"s{i}", interface(), flow))
        assembly.bind(f"s{i}", "next", f"s{i + 1}")
    return assembly


def wide_assembly(states: int, requests_per_state: int) -> Assembly:
    """One composite with `states` sequential states of
    `requests_per_state` requests each, all to distinct providers."""
    assembly = Assembly(f"wide-{states}x{requests_per_state}")
    builder = FlowBuilder(formals=("n",))
    names = []
    for s in range(states):
        requests = []
        for r in range(requests_per_state):
            provider = f"p{s}_{r}"
            assembly.add_service(
                SimpleService(
                    provider, interface(),
                    Constant(1.0)
                    - (Constant(1.0) - Constant(1e-7)) ** Parameter("n"),
                )
            )
            requests.append(
                ServiceRequest(provider, actuals={"n": Parameter("n")})
            )
        name = f"st{s}"
        names.append(name)
        builder.state(name, requests)
    builder.sequence(*names)
    app = CompositeService("app", interface(), builder.build())
    assembly.add_service(app)
    for s in range(states):
        for r in range(requests_per_state):
            assembly.bind("app", f"p{s}_{r}", f"p{s}_{r}")
    return assembly


def _time(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def test_depth_scaling(benchmark):
    benchmark(lambda: ReliabilityEvaluator(chain_assembly(32)).pfail("s0", n=1e6))

    rows = []
    for depth in (1, 4, 16, 64):
        assembly = chain_assembly(depth)
        numeric = _time(
            lambda a=assembly: ReliabilityEvaluator(a).pfail("s0", n=1e6)
        )
        symbolic = _time(
            lambda a=assembly: SymbolicEvaluator(a)
            .pfail_expression("s0")
            .evaluate({"n": 1e6})
        )
        pfail = ReliabilityEvaluator(assembly).pfail("s0", n=1e6)
        rows.append((depth, pfail, numeric * 1e3, symbolic * 1e3))
    text = (
        "PERF/depth — linear service chains (one solve per level)\n\n"
        + format_table(
            ["depth", "Pfail(s0, 1e6)", "numeric ms", "symbolic ms"],
            rows,
            float_format="{:.4g}",
        )
    )
    emit("PERF_DEPTH", text)
    assert all(0.0 <= row[1] <= 1.0 for row in rows)


def test_width_scaling(benchmark):
    benchmark(
        lambda: ReliabilityEvaluator(wide_assembly(16, 4)).pfail("app", n=1e5)
    )

    rows = []
    for states, requests in ((4, 2), (16, 4), (64, 4), (64, 8)):
        assembly = wide_assembly(states, requests)
        numeric = _time(
            lambda a=assembly: ReliabilityEvaluator(a).pfail("app", n=1e5)
        )
        pfail = ReliabilityEvaluator(assembly).pfail("app", n=1e5)
        rows.append((states, requests, states * requests, pfail, numeric * 1e3))
    text = (
        "PERF/width — single flows with many states and requests\n\n"
        + format_table(
            ["states", "req/state", "total requests", "Pfail(app, 1e5)",
             "numeric ms"],
            rows,
            float_format="{:.4g}",
        )
    )
    emit("PERF_WIDTH", text)
    assert all(0.0 <= row[3] <= 1.0 for row in rows)


def test_flow_size_scaling():
    """Single absorbing solves on 10^3..10^4-state sparse flows, with the
    auto-selected backend and peak RSS per solve."""
    from repro.markov import AbsorbingChainAnalysis, scipy_available

    from test_solver_backend import sparse_flow

    if not scipy_available():
        pytest.skip("large-flow scaling needs the sparse backend (scipy)")
    # the solvers import scipy lazily; load it here so the first row times
    # the solve, not the import
    import scipy.linalg  # noqa: F401
    import scipy.sparse.linalg  # noqa: F401

    rows = []
    for states in (1_000, 4_000, 10_000):
        chain = sparse_flow(states)
        start = time.perf_counter()
        analysis = AbsorbingChainAnalysis(chain, solver="auto",
                                          solver_cache=False)
        pfail = analysis.absorption_probability("s0", "Fail")
        elapsed = time.perf_counter() - start
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        rows.append(
            (states, analysis.solver_backend, pfail, elapsed * 1e3, peak_mb)
        )
        assert 0.0 <= pfail <= 1.0
    text = (
        "PERF/flow-size — synthetic sparse flows through the auto solver\n"
        "(peak RSS is cumulative for the process, reported at each size)\n\n"
        + format_table(
            ["states", "backend", "Pfail(s0 -> Fail)", "solve ms",
             "peak RSS MB"],
            rows,
            float_format="{:.4g}",
        )
    )
    emit("PERF_FLOWSIZE", text)
    assert all(row[1].startswith("sparse") for row in rows)
