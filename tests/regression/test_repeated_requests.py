"""Bitwise pins of the numeric evaluator on flows that repeat requests.

The evaluator resolves, binds and evaluates each distinct request of a
composite service once and gathers the values back to every state that
holds it; these pins were recorded when every request was still handled
on its own, so they hold the two to the same bits.  Three ``Pfail`` pins
and the seed-0 report moved by at most 32 ulps (6.3e-15 relative) when
the augmented chain began to be built from the flow's edges, its rows
renormalized by sums taken in column order rather than over dense rows.
The models come from
:func:`tests.repeated_flows.repeated_request_assembly` (150 states, back
edges, three providers and a connector).  Keys read ``seed/n/m``
(``Pfail`` as ``float.hex``) and ``seed`` (the first 32 hex digits of a
SHA-256 over every state's failure probability, expected visits and
per-request internal and external probabilities at ``n=3, m=5``).

The validation pin is the full text of :func:`validate_assembly` on a
model whose faulty requests recur across many states: every issue is
reported at every state that holds it, in flow order.
"""

import hashlib

import pytest

from repro.core import ReliabilityEvaluator
from repro.dsl import dump_assembly, load_assembly
from repro.errors import ProbabilityRangeError
from repro.model import (
    AnalyticInterface,
    Assembly,
    CompositeService,
    FlowBuilder,
    ServiceRequest,
    SimpleService,
)
from repro.model.connector import SimpleConnector
from repro.model.parameters import FormalParameter
from repro.model.validation import validate_assembly
from repro.symbolic import Constant, Parameter
from tests.repeated_flows import repeated_request_assembly

SEEDS = (0, 1, 2)

PFAIL = {
    "0/3.0/5.0": "0x1.3ff7ddf872b78p-2",
    "0/40.0/2.0": "0x1.9db5c7f5cf5a6p-1",
    "0/1.0/0.0": "0x1.63b6e920620a0p-5",
    "1/3.0/5.0": "0x1.65178a9761d56p-2",
    "1/40.0/2.0": "0x1.a483227fae214p-1",
    "1/1.0/0.0": "0x1.7607456c8d8d0p-5",
    "2/3.0/5.0": "0x1.3ebf354bc89dcp-2",
    "2/40.0/2.0": "0x1.76851b2d6cfdcp-1",
    "2/1.0/0.0": "0x1.200c9621810f0p-5",
}

REPORT = {
    0: "48be96f9bfe9758a763b5bb3a301129b",
    1: "27906b66c806fd132606c1d6aeeee77a",
    2: "caefccbe3ee432079a0159406fd1b974",
}

VALIDATION_LINES = 61
VALIDATION_SHA256 = "a07f7e284a25fac45943d717ea26c736f58b610e067b003249b429fa437fb5b8"
VALIDATION_HEAD = """\
assembly 'faulty': 52 error(s), 8 warning(s)
  [error] service 'app', state 's0', request -> 'p0': actuals missing for provider formals ['n']
  [error] service 'app', state 's0', request -> 'p1': connector 'net' formals ['size'] have no actuals (request override or binding default)
  [warning] service 'app', state 's0', request -> 'p1': actuals ['k'] do not match any provider formal
  [error] service 'app', state 's0', request -> 'p1': connector 'net' formals ['size'] have no actuals (request override or binding default)
  [error] service 'app', state 's0', request -> 'p1': connector 'net' formals ['hops'] have no actuals (request override or binding default)
  [error] service 'app', state 's0', request -> 'p9': service 'app' requires 'p9', but the assembly does not bind it
  [error] service 'app', state 's2', request -> 'p0': actuals missing for provider formals ['n']
  [error] service 'app', state 's3', request -> 'p1': connector 'net' formals ['size'] have no actuals (request override or binding default)"""


def _point(key: str) -> tuple[int, float, float]:
    seed, n, m = key.split("/")
    return int(seed), float(n), float(m)


@pytest.mark.parametrize("key", sorted(PFAIL))
def test_pfail_is_pinned(key):
    seed, n, m = _point(key)
    evaluator = ReliabilityEvaluator(repeated_request_assembly(seed))
    assert evaluator.pfail("app", n=n, m=m).hex() == PFAIL[key]


@pytest.mark.parametrize("seed", SEEDS)
def test_a_loaded_model_keeps_the_pins(seed):
    loaded = load_assembly(dump_assembly(repeated_request_assembly(seed)))
    evaluator = ReliabilityEvaluator(loaded)
    for key, pinned in PFAIL.items():
        if _point(key)[0] == seed:
            _, n, m = _point(key)
            assert evaluator.pfail("app", n=n, m=m).hex() == pinned


@pytest.mark.parametrize("seed", SEEDS)
def test_report_is_pinned(seed):
    report = ReliabilityEvaluator(repeated_request_assembly(seed)).report(
        "app", n=3.0, m=5.0
    )
    digest = hashlib.sha256()
    for state in report.states:
        values = (
            state.failure_probability, state.expected_visits,
            *state.request_internal, *state.request_external,
        )
        digest.update(" ".join(value.hex() for value in values).encode() + b"\n")
    assert digest.hexdigest()[:32] == REPORT[seed]


def faulty_assembly() -> Assembly:
    """Forty states; a request without actuals in every other state, a
    connector call without connector actuals in every third, one with an
    extra actual in every fifth, one overriding a connector actual (and
    missing the other) in every seventh and an unbound target in every
    eleventh."""
    n = Parameter("n")

    def interface(*names):
        return AnalyticInterface(
            formal_parameters=tuple(FormalParameter(name) for name in names)
        )

    assembly = Assembly("faulty")
    assembly.add_service(SimpleService("p0", interface("n"), Constant(1e-3)))
    assembly.add_service(SimpleService("p1", interface("n"), Constant(1e-3)))
    assembly.add_service(SimpleConnector("net", interface("size", "hops"), Constant(0.0)))
    missing = ServiceRequest("p0")
    builder = FlowBuilder(formals=("n",))
    names = [f"s{i}" for i in range(40)]
    for i, name in enumerate(names):
        requests = [missing if i % 2 == 0 else ServiceRequest("p0", actuals={"n": n})]
        if i % 3 == 0:
            requests.append(ServiceRequest("p1", actuals={"n": n}))
        if i % 5 == 0:
            requests.append(ServiceRequest("p1", actuals={"n": n, "k": n}))
        if i % 7 == 0:
            requests.append(ServiceRequest(
                "p1", actuals={"n": n}, connector_actuals={"size": n}
            ))
        if i % 11 == 0:
            requests.append(ServiceRequest("p9", actuals={"n": n}))
        builder.state(name, requests)
    builder.sequence(*names)
    assembly.add_service(CompositeService("app", interface("n"), builder.build()))
    assembly.bind("app", "p0", "p0")
    assembly.bind("app", "p1", "p1", connector="net",
                  connector_actuals={"hops": Constant(1.0)})
    return assembly


def test_validation_text_is_pinned():
    text = str(validate_assembly(faulty_assembly()))
    assert text.startswith(VALIDATION_HEAD + "\n")
    assert len(text.splitlines()) == VALIDATION_LINES
    assert hashlib.sha256(text.encode()).hexdigest() == VALIDATION_SHA256


def test_the_first_offending_request_is_named():
    """Two distinct out-of-range requests, each repeated: the error names
    the first in flow order."""
    assembly = Assembly("bad")
    interface = AnalyticInterface(formal_parameters=(FormalParameter("n"),))
    assembly.add_service(SimpleService("p", interface, Constant(1e-3)))
    first, second = (
        ServiceRequest("p", actuals={"n": Parameter("n")}, internal_failure=value)
        for value in (Constant(1.5), Constant(2.5))
    )
    builder = FlowBuilder(formals=("n",))
    holders = [first, second, first, second]
    for i, request in enumerate(holders):
        builder.state(f"s{i}", [ServiceRequest("p", actuals={"n": Parameter("n")})])
        builder.state(f"t{i}", [request])
    builder.sequence(*(name for i in range(4) for name in (f"s{i}", f"t{i}")))
    assembly.add_service(CompositeService("app", interface, builder.build()))
    assembly.bind("app", "p", "p")
    with pytest.raises(ProbabilityRangeError) as caught:
        ReliabilityEvaluator(assembly).pfail("app", n=1.0)
    assert str(caught.value) == "internal failure probability = 1.5 is outside [0, 1]"
