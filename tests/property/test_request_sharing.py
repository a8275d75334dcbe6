"""Property tests: the numeric evaluator's answer does not depend on how
a flow's requests are shared.

The evaluator handles each distinct request of a composite service once
(by content, not by object identity).  A model whose states share the
same :class:`ServiceRequest` objects and one built from distinct but
equal requests must therefore give the same bits, and so must the model
after a JSON round trip (whose loader shares the expression leaves).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ReliabilityEvaluator
from repro.dsl import dump_assembly, load_assembly
from tests.repeated_flows import repeated_request_assembly


def _bits(assembly, n: int, m: int) -> list[str]:
    """``Pfail`` and every per-state, per-request figure of the report."""
    report = ReliabilityEvaluator(assembly).report("app", n=float(n), m=float(m))
    values = [report.pfail]
    for state in report.states:
        values += [state.failure_probability, state.expected_visits,
                   *state.request_internal, *state.request_external]
    return [value.hex() for value in values]


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    states=st.integers(8, 60),
    n=st.integers(0, 50),
    m=st.integers(0, 20),
)
def test_shared_and_equal_requests_give_the_same_bits(seed, states, n, m):
    shared = repeated_request_assembly(seed, states, share=True)
    distinct = repeated_request_assembly(seed, states, share=False)
    expected = _bits(shared, n, m)
    assert _bits(distinct, n, m) == expected
    assert _bits(load_assembly(dump_assembly(distinct)), n, m) == expected
