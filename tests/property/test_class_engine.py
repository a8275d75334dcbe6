"""Property tests for the completion-class engine (eqs. 4–13 as array ops).

The numeric evaluator computes ``p(i, Fail)`` for all states of one
completion class at once, on ``(rows, n)`` matrices.  Invariants:

- the class engine is bitwise equal to the one-state wrapper called row by
  row (the evaluator and the wrapper cannot drift apart) and to the scalar
  request-by-request loop it replaced;
- it reproduces the paper's closed forms (eqs. 6, 7, 11, 12) over random
  n, k, sharing, masking and groups, exact 0 and 1 included;
- metamorphic, on whole generated models with back edges: setting
  ``shared`` on AND states leaves ``Pfail`` unchanged (eq. 11 ≡ eq. 6),
  and setting it on OR states never lowers ``Pfail`` (eq. 12 ≥ eq. 7).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    ReliabilityEvaluator,
    and_no_sharing,
    and_sharing,
    or_no_sharing,
    or_sharing,
    state_failure_probability,
)
from repro.core.state_failure import completion_class_failure
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
from repro.symbolic import Constant

# exact 0 and 1 drawn often, not only as shrink targets
probabilities = st.one_of(
    st.sampled_from([0.0, 1.0]), st.floats(min_value=0.0, max_value=1.0)
)


@st.composite
def partitions(draw, n):
    """A random partition of ``range(n)`` into groups, in request order."""
    labels = [draw(st.integers(0, n - 1)) for _ in range(n)]
    groups: dict[int, list[int]] = {}
    for index, label in enumerate(labels):
        groups.setdefault(label, []).append(index)
    return tuple(tuple(g) for g in groups.values())


@st.composite
def classes(draw):
    """One completion class: ``(k, shared, groups, partition, internal,
    external, masking)`` with ``(rows, n)`` matrices; ``shared`` and
    ``groups`` spell the dependency model as a state would, ``partition``
    is the same model as the engine takes it."""
    rows = draw(st.integers(1, 5))
    n = draw(st.integers(1, 5))
    k = draw(st.integers(1, n))
    mode = draw(st.sampled_from(["none", "shared", "groups"]))
    shared = mode == "shared" and n >= 2
    groups = draw(partitions(n)) if mode == "groups" else None
    partition = groups or (
        (tuple(range(n)),) if shared else tuple((j,) for j in range(n))
    )

    def matrix():
        return np.array(
            [[draw(probabilities) for _ in range(n)] for _ in range(rows)]
        )

    return k, shared, groups, partition, matrix(), matrix(), matrix()


@given(classes())
@settings(max_examples=300, deadline=None)
def test_class_engine_is_bitwise_the_per_state_wrapper(cls):
    k, shared, groups, partition, internal, external, masking = cls
    rows = completion_class_failure(k, partition, internal, external, masking)
    assert rows.shape == (internal.shape[0],)
    for r in range(internal.shape[0]):
        one = state_failure_probability(
            KOfNCompletion(k), shared, list(internal[r]), list(external[r]),
            list(masking[r]), groups=groups,
        )
        assert rows[r] == one  # bitwise, not approximately


def reference_below(successes, k):
    """``P(#successes < k)``: the scalar dynamic program, on Python floats."""
    dist = [1.0] + [0.0] * (min(k, len(successes) + 1) - 1)
    for p in successes:
        dist = [dist[j] * (1.0 - p) + (dist[j - 1] * p if j > 0 else 0.0)
                for j in range(len(dist))]
    return min(max(sum(dist), 0.0), 1.0)


def reference_state_failure(k, partition, internal, external, masking):
    """One state's ``p(i, Fail)`` computed request by request on Python
    floats, the way the evaluator did before the class engine: condition
    on each shared group's external-failure status, then one
    Poisson-binomial tail per status combination."""
    from itertools import product

    multi = [g for g in partition if len(g) >= 2]
    total = 0.0
    for statuses in product((False, True), repeat=len(multi)):
        weight = 1.0
        successes = [
            1.0 - (1.0 - m) * (1.0 - (1.0 - pi) * (1.0 - pe))
            for pi, pe, m in zip(internal, external, masking)
        ]
        for group, failed in zip(multi, statuses):
            no_ext = 1.0
            for j in group:
                no_ext = no_ext * (1.0 - external[j])
            weight = weight * ((1.0 - no_ext) if failed else no_ext)
            for j in group:
                successes[j] = (masking[j] if failed
                                else 1.0 - (1.0 - masking[j]) * internal[j])
        total = total + weight * reference_below(successes, k)
    return min(max(total, 0.0), 1.0)


@given(classes())
@settings(max_examples=300, deadline=None)
def test_class_engine_is_bitwise_the_scalar_loop(cls):
    k, _, _, partition, internal, external, masking = cls
    rows = completion_class_failure(k, partition, internal, external, masking)
    for r in range(internal.shape[0]):
        assert rows[r] == reference_state_failure(
            k, partition, *(m[r].tolist() for m in (internal, external, masking))
        )


CLOSED_FORMS = {
    # (AND?, shared?) -> closed form
    (True, False): and_no_sharing,
    (False, False): or_no_sharing,
    (True, True): and_sharing,
    (False, True): or_sharing,
}


@given(
    st.integers(1, 6).flatmap(
        lambda n: st.tuples(
            st.lists(st.lists(probabilities, min_size=n, max_size=n),
                     min_size=2, max_size=2),
            st.booleans(), st.integers(1, 4),
        )
    ),
    st.booleans(),
)
@settings(max_examples=400, deadline=None)
def test_class_engine_reproduces_the_closed_forms(drawn, use_and):
    (internal, external), shared, rows = drawn
    n = len(internal)
    k = n if use_and else 1
    partition = (tuple(range(n)),) if shared else tuple((j,) for j in range(n))
    matrix = lambda values: np.tile(values, (rows, 1))  # noqa: E731
    values = completion_class_failure(
        k, partition, matrix(internal), matrix(external), np.zeros((rows, n))
    )
    expected = CLOSED_FORMS[(use_and, shared)](internal, external)
    np.testing.assert_allclose(values, expected, rtol=0, atol=1e-12)


@given(classes())
@settings(max_examples=200, deadline=None)
def test_full_masking_never_fails_and_masking_only_helps(cls):
    k, _, _, partition, internal, external, masking = cls
    unmasked = completion_class_failure(
        k, partition, internal, external, np.zeros_like(masking))
    masked = completion_class_failure(k, partition, internal, external, masking)
    full = completion_class_failure(
        k, partition, internal, external, np.ones_like(masking))
    np.testing.assert_allclose(full, 0.0, atol=1e-12)
    assert np.all(masked <= unmasked + 1e-12)


# -- metamorphic properties on whole models ------------------------------------


def small(upper: float):
    """Exact zero or a value that keeps ``Pfail`` clear of the round-off
    floor, so the identities can be asserted to 1e-12 relative."""
    return st.one_of(st.just(0.0), st.floats(1e-3, upper))


@st.composite
def looping_models(draw):
    """A composite ``app`` whose states each send 1–3 requests to their own
    provider over their own connector, with forward edges and back edges
    (retry loops); returned as a builder taking which completion kinds get
    ``shared`` set."""
    count = draw(st.integers(2, 6))
    states = []
    for i in range(count):
        n = draw(st.integers(1, 3))
        completion = AND if n == 1 else draw(st.sampled_from([AND, OR]))
        internal = [draw(small(0.2)) for _ in range(n)]
        # the last state always loops back, others at random
        looped = i == count - 1 or draw(st.booleans())
        back = draw(st.integers(0, i)) if looped else None
        loop = draw(st.floats(0.05, 0.5)) if back is not None else 0.0
        states.append((completion, internal, back, loop))
    providers = [draw(small(0.3)) for _ in range(count)]
    connectors = [draw(small(0.1)) for _ in range(count)]

    def build(shared_kinds: frozenset) -> Assembly:
        builder = FlowBuilder(formals=())
        names = [f"s{i}" for i in range(count)]
        for i, (completion, internal, _, _) in enumerate(states):
            requests = [
                ServiceRequest(f"slot{i}", internal_failure=Constant(p))
                for p in internal
            ]
            shared = len(requests) >= 2 and completion.kind in shared_kinds
            builder.state(names[i], requests, completion=completion,
                          shared=shared)
        builder.transition("Start", names[0], 1.0)
        for i, (_, _, back, loop) in enumerate(states):
            forward = names[i + 1] if i + 1 < count else "End"
            if back is None:
                builder.transition(names[i], forward, 1.0)
            else:
                builder.transition(names[i], forward, 1.0 - loop)
                builder.transition(names[i], names[back], loop)
        assembly = Assembly("looping")
        assembly.add_service(
            CompositeService("app", AnalyticInterface(), builder.build()))
        for i in range(count):
            assembly.add_services(
                SimpleService(f"p{i}", AnalyticInterface(),
                              Constant(providers[i])),
                SimpleService(f"c{i}", AnalyticInterface(),
                              Constant(connectors[i])),
            )
            assembly.bind("app", f"slot{i}", f"p{i}", connector=f"c{i}")
        return assembly

    return build


def pfail(assembly: Assembly) -> float:
    return ReliabilityEvaluator(assembly).pfail("app")


@given(looping_models())
@settings(max_examples=150, deadline=None)
def test_sharing_on_and_states_leaves_pfail_unchanged(build):
    """Eq. (11) ≡ eq. (6), lifted through eq. (3)."""
    base = pfail(build(frozenset()))
    assert pfail(build(frozenset({"and"}))) == pytest.approx(
        base, rel=1e-12, abs=1e-300
    )


@given(looping_models())
@settings(max_examples=150, deadline=None)
def test_sharing_on_or_states_never_lowers_pfail(build):
    """Eq. (12) ≥ eq. (7), lifted through eq. (3)."""
    base = pfail(build(frozenset()))
    assert pfail(build(frozenset({"or"}))) >= base * (1.0 - 1e-12)
