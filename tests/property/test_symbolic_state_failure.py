"""Property tests for the symbolic ``p(i, Fail)`` (eqs. 4–13 as expressions).

The symbolic derivation takes each state from ``(k, groups)`` through one
function that mirrors the numeric class engine, with the paper's closed
forms as fast paths when no request masks its failures.  Invariants, over
random single states of ``n <= 5`` requests, any valid ``k``, a random
dependency partition and masking either 0 or random:

- the closed form, evaluated at random probabilities, equals
  :func:`~repro.core.state_failure.completion_class_failure` to 1e-12;
- with zero masking, AND gives the same expression under every partition
  (eq. 11 ≡ eq. 6);
- OR with one shared group never fails less than OR without sharing
  (eq. 12 ≥ eq. 7).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.state_failure import completion_class_failure
from repro.core.symbolic_evaluator import _symbolic_state_failure
from repro.symbolic import Constant, Environment, Parameter

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
def states(draw):
    """``(n, k, groups, masked, env)``: one state's shape and a binding of
    its ``i<j>``/``e<j>`` (and, when masked, ``m<j>``) symbols."""
    n = draw(st.integers(1, 5))
    k = draw(st.integers(1, n))
    groups = draw(partitions(n))
    masked = draw(st.booleans())
    names = [f"{kind}{j}" for kind in ("ime" if masked else "ie") for j in range(n)]
    env = {name: draw(probabilities) for name in names}
    return n, k, groups, masked, env


def symbols(n: int, masked: bool):
    internal = [Parameter(f"i{j}") for j in range(n)]
    external = [Parameter(f"e{j}") for j in range(n)]
    masking = [Parameter(f"m{j}") if masked else Constant(0.0) for j in range(n)]
    return internal, external, masking


def column(env: dict, kind: str, n: int) -> np.ndarray:
    return np.array([[env.get(f"{kind}{j}", 0.0) for j in range(n)]])


@given(states())
@settings(max_examples=300, deadline=None)
def test_closed_form_matches_the_class_engine(state):
    n, k, groups, masked, env = state
    expr = _symbolic_state_failure(k, groups, *symbols(n, masked))
    symbolic = float(expr.evaluate(Environment(env)))
    numeric = completion_class_failure(
        k, groups, column(env, "i", n), column(env, "e", n), column(env, "m", n)
    )
    assert abs(symbolic - float(numeric[0])) <= 1e-12


@given(st.integers(1, 5).flatmap(lambda n: partitions(n)))
@settings(max_examples=150, deadline=None)
def test_and_is_sharing_insensitive(groups):
    """Eq. (11) ≡ eq. (6): under zero masking the AND form does not depend
    on the partition, not even in its spelling."""
    n = sum(map(len, groups))
    independent = tuple((j,) for j in range(n))
    shared = (tuple(range(n)),)
    forms = {
        str(_symbolic_state_failure(n, partition, *symbols(n, masked=False)))
        for partition in (groups, independent, shared)
    }
    assert len(forms) == 1


@given(st.integers(2, 5).flatmap(
    lambda n: st.lists(probabilities, min_size=2 * n, max_size=2 * n)
))
@settings(max_examples=300, deadline=None)
def test_or_sharing_never_fails_less(values):
    """Eq. (12) ≥ eq. (7): one shared group only defeats OR redundancy."""
    n = len(values) // 2
    env = Environment(
        {f"i{j}": values[j] for j in range(n)}
        | {f"e{j}": values[n + j] for j in range(n)}
    )
    unshared = _symbolic_state_failure(
        1, tuple((j,) for j in range(n)), *symbols(n, masked=False)
    )
    shared = _symbolic_state_failure(1, (tuple(range(n)),), *symbols(n, masked=False))
    assert float(shared.evaluate(env)) >= float(unshared.evaluate(env)) - 1e-12
