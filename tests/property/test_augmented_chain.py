"""Differential test of the numeric eq. (3) path against a dense reference.

The evaluator builds the failure-augmented chain from the flow's edge
arrays as a CSR triple and solves ``(I - Q) x = r`` from it.  Here the same
chain is assembled densely, in the test, from the generated probabilities
and state failures: ``P[i, j]`` sums ``(1 - f_i) p_ij`` over the parallel
transitions ``i -> j``, ``P[i, Fail] = f_i``, rows are renormalized (the
chain takes the flow's round-off away), and ``numpy.linalg.solve`` answers
``Pfail = 1 - p*(Start, End)``.  The flows are cyclic and carry parallel
transitions, zero-probability edges, self-loops and rows that miss one by
round-off.  ``size`` is the number of transient states (``Start`` plus the
internal states), so 255 and 256 fall on either side of the sparse
threshold.  The typed errors of the path keep their messages.
"""

import math

import numpy as np
import pytest

from repro.core import ReliabilityEvaluator
from repro.core.failure_structure import AugmentationFrame
from repro.errors import (
    BudgetExceededError,
    InvalidFlowError,
    NotAbsorbingError,
    ProbabilityRangeError,
)
from repro.markov import AbsorbingChainAnalysis, scipy_available
from repro.markov.solvers import SPARSE_THRESHOLD
from repro.model import (
    AnalyticInterface,
    Assembly,
    CompositeService,
    FlowBuilder,
    ServiceRequest,
    SimpleService,
)
from repro.model.parameters import FormalParameter
from repro.runtime import EvaluationBudget
from repro.symbolic import Constant, Environment

SIZES = (3, 150, 255, 256, 600)
SOLVERS = ("auto", "dense") + (("sparse",) if scipy_available() else ())


def generated_flow(size: int, seed: int):
    """``(edges, failures)``: per flow row (0 = ``Start``, ``i`` = state
    ``s{i-1}``) its ``(target row, probability)`` edges, ``size`` = End."""
    rng = np.random.default_rng(seed)
    n = size - 1
    failures = np.where(rng.random(n) < 0.3, 0.0, rng.uniform(1e-4, 0.05, n))
    edges = [[(1, 1.0)]]
    for row in range(1, size):
        targets = [row + 1]  # forward; the last state's feeds End
        if rng.random() < 0.5:
            targets.append(int(rng.integers(1, row + 1)))  # back edge or self-loop
        if rng.random() < 0.2:
            targets.append(row)  # self-loop
        if rng.random() < 0.3:
            targets.append(size)  # straight to End
        if rng.random() < 0.3:
            targets.append(targets[0])  # a parallel transition
        weights = rng.uniform(0.05, 1.0, len(targets))
        weights /= weights.sum()
        if rng.random() < 0.3:
            weights[0] += 3e-13 * rng.choice([-1.0, 1.0])  # off by round-off
        row_edges = list(zip(targets, weights.tolist()))
        if rng.random() < 0.3:
            row_edges.append((int(rng.integers(1, size + 1)), 0.0))  # zero edge
        edges.append(row_edges)
    return edges, failures


def assembly_of(edges, failures) -> Assembly:
    """``app``: one request to the perfect ``p`` per failing state, whose
    internal failure is the state's ``f``."""
    names = [f"s{i}" for i in range(len(failures))]
    label = names + ["End"]
    builder = FlowBuilder(formals=("x",))
    for name, f in zip(names, failures.tolist()):
        builder.state(name, [ServiceRequest("p", internal_failure=Constant(f))]
                      if f > 0.0 else [])
    for row, row_edges in enumerate(edges):
        for target, probability in row_edges:
            builder.transition(
                "Start" if row == 0 else label[row - 1], label[target - 1],
                Constant(probability),
            )
    assembly = Assembly("chain")
    assembly.add_service(SimpleService("p", AnalyticInterface(), Constant(0.0)))
    assembly.add_service(CompositeService(
        "app", AnalyticInterface(formal_parameters=(FormalParameter("x"),)),
        builder.build(),
    ))
    assembly.bind("app", "p", "p")
    return assembly


def reference(edges, failures) -> tuple[np.ndarray, float]:
    """The dense augmented matrix and its ``Pfail``, assembled here (a state
    that loops on itself with probability one absorbs)."""
    size = len(edges)
    end, fail = size, size + 1
    survive = np.concatenate(([1.0], 1.0 - failures))
    matrix = np.zeros((size + 2, size + 2))
    for row, row_edges in enumerate(edges):
        for target, probability in row_edges:
            if probability > 0.0:
                matrix[row, target] += survive[row] * probability
    matrix[1:size, fail] = failures
    matrix[end, end] = matrix[fail, fail] = 1.0
    matrix /= matrix.sum(axis=1, keepdims=True)
    transient = np.flatnonzero(np.diagonal(matrix)[:size] < 1.0 - 1e-9)
    q = matrix[np.ix_(transient, transient)]
    x = np.linalg.solve(np.eye(transient.size) - q, matrix[transient, end])
    return matrix, 1.0 - x[0]


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("seed", (0, 1))
def test_pfail_matches_the_dense_reference(size, seed):
    edges, failures = generated_flow(size, seed)
    assembly = assembly_of(edges, failures)
    matrix, want = reference(edges, failures)
    for solver in SOLVERS:
        got = ReliabilityEvaluator(assembly, solver=solver).pfail("app", x=0.0)
        assert math.isclose(got, want, rel_tol=1e-12), (solver, got, want)
    frame = AugmentationFrame(assembly.service("app").flow, Environment(x=0.0))
    chain = frame.chain(failures)
    np.testing.assert_allclose(chain.matrix, matrix, rtol=0, atol=1e-15)
    backend = AbsorbingChainAnalysis(chain).solver_backend
    dense = size < SPARSE_THRESHOLD or not scipy_available()
    assert backend == ("dense" if dense else "sparse-lu")


@pytest.mark.parametrize("size", (3, 256))
def test_a_row_off_by_more_than_round_off_is_named(size):
    edges, failures = generated_flow(size, 0)
    edges[2] = [(3, 0.25), (size, 0.5)]
    evaluator = ReliabilityEvaluator(assembly_of(edges, failures))
    with pytest.raises(
        InvalidFlowError, match=r"^outgoing probabilities of 's1' sum to 0\.75 "
    ):
        evaluator.pfail("app", x=0.0)


@pytest.mark.parametrize("bad", (1.5, -0.5, float("nan")))
def test_a_transition_outside_the_unit_interval_is_named(bad):
    edges, failures = generated_flow(150, 0)
    edges[3] = [(4, bad), (5, 1.0 - bad)]
    evaluator = ReliabilityEvaluator(assembly_of(edges, failures))
    with pytest.raises(
        InvalidFlowError,
        match=rf"^transition 's2'->'s(3|4)' has probability {bad!r} outside",
    ):
        evaluator.pfail("app", x=0.0)


@pytest.mark.parametrize("bad", (1.5, -0.25, float("nan")))
def test_a_state_failure_outside_the_unit_interval_is_named(bad):
    edges, failures = generated_flow(150, 0)
    frame = AugmentationFrame(
        assembly_of(edges, failures).service("app").flow, Environment(x=0.0)
    )
    failures[41] = bad
    with pytest.raises(ProbabilityRangeError) as info:
        frame.chain(failures)
    assert info.value.what == "failure probability of state 's41'"


@pytest.mark.parametrize("size", (3, 256))
def test_a_trap_is_not_absorbing(size):
    """``s0`` and ``s1`` never fail and only reach each other."""
    edges, failures = generated_flow(size, 0)
    edges[0] = [(1, 0.4), (2, 0.3), (3, 0.3)]  # End stays reachable
    edges[1], edges[2] = [(2, 1.0)], [(1, 1.0)]
    failures[:2] = 0.0
    evaluator = ReliabilityEvaluator(assembly_of(edges, failures), validate=False)
    with pytest.raises(
        NotAbsorbingError,
        match="some transient state cannot reach any absorbing state",
    ):
        evaluator.pfail("app", x=0.0)


@pytest.mark.parametrize("size", (3, 256))
def test_a_state_that_surely_loops_on_itself_absorbs(size):
    """As in any DTMC: the mass it traps never reaches ``End``."""
    edges, failures = generated_flow(size, 0)
    edges[0] = [(1, 0.4), (2, 0.3), (3, 0.3)]
    edges[1], edges[2] = [(1, 1.0)], [(1, 1.0)]
    failures[:2] = 0.0
    assembly = assembly_of(edges, failures)
    got = ReliabilityEvaluator(assembly).pfail("app", x=0.0)
    assert math.isclose(got, reference(edges, failures)[1], rel_tol=1e-12)
    assert got >= 0.7 - 1e-12  # s0 and s1 trap 0.7 of the mass


def test_the_state_budget_counts_the_augmented_chain():
    size = 150
    assembly = assembly_of(*generated_flow(size, 0))
    budget = EvaluationBudget(max_states=size + 1)
    with pytest.raises(BudgetExceededError) as info:
        ReliabilityEvaluator(assembly, budget=budget).pfail("app", x=0.0)
    assert (info.value.resource, info.value.limit, info.value.used) == (
        "states", size + 1, size + 2
    )
    assert str(info.value) == (
        "evaluation budget exceeded during absorbing solve for 'app': "
        "states limit 151 (used 152)"
    )
    budget = EvaluationBudget(max_states=size + 2)
    ReliabilityEvaluator(assembly, budget=budget).pfail("app", x=0.0)
