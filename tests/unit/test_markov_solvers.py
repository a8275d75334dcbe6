"""Unit tests for the pluggable linear-solver backends (repro.markov.solvers)."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro import observability as obs
from repro.caching import LRUCache
from repro.errors import EvaluationError, NotAbsorbingError
from repro.markov import AbsorbingChainAnalysis, DiscreteTimeMarkovChain
from repro.markov import solvers
from repro.markov.solvers import (
    SOLVERS,
    SingularSystemError,
    chain_fingerprint,
    chain_plan,
    factorize,
    factorize_chain,
    scipy_available,
    validate_solver,
)

SRC = Path(__file__).resolve().parents[2] / "src"


def counter(name: str) -> int:
    """A counter's value in the active metrics registry (obs.reset() zeroes
    every counter)."""
    return obs.registry().counter_value(name)


needs_scipy = pytest.mark.skipif(
    not scipy_available(), reason="sparse backend requires scipy"
)


def dag_chain(n_transient: int, seed: int = 0) -> DiscreteTimeMarkovChain:
    """A forward-only (DAG) sparse chain: each transient state feeds a few
    later states plus the End/Fail pair."""
    rng = np.random.default_rng(seed)
    states = [f"t{i}" for i in range(n_transient)] + ["End", "Fail"]
    n = len(states)
    matrix = np.zeros((n, n))
    for i in range(n_transient):
        successors = rng.choice(
            np.arange(i + 1, n_transient), size=min(3, n_transient - i - 1),
            replace=False,
        ) if i + 1 < n_transient else np.array([], dtype=int)
        weights = rng.uniform(0.1, 1.0, size=successors.size + 2)
        weights /= weights.sum()
        for j, w in zip(successors, weights[:-2]):
            matrix[i, j] = w
        matrix[i, n_transient] = weights[-2]      # End
        matrix[i, n_transient + 1] = weights[-1]  # Fail
    matrix[n_transient, n_transient] = 1.0
    matrix[n_transient + 1, n_transient + 1] = 1.0
    return DiscreteTimeMarkovChain(states, matrix)


def cyclic_chain() -> DiscreteTimeMarkovChain:
    """A small chain with a transient cycle t0 <-> t1 (escape to End)."""
    states = ["t0", "t1", "End", "Fail"]
    matrix = np.array(
        [
            [0.0, 0.6, 0.3, 0.1],
            [0.5, 0.0, 0.4, 0.1],
            [0.0, 0.0, 1.0, 0.0],
            [0.0, 0.0, 0.0, 1.0],
        ]
    )
    return DiscreteTimeMarkovChain(states, matrix)


def absorbing_mask(chain: DiscreteTimeMarkovChain) -> np.ndarray:
    mask = np.zeros(len(chain.states), dtype=bool)
    mask[[chain.index(s) for s in chain.absorbing_states()]] = True
    return mask


class TestValidateSolver:
    def test_accepts_all_known(self):
        for name in SOLVERS:
            if name == "sparse" and not scipy_available():
                continue
            assert validate_solver(name) == name

    def test_normalizes_case(self):
        assert validate_solver("DENSE") == "dense"

    def test_unknown_raises(self):
        with pytest.raises(EvaluationError, match="unknown solver"):
            validate_solver("banded")

    def test_sparse_without_scipy_raises(self, monkeypatch):
        monkeypatch.setattr(solvers, "_HAVE_SCIPY", False)
        with pytest.raises(EvaluationError, match="requires scipy"):
            validate_solver("sparse")

    def test_auto_and_dense_without_scipy_fine(self, monkeypatch):
        monkeypatch.setattr(solvers, "_HAVE_SCIPY", False)
        assert validate_solver("auto") == "auto"
        assert validate_solver("dense") == "dense"


class TestBackendResolution:
    def test_auto_small_stays_dense(self):
        assert solvers._resolve_backend("auto", 10, 20) == "dense"

    def test_explicit_dense(self):
        assert solvers._resolve_backend("dense", 10_000, 10) == "dense"

    @needs_scipy
    def test_auto_large_sparse_goes_sparse(self):
        m = solvers.SPARSE_THRESHOLD
        assert solvers._resolve_backend("auto", m, 3 * m) == "sparse"

    @needs_scipy
    def test_auto_large_dense_fill_stays_dense(self):
        m = solvers.SPARSE_THRESHOLD
        nnz = int(0.5 * m * m)  # above SPARSE_DENSITY
        assert solvers._resolve_backend("auto", m, nnz) == "dense"

    def test_auto_without_scipy_stays_dense(self, monkeypatch):
        monkeypatch.setattr(solvers, "_HAVE_SCIPY", False)
        m = solvers.SPARSE_THRESHOLD
        assert solvers._resolve_backend("auto", m, 3 * m) == "dense"

    @needs_scipy
    def test_dag_refines_to_triangular(self):
        chain = dag_chain(20)
        plan = chain_plan(
            chain.csr, absorbing_mask(chain), solver="sparse", cache=False
        )
        assert plan.backend == "sparse-tri"
        assert plan.order is not None

    @needs_scipy
    def test_cycle_refines_to_lu(self):
        chain = cyclic_chain()
        plan = chain_plan(
            chain.csr, absorbing_mask(chain), solver="sparse", cache=False
        )
        assert plan.backend == "sparse-lu"
        assert plan.order is None


def pattern(states, matrix) -> tuple:
    """The ``(indptr, indices)`` CSR pattern of a dense chain matrix."""
    return DiscreteTimeMarkovChain(states, matrix).csr[:2]


class TestFingerprint:
    def test_value_independent(self):
        chain = cyclic_chain()
        mask = absorbing_mask(chain)
        other = chain.matrix.copy()
        # rescale the transient rows without changing the pattern
        other[0] = [0.0, 0.5, 0.25, 0.25]
        other[1] = [0.7, 0.0, 0.2, 0.1]
        assert chain_fingerprint(*chain.csr[:2], mask) == chain_fingerprint(
            *pattern(chain.states, other), mask
        )

    def test_pattern_sensitive(self):
        chain = cyclic_chain()
        mask = absorbing_mask(chain)
        other = chain.matrix.copy()
        other[0, 1] = 0.0
        other[0, 2] = 0.9
        assert chain_fingerprint(*chain.csr[:2], mask) != chain_fingerprint(
            *pattern(chain.states, other), mask
        )

    def test_mask_sensitive(self):
        chain = cyclic_chain()
        mask = absorbing_mask(chain)
        flipped = mask.copy()
        flipped[0] = True
        assert chain_fingerprint(*chain.csr[:2], mask) != chain_fingerprint(
            *chain.csr[:2], flipped
        )


class TestTopologicalOrder:
    def test_dag_order_respects_edges(self):
        rows = np.array([0, 0, 1, 2])
        cols = np.array([1, 2, 3, 3])
        order = solvers._topological_order(4, rows, cols)
        position = {int(node): i for i, node in enumerate(order)}
        for r, c in zip(rows, cols):
            assert position[int(r)] < position[int(c)]

    def test_cycle_returns_none(self):
        rows = np.array([0, 1])
        cols = np.array([1, 0])
        assert solvers._topological_order(2, rows, cols) is None

    def test_self_loops_do_not_count_as_cycles(self):
        rows = np.array([0, 0, 1])
        cols = np.array([0, 1, 1])
        order = solvers._topological_order(2, rows, cols)
        assert order is not None
        assert set(map(int, order)) == {0, 1}

    def test_no_edges(self):
        order = solvers._topological_order(3, np.array([], dtype=int),
                                           np.array([], dtype=int))
        assert list(order) == [0, 1, 2]


class TestPlanCache:
    def test_structural_hit_skips_rebuild(self):
        cache = LRUCache(max_size=8)
        chain = cyclic_chain()
        mask = absorbing_mask(chain)
        obs.reset()
        first = chain_plan(chain.csr, mask, solver="dense", cache=cache)
        assert counter("solver.plans") == 1
        rescaled = chain.matrix.copy()
        rescaled[0] = [0.0, 0.5, 0.25, 0.25]
        second = chain_plan(
            DiscreteTimeMarkovChain(chain.states, rescaled).csr, mask,
            solver="dense", cache=cache,
        )
        assert second is first           # same structure -> same plan object
        assert counter("solver.plans") == 1  # nothing was rebuilt
        assert cache.stats.hits >= 1

    def test_cache_false_disables(self):
        chain = cyclic_chain()
        mask = absorbing_mask(chain)
        obs.reset()
        chain_plan(chain.csr, mask, solver="dense", cache=False)
        chain_plan(chain.csr, mask, solver="dense", cache=False)
        assert counter("solver.plans") == 2

    def test_solver_request_is_part_of_the_key(self):
        if not scipy_available():
            pytest.skip("needs both backends")
        cache = LRUCache(max_size=8)
        chain = cyclic_chain()
        mask = absorbing_mask(chain)
        dense = chain_plan(chain.csr, mask, solver="dense", cache=cache)
        sparse = chain_plan(chain.csr, mask, solver="sparse", cache=cache)
        assert dense.backend == "dense"
        assert sparse.backend == "sparse-lu"


class TestFactorizationCounters:
    @needs_scipy
    def test_triangular_path_never_factors(self):
        chain = dag_chain(30)
        mask = absorbing_mask(chain)
        plan = chain_plan(chain.csr, mask, solver="sparse", cache=False)
        assert plan.backend == "sparse-tri"
        obs.reset()
        fact = factorize_chain(chain.csr, plan)
        fact.solve(np.ones(plan.transient.size))
        fact.solve(np.zeros(plan.transient.size))
        assert counter("solver.factorizations") == 0

    @needs_scipy
    def test_sparse_lu_factors_once(self):
        chain = cyclic_chain()
        mask = absorbing_mask(chain)
        plan = chain_plan(chain.csr, mask, solver="sparse", cache=False)
        obs.reset()
        fact = factorize_chain(chain.csr, plan)
        fact.solve(np.ones(2))
        fact.solve(np.ones(2))
        assert counter("solver.factorizations") == 1

    @needs_scipy
    def test_dense_with_scipy_factors_once_and_reuses(self):
        """The first solve is one ``gesv``; the LU is formed at the second
        right-hand side and reused from then on."""
        chain = cyclic_chain()
        mask = absorbing_mask(chain)
        plan = chain_plan(chain.csr, mask, solver="dense", cache=False)
        obs.reset()
        fact = factorize_chain(chain.csr, plan)
        assert fact.reusable
        fact.solve(np.ones(2))
        assert counter("solver.factorizations") == 1
        fact.solve(np.ones(2))
        fact.solve(np.ones(2))
        assert counter("solver.factorizations") == 2

    @needs_scipy
    def test_one_dense_solve_loads_no_scipy(self):
        code = (
            "import sys, numpy as np\n"
            "from repro.markov import solvers\n"
            "fact = solvers.factorize(np.array([[2.0, -1.0], [0.5, 1.0]]))\n"
            "fact.solve(np.ones(2))\n"
            "assert solvers.factorization_count() == 1\n"
            "assert 'scipy' not in sys.modules, 'one solve loaded scipy'\n"
            "fact.solve(np.ones(2))\n"
            "assert 'scipy' in sys.modules\n"
        )
        env = dict(os.environ, PYTHONPATH=str(SRC))
        run = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, timeout=120)
        assert run.returncode == 0, run.stderr


class TestFactorizationCorrectness:
    def reference(self, chain):
        mask = absorbing_mask(chain)
        transient = np.flatnonzero(~mask)
        q = chain.matrix[np.ix_(transient, transient)]
        return np.eye(transient.size) - q

    def check(self, fact, system):
        rng = np.random.default_rng(7)
        rhs = rng.standard_normal(system.shape[0])
        np.testing.assert_allclose(
            fact.solve(rhs), np.linalg.solve(system, rhs), atol=1e-10
        )
        np.testing.assert_allclose(
            fact.solve_transpose(rhs), np.linalg.solve(system.T, rhs),
            atol=1e-10,
        )
        np.testing.assert_allclose(fact.matvec(rhs), system @ rhs, atol=1e-12)
        assert fact.norm1() == pytest.approx(
            np.abs(system).sum(axis=0).max(), abs=1e-12
        )
        exact = np.linalg.cond(system, 1)
        rel = max(1e-12, 16 * exact * np.finfo(float).eps)
        assert fact.m_matrix_condition() == pytest.approx(exact, rel=rel)

    def test_dense(self):
        chain = cyclic_chain()
        plan = chain_plan(chain.csr, absorbing_mask(chain),
                          solver="dense", cache=False)
        self.check(factorize_chain(chain.csr, plan), self.reference(chain))

    @needs_scipy
    def test_sparse_lu(self):
        chain = cyclic_chain()
        plan = chain_plan(chain.csr, absorbing_mask(chain),
                          solver="sparse", cache=False)
        fact = factorize_chain(chain.csr, plan)
        assert fact.method == "sparse-lu"
        self.check(fact, self.reference(chain))

    @needs_scipy
    def test_sparse_triangular(self):
        chain = dag_chain(25, seed=3)
        plan = chain_plan(chain.csr, absorbing_mask(chain),
                          solver="sparse", cache=False)
        fact = factorize_chain(chain.csr, plan)
        assert fact.method == "sparse-tri"
        self.check(fact, self.reference(chain))

    def test_dense_condition_solve_is_no_factorization(self):
        # the guard's transposed solve is a gesv on A^T, not a kept LU
        chain = cyclic_chain()
        plan = chain_plan(chain.csr, absorbing_mask(chain),
                          solver="dense", cache=False)
        obs.reset()
        fact = factorize_chain(chain.csr, plan)
        fact.solve(np.ones(2))
        fact.m_matrix_condition()
        assert counter("solver.factorizations") == 1
        assert counter("solver.condition") == 1


class TestSingularSystems:
    def trapped(self) -> DiscreteTimeMarkovChain:
        """t0 <-> t1 trap: (I - Q) is exactly singular."""
        states = ["t0", "t1", "End"]
        matrix = np.array(
            [[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]
        )
        return DiscreteTimeMarkovChain(states, matrix)

    def test_dense_raises_singular(self):
        chain = self.trapped()
        plan = chain_plan(chain.csr, absorbing_mask(chain),
                          solver="dense", cache=False)
        with pytest.raises(SingularSystemError):
            fact = factorize_chain(chain.csr, plan)
            fact.solve(np.ones(2))  # scipy-less dense defers to solve time

    @needs_scipy
    def test_sparse_raises_singular(self):
        chain = self.trapped()
        plan = chain_plan(chain.csr, absorbing_mask(chain),
                          solver="sparse", cache=False)
        with pytest.raises(SingularSystemError):
            factorize_chain(chain.csr, plan)

    def test_analysis_maps_to_not_absorbing(self):
        for solver in ("dense",) + (("sparse",) if scipy_available() else ()):
            with pytest.raises(NotAbsorbingError):
                AbsorbingChainAnalysis(self.trapped(), solver=solver)


class TestFactorizeGeneric:
    def test_rejects_non_square(self):
        with pytest.raises(EvaluationError, match="square"):
            factorize(np.zeros((2, 3)))

    def test_dense_solve(self):
        a = np.array([[4.0, 1.0], [1.0, 3.0]])
        fact = factorize(a, solver="dense")
        np.testing.assert_allclose(
            fact.solve(np.array([1.0, 2.0])),
            np.linalg.solve(a, [1.0, 2.0]),
        )

    @needs_scipy
    def test_sparse_solve(self):
        a = np.array([[4.0, 1.0], [1.0, 3.0]])
        fact = factorize(a, solver="sparse")
        assert fact.method == "sparse-lu"
        np.testing.assert_allclose(
            fact.solve(np.array([1.0, 2.0])),
            np.linalg.solve(a, [1.0, 2.0]),
        )

    def test_singular_raises(self):
        with pytest.raises(SingularSystemError):
            factorize(np.zeros((2, 2)), solver="dense").solve(np.ones(2))


class TestAnalysisBackends:
    def test_small_auto_is_dense(self):
        analysis = AbsorbingChainAnalysis(cyclic_chain())
        assert analysis.solver_backend == "dense"

    @needs_scipy
    def test_forced_sparse_matches_dense(self):
        chain = dag_chain(40, seed=5)
        dense = AbsorbingChainAnalysis(chain, solver="dense")
        sparse = AbsorbingChainAnalysis(chain, solver="sparse")
        assert sparse.solver_backend == "sparse-tri"
        for state in dense.transient_states:
            assert sparse.absorption_probability(
                state, "End"
            ) == pytest.approx(
                dense.absorption_probability(state, "End"), abs=1e-12
            )
            assert sparse.expected_steps_to_absorption(
                state
            ) == pytest.approx(
                dense.expected_steps_to_absorption(state), rel=1e-10
            )
        assert sparse.expected_visits("t0", "t1") == pytest.approx(
            dense.expected_visits("t0", "t1"), abs=1e-12
        )

    @needs_scipy
    def test_cyclic_forced_sparse_uses_lu(self):
        analysis = AbsorbingChainAnalysis(cyclic_chain(), solver="sparse")
        assert analysis.solver_backend == "sparse-lu"

    def test_fingerprint_stable_across_values(self):
        chain = cyclic_chain()
        rescaled = chain.matrix.copy()
        rescaled[0] = [0.0, 0.5, 0.25, 0.25]
        a = AbsorbingChainAnalysis(chain)
        b = AbsorbingChainAnalysis(
            DiscreteTimeMarkovChain(chain.states, rescaled)
        )
        assert a.structural_fingerprint == b.structural_fingerprint

    def test_no_transient_states(self):
        chain = DiscreteTimeMarkovChain(["a"], np.array([[1.0]]))
        analysis = AbsorbingChainAnalysis(chain)
        assert analysis.solver_backend == "dense"
        assert analysis.structural_fingerprint is None
        assert analysis.absorption_probability("a", "a") == 1.0
