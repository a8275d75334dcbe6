"""PERF — sparse solver backend vs dense on large synthetic flows.

The ROADMAP's production-scale target is flows far beyond the paper's
hand-sized examples: thousands of states where each state calls a handful
of services (``nnz(Q) << n^2``).  This benchmark measures the solver layer
(:mod:`repro.markov.solvers`) on exactly that shape:

- **headline**: a 5000-state sparse synthetic flow solved through the
  dense path vs the sparse path — the acceptance gate is a >= 5x speedup,
  recorded (with a 10^3..10^4 scaling table) in
  ``benchmarks/results/BENCH_solver.json``;
- **reuse**: re-solving structurally identical chains with different rates
  must hit the structural plan cache and — on the triangular DAG fast
  path — perform **zero** numeric re-factorizations (asserted through the
  module's monotone counters);
- **smoke** (the CI job): at n=2000 the sparse path must already be no
  slower than the dense one.

Run with ``PYTHONPATH=src python -m pytest benchmarks/test_solver_backend.py``.
"""

import time

import numpy as np
import pytest

from repro import observability as obs
from repro.caching import LRUCache
from repro.markov import AbsorbingChainAnalysis, DiscreteTimeMarkovChain
from repro.markov import solvers

from _report import emit_json

pytestmark = pytest.mark.skipif(
    not solvers.scipy_available(), reason="sparse backend requires scipy"
)


def sparse_flow(n: int, seed: int = 0, fan_out: int = 3,
                rates_seed: int | None = None) -> DiscreteTimeMarkovChain:
    """A synthetic n-transient-state sparse flow (forward edges only, so
    the transient graph is a DAG — the composed-usage-profile shape),
    built from its edges as a CSR chain: no dense matrix at any size.

    ``rates_seed`` redraws the transition *values* on the same structural
    pattern, which is what a parameter sweep does to a flow.
    """
    rng = np.random.default_rng(seed)
    # row-major: fan_out forward edges, then End and Fail, per state
    forward = np.arange(n)[:, None] + rng.integers(1, 50, size=(n, fan_out))
    value_rng = rng if rates_seed is None else np.random.default_rng(rates_seed)
    values = np.column_stack([
        value_rng.uniform(0.1, 1.0, (n, fan_out)),
        value_rng.uniform(0.05, 0.3, size=n), value_rng.uniform(0.0, 0.1, size=n),
    ])
    values /= values.sum(axis=1, keepdims=True)  # repeated columns add up
    # forward edges past the last state feed End
    columns = np.column_stack([np.minimum(forward, n), np.full(n, n), np.full(n, n + 1)])
    width = fan_out + 2
    states = tuple(f"s{i}" for i in range(n)) + ("End", "Fail")
    return DiscreteTimeMarkovChain.from_csr(
        states, np.append(np.arange(0, n * width + 1, width), n * width + np.arange(1, 3)),
        np.append(columns.ravel(), [n, n + 1]), np.append(values.ravel(), [1.0, 1.0]),
    )


def _auto_backend(chain) -> str:
    """The backend ``solver="auto"`` resolves to for this chain — from the
    structural plan alone, no numeric solve spent on the label."""
    return solvers.chain_plan(
        chain.csr, chain.absorbing_mask, solver="auto", cache=False
    ).backend


def _solve_time(chain, solver: str, repeats: int = 1) -> tuple[float, float]:
    """(best wall time, Pfail from s0) for a full analysis + absorption."""
    best, pfail = float("inf"), float("nan")
    for _ in range(repeats):
        start = time.perf_counter()
        analysis = AbsorbingChainAnalysis(chain, solver=solver,
                                          solver_cache=False)
        pfail = analysis.absorption_probability("s0", "Fail")
        best = min(best, time.perf_counter() - start)
    return best, pfail


def test_sparse_speedup_and_scaling():
    """The headline gate: >= 5x over dense at n=5000, plus the scaling
    table committed to BENCH_solver.json."""
    table = []
    speedup_at_5000 = None
    for n in (1000, 2000, 5000, 10_000):
        chain = sparse_flow(n)
        sparse_t, sparse_p = _solve_time(chain, "sparse", repeats=3)
        if n <= 5000:
            dense_t, dense_p = _solve_time(chain, "dense")
            assert sparse_p == pytest.approx(dense_p, abs=1e-9)
            speedup = dense_t / sparse_t
            if n == 5000:
                speedup_at_5000 = speedup
        else:
            dense_t, speedup = None, None  # dense deliberately not run
        table.append(
            {
                "states": n,
                # what production (solver="auto") would actually pick at
                # this size — NOT the forced backends being timed
                "backend": _auto_backend(chain),
                "sparse_backend": AbsorbingChainAnalysis(
                    chain, solver="sparse", solver_cache=False
                ).solver_backend,
                "dense_seconds": dense_t,
                "sparse_seconds": sparse_t,
                "speedup": speedup,
                "pfail_s0": sparse_p,
            }
        )

    reuse = _plan_reuse_record()
    emit_json(
        "solver",
        {
            "experiment": "sparse vs dense absorbing solve, synthetic "
                          "sparse flows (fan-out 3, DAG transient graph)",
            "acceptance": "speedup >= 5x at 5000 states; unchanged "
                          "structural fingerprint re-solves perform zero "
                          "re-factorizations",
            "scaling": table,
            "plan_reuse": reuse,
        },
    )
    assert speedup_at_5000 is not None and speedup_at_5000 >= 5.0, (
        f"sparse speedup at 5000 states was only {speedup_at_5000:.1f}x"
    )
    assert reuse["factorizations"] == 0
    assert reuse["plans_built"] == 1


def _plan_reuse_record(n: int = 1500, points: int = 20) -> dict:
    """Sweep-shaped reuse: same structure, varying rates.

    Every point after the first must hit the structural plan cache, and on
    the DAG fast path no point ever performs a numeric factorization.
    """
    cache = LRUCache(max_size=16)
    chains = [
        sparse_flow(n, rates_seed=1000 + k) for k in range(points)
    ]
    obs.reset()
    fingerprints = set()
    for chain in chains:
        analysis = AbsorbingChainAnalysis(
            chain, solver="sparse", solver_cache=cache
        )
        assert analysis.solver_backend == "sparse-tri"
        fingerprints.add(analysis.structural_fingerprint)
    assert len(fingerprints) == 1  # rates changed, structure did not
    return {
        "points": points,
        "states": n,
        "plans_built": obs.registry().counter_value("solver.plans"),
        "factorizations": obs.registry().counter_value(
            "solver.factorizations"
        ),
        "cache_hits": cache.stats.hits,
        "cache_misses": cache.stats.misses,
    }


def test_refactorization_skipped_on_unchanged_fingerprint():
    record = _plan_reuse_record(n=600, points=10)
    assert record["plans_built"] == 1
    assert record["factorizations"] == 0  # triangular path: nothing to factor
    assert record["cache_hits"] == record["points"] - 1


def test_sparse_not_slower_smoke():
    """CI gate: at n=2000 the sparse path must beat the dense one."""
    chain = sparse_flow(2000)
    sparse_t, sparse_p = _solve_time(chain, "sparse", repeats=3)
    dense_t, dense_p = _solve_time(chain, "dense")
    assert sparse_p == pytest.approx(dense_p, abs=1e-9)
    assert sparse_t <= dense_t, (
        f"sparse ({sparse_t:.3f}s) slower than dense ({dense_t:.3f}s) "
        f"at 2000 states"
    )
