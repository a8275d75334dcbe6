"""Parallel execution is an implementation detail: results match serial.

Every ``--jobs N`` code path (symbolic sweeps, numeric sweeps, Monte
Carlo trial blocks, fuzz campaigns) must produce output
equal to the ``jobs=1`` path — to 1e-12 for deterministic evaluation,
and bit-for-bit for seeded stochastic runs at a fixed block layout.
"""

import numpy as np
import pytest

from repro.analysis.sweep import sweep_parameter
from repro.engine import PlanCache
from repro.robustness.harness import FuzzHarness
from repro.scenarios import local_assembly, remote_assembly
from repro.simulation import MonteCarloSimulator

GRID = np.linspace(1.0, 1000.0, 37)
FIXED = {"elem": 1.0, "res": 1.0}


class TestSweepEquivalence:
    def test_symbolic_sweep_parallel_matches_serial(self):
        serial = sweep_parameter(
            local_assembly(), "search", "list", GRID, fixed=FIXED, jobs=1
        )
        parallel = sweep_parameter(
            local_assembly(), "search", "list", GRID, fixed=FIXED, jobs=3
        )
        np.testing.assert_allclose(parallel.pfail, serial.pfail, rtol=0, atol=1e-12)

    def test_numeric_sweep_parallel_matches_serial(self):
        serial = sweep_parameter(
            local_assembly(), "search", "list", GRID[:12], fixed=FIXED,
            method="numeric", jobs=1,
        )
        parallel = sweep_parameter(
            local_assembly(), "search", "list", GRID[:12], fixed=FIXED,
            method="numeric", jobs=2,
        )
        np.testing.assert_allclose(parallel.pfail, serial.pfail, rtol=0, atol=1e-12)

    def test_parallel_sweep_reuses_cached_plan(self):
        cache = PlanCache()
        sweep_parameter(
            local_assembly(), "search", "list", GRID, fixed=FIXED, jobs=2,
            cache=cache,
        )
        sweep_parameter(
            local_assembly(), "search", "list", GRID[:10], fixed=FIXED, jobs=2,
            cache=cache,
        )
        assert cache.stats.misses == 1
        assert cache.stats.hits == 1

    def test_remote_assembly_too(self):
        serial = sweep_parameter(
            remote_assembly(), "search", "list", GRID, fixed=FIXED, jobs=1
        )
        parallel = sweep_parameter(
            remote_assembly(), "search", "list", GRID, fixed=FIXED, jobs=4
        )
        np.testing.assert_allclose(parallel.pfail, serial.pfail, rtol=0, atol=1e-12)


class TestMonteCarloEquivalence:
    def test_parallel_estimate_is_deterministic_per_seed_and_jobs(self):
        kwargs = dict(elem=1.0, list=500.0, res=1.0)
        a = MonteCarloSimulator(local_assembly(), seed=42).estimate_pfail(
            "search", 4000, jobs=2, **kwargs
        )
        b = MonteCarloSimulator(local_assembly(), seed=42).estimate_pfail(
            "search", 4000, jobs=2, **kwargs
        )
        assert a.trials == b.trials == 4000
        assert a.failures == b.failures

    def test_parallel_estimate_consistent_with_analytic(self):
        from repro.core.evaluator import ReliabilityEvaluator

        exact = ReliabilityEvaluator(local_assembly()).pfail(
            "search", elem=1.0, list=500.0, res=1.0
        )
        result = MonteCarloSimulator(local_assembly(), seed=7).estimate_pfail(
            "search", 20_000, jobs=2, elem=1.0, list=500.0, res=1.0
        )
        # 3-sigma binomial envelope around the analytic value
        sigma = (exact * (1 - exact) / result.trials) ** 0.5
        assert abs(result.pfail - exact) <= 3 * sigma + 1e-9

    def test_trials_merge_exactly(self):
        result = MonteCarloSimulator(local_assembly(), seed=3).estimate_pfail(
            "search", 4001, jobs=3, elem=1.0, list=500.0, res=1.0
        )
        assert result.trials == 4001


class TestFuzzEquivalence:
    def test_parallel_campaign_matches_serial_classification(self):
        def signature(report):
            return [
                (case.index, case.operator, case.status)
                for case in report.cases
            ]

        serial = FuzzHarness(local_assembly(), seed=11).run(count=12, jobs=1)
        parallel = FuzzHarness(local_assembly(), seed=11).run(count=12, jobs=2)
        assert signature(parallel) == signature(serial)
        assert parallel.ok == serial.ok
