"""BatchEngine semantics: ordering, error isolation, budgets, stats."""

import pytest

from repro.core.evaluator import ReliabilityEvaluator
from repro.engine import BatchEngine, BatchRequest, PlanCache, resolve_jobs, split_evenly
from repro.errors import BudgetExceededError, EvaluationError, ReproError
from repro.runtime import EvaluationBudget
from repro.scenarios import local_assembly, recursive_assembly, remote_assembly

POINTS = [{"elem": 1.0, "list": float(v), "res": 1.0} for v in (1, 100, 500, 1000)]


class TestHelpers:
    def test_resolve_jobs(self):
        import os
        import warnings

        cores = os.cpu_count() or 1
        assert resolve_jobs(None) == 1
        assert resolve_jobs(1) == 1
        assert resolve_jobs(0) == cores  # all cores, no warning
        # an explicit in-range request passes through untouched
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert resolve_jobs(cores) == cores
        # oversubscription clamps to the core count and warns
        from repro.engine import parallel

        parallel.reset_clamp_warning()
        with pytest.warns(RuntimeWarning, match="clamping"):
            assert resolve_jobs(cores + 5) == cores
        with pytest.raises(EvaluationError):
            resolve_jobs(-2)

    def test_resolve_jobs_warns_once_per_process(self):
        import os
        import warnings

        from repro.engine import parallel

        cores = os.cpu_count() or 1
        parallel.reset_clamp_warning()
        with pytest.warns(RuntimeWarning, match="clamping"):
            assert resolve_jobs(cores + 5) == cores
        # the second oversubscribed call still clamps, silently
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert resolve_jobs(cores + 9) == cores

    def test_clamp_warning_suppressed_across_process_boundary(self):
        """The once-flag travels through the environment: a child process
        (e.g. a restarted supervisor pool's fresh worker) that imports the
        module after the parent warned must not re-emit."""
        import os
        import warnings

        from repro.engine import parallel

        cores = os.cpu_count() or 1
        parallel.reset_clamp_warning()
        try:
            with pytest.warns(RuntimeWarning, match="clamping"):
                resolve_jobs(cores + 5)
            assert os.environ[parallel._CLAMP_WARNED_ENV] == "1"
            # simulate the child's fresh import: re-seed the flag the way
            # module import does, then check an oversubscribed call stays
            # silent
            parallel._clamp_warning_emitted = (
                os.environ.get(parallel._CLAMP_WARNED_ENV) == "1"
            )
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert resolve_jobs(cores + 9) == cores
        finally:
            parallel.reset_clamp_warning()

    def test_reset_clamp_warning_rearms(self):
        import os

        from repro.engine import parallel

        cores = os.cpu_count() or 1
        parallel.reset_clamp_warning()
        with pytest.warns(RuntimeWarning, match="clamping"):
            resolve_jobs(cores + 5)
        parallel.reset_clamp_warning()
        assert parallel._CLAMP_WARNED_ENV not in os.environ
        with pytest.warns(RuntimeWarning, match="clamping"):
            resolve_jobs(cores + 5)
        parallel.reset_clamp_warning()

    def test_resolve_jobs_records_gauge(self):
        from repro import observability as obs

        obs.reset()
        obs.enable()
        try:
            resolve_jobs(1)
            snapshot = obs.registry().snapshot()
            assert snapshot["gauges"]["engine.jobs.resolved"] == 1
        finally:
            obs.reset()

    def test_split_evenly_contiguous_and_complete(self):
        items = list(range(10))
        chunks = split_evenly(items, 3)
        assert [len(c) for c in chunks] == [4, 3, 3]
        assert [x for chunk in chunks for x in chunk] == items

    def test_split_evenly_never_empty(self):
        assert split_evenly([1, 2], 5) == [[1], [2]]

    def test_split_evenly_of_nothing_is_no_chunks(self):
        assert split_evenly([], 3) == []


class TestEvaluate:
    def test_matches_recursive_evaluator(self):
        engine = BatchEngine()
        result = engine.evaluate(local_assembly(), "search", POINTS)
        assert result.ok and len(result) == len(POINTS)
        evaluator = ReliabilityEvaluator(local_assembly())
        for entry, point in zip(result, POINTS):
            assert entry.pfail == pytest.approx(
                evaluator.pfail("search", **point), abs=1e-15
            )
            assert entry.backend == "symbolic"
            assert entry.reliability == pytest.approx(1.0 - entry.pfail)

    def test_labels_and_order_preserved(self):
        engine = BatchEngine()
        labels = [f"p{i}" for i in range(len(POINTS))]
        result = engine.evaluate(local_assembly(), "search", POINTS, labels=labels)
        assert [e.label for e in result] == labels
        assert [e.index for e in result] == list(range(len(POINTS)))

    def test_label_count_mismatch_is_typed(self):
        with pytest.raises(EvaluationError):
            BatchEngine().evaluate(local_assembly(), "search", POINTS, labels=["x"])

    def test_best_picks_lowest_pfail(self):
        result = BatchEngine().evaluate(local_assembly(), "search", POINTS)
        best = result.best()
        assert best.actuals["list"] == 1.0  # smallest workload wins


class TestMultiModel:
    def test_heterogeneous_batch_shares_plans(self):
        engine = BatchEngine(cache=PlanCache())
        local, remote = local_assembly(), remote_assembly()
        requests = [
            BatchRequest(a, "search", p, label=a.name)
            for a in (local, remote)
            for p in POINTS
        ]
        result = engine.run(requests)
        assert result.ok
        assert result.stats.entries == 8
        assert result.stats.plans == 2
        assert result.stats.compilations == 2
        # rerunning is all cache hits, zero compilations
        again = engine.run(requests)
        assert again.stats.compilations == 0
        assert again.stats.cache_hits == 2
        assert again.pfails() == result.pfails()

    def test_cyclic_model_served_by_robust_backend(self):
        result = BatchEngine().evaluate(
            recursive_assembly(), "A", [{"size": 1.0}, {"size": 2.0}]
        )
        assert result.ok
        assert all(e.backend == "robust" for e in result)


class TestErrorIsolation:
    def test_bad_point_fails_alone(self):
        points = [dict(POINTS[0]), {"elem": 1.0, "list": float("nan"), "res": 1.0},
                  dict(POINTS[2])]
        result = BatchEngine().evaluate(local_assembly(), "search", points)
        assert not result.ok
        assert len(result.failures) == 1
        failed = result.failures[0]
        assert failed.index == 1 and isinstance(failed.error, ReproError)
        assert result.entries[0].ok and result.entries[2].ok

    def test_uncompilable_model_fails_per_entry_not_globally(self):
        class Broken:
            name = "broken"

            def service(self, name):
                raise EvaluationError("no such service")

        requests = [
            BatchRequest(Broken(), "search", POINTS[0]),
            BatchRequest(local_assembly(), "search", POINTS[0]),
        ]
        result = BatchEngine().run(requests)
        assert not result.entries[0].ok
        assert result.entries[1].ok

    def test_pfails_uses_none_for_failures(self):
        points = [dict(POINTS[0]), {"elem": 1.0, "list": float("nan"), "res": 1.0}]
        result = BatchEngine().evaluate(local_assembly(), "search", points)
        values = result.pfails()
        assert values[0] is not None and values[1] is None


class TestBudget:
    def test_expired_deadline_is_typed(self):
        budget = EvaluationBudget(deadline=0.0)
        engine = BatchEngine(budget=budget)
        result = engine.evaluate(local_assembly(), "search", POINTS)
        assert not result.ok
        assert all(
            isinstance(e.error, BudgetExceededError) for e in result.failures
        ) or not result.entries  # compilation itself may trip first

    def test_generous_deadline_passes(self):
        engine = BatchEngine(budget=EvaluationBudget(deadline=60.0))
        assert engine.evaluate(local_assembly(), "search", POINTS).ok


class TestParallel:
    def test_process_pool_matches_serial_exactly(self):
        serial = BatchEngine(jobs=1).evaluate(local_assembly(), "search", POINTS)
        parallel = BatchEngine(jobs=2, mode="process").evaluate(
            local_assembly(), "search", POINTS
        )
        assert parallel.ok
        assert parallel.pfails() == serial.pfails()

    def test_thread_mode_rejected(self):
        # process pools are the only pools
        with pytest.raises(EvaluationError):
            BatchEngine(jobs=2, mode="thread")

    def test_serial_mode_rejected(self):
        # jobs=1 is the serial path; "process" is the only mode
        with pytest.raises(EvaluationError):
            BatchEngine(jobs=2, mode="serial")

    def test_parallel_error_isolation_survives_pickling(self):
        points = [dict(POINTS[0]), {"elem": 1.0, "list": float("nan"), "res": 1.0},
                  dict(POINTS[2])]
        result = BatchEngine(jobs=2).evaluate(local_assembly(), "search", points)
        assert len(result.failures) == 1
        assert isinstance(result.failures[0].error, ReproError)

    def test_unknown_mode_rejected(self):
        with pytest.raises(EvaluationError):
            BatchEngine(mode="fibers")
