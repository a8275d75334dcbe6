"""Unit tests for :mod:`repro.observability` — metrics, tracing, hooks,
facade, and the cross-process merge paths the worker pool relies on."""

import ast
import json
import os
import threading
from fnmatch import fnmatchcase
from pathlib import Path

import pytest

from repro import observability as obs
from repro.observability import (
    Counter,
    Gauge,
    Histogram,
    InMemorySink,
    JsonlSink,
    MetricsRegistry,
    SummarySink,
    Tracer,
)
from repro.observability.tracing import NO_SPAN


@pytest.fixture(autouse=True)
def _pristine_observability():
    obs.reset()
    yield
    obs.reset()


# -- metrics primitives -----------------------------------------------------


class TestCounter:
    def test_monotone_increment(self):
        counter = Counter()
        counter.inc()
        counter.inc(5)
        assert counter.value == 6

    def test_negative_increment_rejected(self):
        counter = Counter()
        with pytest.raises(ValueError):
            counter.inc(-1)
        assert counter.value == 0

    def test_thread_safety(self):
        counter = Counter()
        threads = [
            threading.Thread(
                target=lambda: [counter.inc() for _ in range(1_000)]
            )
            for _ in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert counter.value == 8_000


class TestGauge:
    def test_set_and_add(self):
        gauge = Gauge()
        gauge.set(3.5)
        gauge.add(1.5)
        assert gauge.value == 5.0


class TestHistogram:
    def test_exact_moments(self):
        hist = Histogram("t")
        for v in (1.0, 2.0, 3.0, 4.0):
            hist.observe(v)
        snap = hist.snapshot()
        assert snap["count"] == 4
        assert snap["sum"] == 10.0
        assert snap["min"] == 1.0
        assert snap["max"] == 4.0
        assert snap["mean"] == 2.5

    def test_empty_snapshot(self):
        assert Histogram("t").snapshot() == {"count": 0, "sum": 0.0}

    def test_reservoir_is_bounded(self):
        hist = Histogram("t", max_samples=16)
        for v in range(1_000):
            hist.observe(float(v))
        snap = hist.snapshot()
        assert snap["count"] == 1_000
        assert snap["samples_kept"] == 16
        assert snap["min"] == 0.0 and snap["max"] == 999.0

    def test_reservoir_deterministic_per_name(self):
        a, b = Histogram("same"), Histogram("same")
        for v in range(2_000):
            a.observe(float(v))
            b.observe(float(v))
        assert a.snapshot() == b.snapshot()

    def test_quantile(self):
        hist = Histogram("t")
        for v in range(101):
            hist.observe(float(v))
        assert hist.quantile(0.0) == 0.0
        assert hist.quantile(1.0) == 100.0
        assert 40.0 <= hist.quantile(0.5) <= 60.0


class TestMetricsRegistry:
    def test_get_or_create_identity(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert registry.gauge("g") is registry.gauge("g")
        assert registry.histogram("h") is registry.histogram("h")
        assert len(registry) == 3

    def test_snapshot_schema_and_json(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(2)
        registry.gauge("g").set(1.5)
        registry.histogram("h").observe(0.25)
        snap = registry.snapshot()
        assert snap["schema"] == "repro/metrics/1"
        assert snap["counters"] == {"c": 2}
        assert snap["gauges"] == {"g": 1.5}
        assert snap["histograms"]["h"]["count"] == 1
        assert json.loads(registry.to_json()) == snap

    def test_merge_adds_counters_overwrites_gauges(self):
        parent, worker = MetricsRegistry(), MetricsRegistry()
        parent.counter("c").inc(3)
        worker.counter("c").inc(4)
        worker.gauge("g").set(9.0)
        worker.histogram("h").observe(1.0)
        worker.histogram("h").observe(3.0)
        parent.merge(worker.snapshot())
        snap = parent.snapshot()
        assert snap["counters"]["c"] == 7
        assert snap["gauges"]["g"] == 9.0
        assert snap["histograms"]["h"]["count"] == 2
        assert snap["histograms"]["h"]["sum"] == 4.0

    def test_merge_histograms_from_two_workers(self):
        parent = MetricsRegistry()
        for low, high in ((1.0, 2.0), (10.0, 20.0)):
            worker = MetricsRegistry()
            worker.histogram("h").observe(low)
            worker.histogram("h").observe(high)
            parent.merge(worker.snapshot())
        merged = parent.snapshot()["histograms"]["h"]
        assert merged["count"] == 4
        assert merged["min"] == 1.0 and merged["max"] == 20.0
        assert merged["sum"] == 33.0


# -- tracing ----------------------------------------------------------------


class TestTracer:
    def test_nesting_sets_parent_ids(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            assert tracer.current() is outer
            with tracer.span("inner") as inner:
                assert inner.parent_id == outer.span_id
        assert outer.parent_id is None
        assert [s.name for s in tracer.finished] == ["inner", "outer"]
        assert all(s.status == "ok" for s in tracer.finished)
        assert tracer.current() is None

    def test_error_span_records_exception(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("work"):
                raise RuntimeError("boom")
        (span,) = tracer.finished
        assert span.status == "error"
        assert span.error == "RuntimeError: boom"

    def test_tags_at_open_and_set_tag(self):
        tracer = Tracer()
        with tracer.span("work", phase="a") as span:
            span.set_tag(result="ok", phase="b")
        assert tracer.finished[0].tags == {"phase": "b", "result": "ok"}

    def test_bounded_retention_counts_drops(self):
        tracer = Tracer(max_spans=2)
        for i in range(5):
            with tracer.span(f"s{i}"):
                pass
        assert len(tracer.finished) == 2
        assert tracer.dropped == 3

    def test_export_round_trips_through_dicts(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner", k=1):
                pass
        records = tracer.export()
        assert {r["name"] for r in records} == {"inner", "outer"}
        assert all("wall" in r and "span_id" in r for r in records)

    def test_merge_reparents_worker_roots(self):
        worker = Tracer()
        with worker.span("worker.outer"):
            with worker.span("worker.inner"):
                pass
        records = worker.export()

        parent = Tracer()
        with parent.span("dispatch") as dispatch:
            adopted = parent.merge(records)
        assert adopted == 2
        by_name = {s.name: s for s in parent.finished}
        # the worker's root now hangs off the dispatching span ...
        assert by_name["worker.outer"].parent_id == dispatch.span_id
        # ... while intra-worker nesting is preserved
        assert (
            by_name["worker.inner"].parent_id
            == by_name["worker.outer"].span_id
        )

    def test_merge_without_open_span_keeps_roots(self):
        worker = Tracer()
        with worker.span("w"):
            pass
        parent = Tracer()
        parent.merge(worker.export())
        assert parent.finished[0].parent_id is None

    def test_merge_replays_adopted_spans_to_hooks(self):
        worker = Tracer()
        with worker.span("w.outer"), worker.span("w.inner"):
            pass
        sink = InMemorySink()
        parent = Tracer(hooks=[sink])
        with parent.span("dispatch"):
            parent.merge(worker.export())
        assert [s.name for s in sink.spans] == [
            "w.inner", "w.outer", "dispatch"
        ]
        assert sink.open_spans == 0

    def test_span_ids_unique_and_pid_prefixed(self):
        import os

        tracer = Tracer()
        with tracer.span("a"), tracer.span("b"):
            pass
        ids = [s.span_id for s in tracer.finished]
        assert len(set(ids)) == 2
        assert all(i.startswith(f"{os.getpid()}-") for i in ids)


# -- hooks ------------------------------------------------------------------


class TestHooks:
    def test_in_memory_sink_balance(self):
        sink = InMemorySink()
        tracer = Tracer(hooks=[sink])
        with tracer.span("a"):
            assert sink.open_spans == 1
            with tracer.span("b"):
                pass
        assert sink.open_spans == 0
        assert [s.name for s in sink.spans] == ["b", "a"]

    def test_jsonl_sink_writes_one_line_per_span(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        sink = JsonlSink(str(path))
        tracer = Tracer(hooks=[sink])
        with tracer.span("a", k=1):
            pass
        with tracer.span("b"):
            pass
        sink.close()
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert [r["name"] for r in lines] == ["a", "b"]
        assert lines[0]["tags"] == {"k": 1}
        assert sink.write_errors == 0

    def test_jsonl_sink_swallows_io_errors(self):
        sink = JsonlSink("/nonexistent-dir/trace.jsonl")
        tracer = Tracer(hooks=[sink])
        with tracer.span("a"):
            pass
        assert sink.write_errors == 1

    def test_summary_sink_table(self):
        sink = SummarySink()
        tracer = Tracer(hooks=[sink])
        with tracer.span("work"):
            pass
        with pytest.raises(ValueError):
            with tracer.span("work"):
                raise ValueError("x")
        row = sink.rows["work"]
        assert row["count"] == 2 and row["errors"] == 1
        assert "work" in sink.render()

    def test_summary_sink_merges_exported_records(self):
        tracer = Tracer()
        with tracer.span("remote"):
            pass
        sink = SummarySink()
        sink.merge_records(tracer.export())
        assert sink.rows["remote"]["count"] == 1

    def test_empty_summary_renders(self):
        assert "no spans" in SummarySink().render()


# -- the facade -------------------------------------------------------------


class TestFacade:
    def test_disabled_helpers_record_nothing(self):
        """Gauges, histograms and spans stay off while disabled; counters
        are the one registry that always counts."""
        assert not obs.enabled()
        obs.gauge("g", 1.0)
        obs.observe("h", 1.0)
        assert obs.span("s") is NO_SPAN
        assert len(obs.registry()) == 0
        assert obs.tracer().finished == []
        obs.count("c")
        assert obs.registry().snapshot()["counters"] == {"c": 1}

    def test_no_span_is_inert_context_manager(self):
        with obs.span("anything") as span:
            span.set_tag(whatever=1)
        assert span is NO_SPAN

    def test_enabled_helpers_record(self):
        obs.enable()
        obs.count("c", 2)
        obs.gauge("g", 4.5)
        obs.observe("h", 0.5)
        with obs.span("s", k=1):
            pass
        snap = obs.registry().snapshot()
        assert snap["counters"] == {"c": 2}
        assert snap["gauges"] == {"g": 4.5}
        assert obs.tracer().finished[0].name == "s"

    def test_enable_is_idempotent_and_appends_hooks(self):
        sink = InMemorySink()
        registry, tracer = obs.enable(hooks=[sink])
        registry2, tracer2 = obs.enable(hooks=[sink])
        assert registry is registry2 and tracer is tracer2
        assert tracer.hooks.count(sink) == 1

    def test_disable_keeps_data_readable(self):
        obs.enable()
        obs.count("c")
        obs.disable()
        assert not obs.enabled()
        assert obs.registry().snapshot()["counters"] == {"c": 1}
        obs.count("c")  # counters keep counting
        obs.gauge("g", 1.0)  # no-op now
        snap = obs.registry().snapshot()
        assert snap["counters"] == {"c": 2} and snap["gauges"] == {}

    def test_counter_value_reads_without_creating(self):
        assert obs.registry().counter_value("never.counted") == 0
        assert obs.registry().snapshot()["counters"] == {}
        obs.count("c", 3)
        assert obs.registry().counter_value("c") == 3

    def test_reset_forgets_everything(self):
        obs.enable()
        obs.count("c")
        obs.reset()
        assert not obs.enabled()
        assert len(obs.registry()) == 0


# -- counters count with collection off ------------------------------------


class TestCountersAlwaysCount:
    def test_numeric_pfail_counts_with_collection_off(self, local):
        from repro.core import ReliabilityEvaluator

        assert not obs.enabled()
        ReliabilityEvaluator(local).pfail("search", elem=1, list=500, res=1)
        snap = obs.registry().snapshot()
        assert snap["counters"]["solver.factorizations"] >= 1
        assert snap["gauges"] == {} and snap["histograms"] == {}
        assert obs.tracer().finished == []

    def test_kept_count_functions_read_the_registry(self, local):
        from repro.core import ReliabilityEvaluator
        from repro.engine import fused_counts
        from repro.markov.solvers import factorization_count, plan_count

        assert (plan_count(), factorization_count()) == (0, 0)
        assert fused_counts() == {"groups": 0, "entries": 0, "fallbacks": 0}
        assert obs.registry().snapshot()["counters"] == {}  # reads create nothing
        ReliabilityEvaluator(local).pfail("search", elem=1, list=500, res=1)
        counters = obs.registry().snapshot()["counters"]
        assert plan_count() == counters.get("solver.plans", 0)  # cache may hit
        assert factorization_count() == counters["solver.factorizations"] >= 1


class TestSolverSpan:
    def test_one_span_per_absorbing_solve(self, local):
        from repro.core import ReliabilityEvaluator

        obs.enable()
        evaluator = ReliabilityEvaluator(local)
        evaluator.pfail("search", elem=1, list=500, res=1)
        spans = [s for s in obs.tracer().finished if s.name == "solver.solve"]
        assert len(spans) == evaluator.solve_count
        assert obs.registry().counter_value("solver.condition") == len(spans)
        for span in spans:
            assert span.status == "ok"
            assert set(span.tags) == {"backend", "n", "condition"}
            assert span.tags["backend"] == "dense"
            assert span.tags["n"] >= 1 and 1.0 <= span.tags["condition"] < 1e12

    def test_refused_solve_is_an_error_span_with_its_condition(self):
        import numpy as np

        from repro.errors import NumericalInstabilityError
        from repro.markov import AbsorbingChainAnalysis, DiscreteTimeMarkovChain

        escape = 1e-15
        chain = DiscreteTimeMarkovChain(["t0", "t1", "End"], np.array([
            [0.0, 1.0, 0.0], [1.0 - escape, 0.0, escape], [0.0, 0.0, 1.0],
        ]))
        obs.enable()
        with pytest.raises(NumericalInstabilityError):
            AbsorbingChainAnalysis(chain, solver="dense")
        (span,) = obs.tracer().finished
        assert (span.name, span.status) == ("solver.solve", "error")
        assert span.tags["n"] == 2 and span.tags["condition"] > 1e12

    @pytest.mark.parametrize("module, tolerance", [
        ("repro.runtime.guards", "RESIDUAL_TOL"),
        ("repro.markov.absorbing", "DRIFT_TOL"),
    ])
    def test_residual_and_drift_refusals_are_error_spans(
        self, monkeypatch, module, tolerance
    ):
        import importlib

        import numpy as np

        from repro.errors import NumericalInstabilityError
        from repro.markov import AbsorbingChainAnalysis, DiscreteTimeMarkovChain

        # A negative tolerance refuses a healthy solve at that check alone.
        monkeypatch.setattr(importlib.import_module(module), tolerance, -1.0)
        chain = DiscreteTimeMarkovChain(["t", "End", "Fail"], np.array([
            [0.5, 0.3, 0.2], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0],
        ]))
        obs.enable()
        with pytest.raises(NumericalInstabilityError):
            AbsorbingChainAnalysis(chain, solver="dense")
        (span,) = obs.tracer().finished
        assert (span.name, span.status) == ("solver.solve", "error")
        assert span.tags["n"] == 1 and span.tags["condition"] == 1.0


# -- every emitted metric name is documented --------------------------------


ROOT = Path(__file__).resolve().parents[2]


def _emitted_names():
    """``(kind, name, file:line)`` of every literal name passed to
    ``obs.count``, ``obs.gauge`` or ``obs.observe`` under ``src/``; an
    f-string's replacement fields become ``*``."""
    kinds = {"count": "counters", "gauge": "gauges", "observe": "histograms"}
    for path in sorted((ROOT / "src").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "obs"
                and node.func.attr in kinds
                and node.args
            ):
                continue
            arg = node.args[0]
            if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
                name = arg.value
            elif isinstance(arg, ast.JoinedStr):
                name = "".join(
                    part.value if isinstance(part, ast.Constant) else "*"
                    for part in arg.values
                )
            else:
                continue
            yield kinds[node.func.attr], name, f"{path.name}:{node.lineno}"


class TestMetricNames:
    def test_every_emitted_name_is_in_the_schema(self):
        schema = json.loads(
            (ROOT / "tools" / "metrics_schema.json").read_text()
        )["x-well-known-names"]
        emitted = list(_emitted_names())
        assert len(emitted) > 50  # the scan found the instrumentation
        missing = [
            (kind, name, where)
            for kind, name, where in emitted
            # a listed pattern covers the name, or (for an f-string family)
            # the family covers a listed name
            if not any(fnmatchcase(name, p) or fnmatchcase(p, name)
                       for p in schema[kind])
        ]
        assert missing == []


# -- worker payload shipping (the cross-process join) -----------------------


class TestWorkerObservation:
    def test_worker_scope_ships_and_parent_merges(self):
        from repro.engine.parallel import (
            _begin_worker_observation,
            _ship_worker_observation,
            unpack_worker_payload,
        )

        # "worker process": the payload names another dispatching pid
        owned = _begin_worker_observation(
            {"observe": os.getpid() + 1, "dispatched_at": 0.0}
        )
        assert owned
        obs.count("cache.plan.hits", 3)
        with obs.span("worker.work"):
            pass
        wrapped = _ship_worker_observation(["r1", "r2"], owned)
        assert set(wrapped) == {"results", "metrics", "spans"}
        # shipping resets the worker scope for the next payload
        assert len(obs.registry()) == 0

        # "parent process": merge into an enabled scope
        obs.enable()
        with obs.span("dispatch"):
            results = unpack_worker_payload(wrapped)
        assert results == ["r1", "r2"]
        snap = obs.registry().snapshot()
        assert snap["counters"]["cache.plan.hits"] == 3
        assert "batch.queue.seconds" in snap["histograms"]
        assert "worker.work" in {s.name for s in obs.tracer().finished}

    def test_worker_scope_not_started_without_flag(self):
        from repro.engine.parallel import _begin_worker_observation

        assert not _begin_worker_observation({})
        assert not _begin_worker_observation({"observe": False})
        assert not _begin_worker_observation({"observe": None})
        assert not obs.enabled()

    def test_observe_token_is_the_dispatching_pid(self):
        from repro.engine.parallel import observe_token

        assert observe_token() is None
        obs.enable()
        assert observe_token() == os.getpid()

    def test_forked_worker_owns_a_scope_despite_inherited_flag(self):
        from repro.engine.parallel import _begin_worker_observation

        # a forked worker inherits the parent's enabled flag and its data
        obs.enable()
        obs.count("inherited.from.parent")
        owned = _begin_worker_observation({"observe": os.getpid() + 1})
        assert owned
        assert obs.enabled()
        assert obs.registry().snapshot()["counters"] == {}

    def test_inline_payload_keeps_parent_scope(self):
        from repro.engine.parallel import (
            _begin_worker_observation,
            _ship_worker_observation,
            observe_token,
        )

        obs.enable()
        obs.count("pre.existing")
        # a payload run by the process that dispatched it (the supervisor's
        # inline mode): no private scope, results pass through unwrapped,
        # parent data survives
        owned = _begin_worker_observation({"observe": observe_token()})
        assert not owned
        assert _ship_worker_observation([1.0], owned) == [1.0]
        assert obs.registry().snapshot()["counters"] == {"pre.existing": 1}

    def test_unpack_passes_plain_results_through(self):
        from repro.engine.parallel import unpack_worker_payload

        assert unpack_worker_payload([1.0, 2.0]) == [1.0, 2.0]
        failure_list = ["anything"]
        assert unpack_worker_payload(failure_list) is failure_list
