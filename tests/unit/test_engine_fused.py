"""The fused execution path: stacked kernels, counters, the robust pool.

Covers the contracts the fused executor adds on top of the batch engine:

- ``pfail_grid``'s symbolic fast path (grid-shaped kernel results return
  directly; scalar closed forms — the swept parameter eliminated — still
  materialize a full grid);
- robust-backend ``pfail_grid``/``pfail_stack`` under cooperative budget
  deadlines: a deadline hit mid-grid raises with a partial-progress note,
  never a silently truncated result;
- ``BatchEngine`` fused-group accounting (``fused_entries``,
  ``engine.fused.*`` counters) and per-entry error isolation when a
  poisoned point forces the fallback;
- robust groups the fused path does not serve: a jobs=2 pool batch
  equals the jobs=1 batch bitwise;
- the retired ``compile``/``fused`` knobs: the CLI and server refuse
  them, `/v1/cache-stats` still reports fused counters, work-unit ids did
  not move, and a journal written with a non-default flag is refused on
  resume.
"""

import os

import numpy as np
import pytest

from repro import observability as obs
from repro.engine import BatchEngine, PlanCache
from repro.engine.plan import compile_plan
from repro.errors import BudgetExceededError
from repro.runtime.budget import EvaluationBudget
from repro.scenarios import local_assembly, recursive_assembly


# ---------------------------------------------------------------------------
# pfail_grid symbolic fast path (satellite: no broadcast_to(...).copy())
# ---------------------------------------------------------------------------


class TestGridFastPath:
    def test_grid_shaped_result_is_returned_directly(self, local):
        plan = compile_plan(local, "search")
        grid = np.linspace(1.0, 1000.0, 16)
        fixed = {"elem": 1.0, "res": 1.0}
        values = plan.pfail_grid("list", grid, fixed)
        assert values.shape == grid.shape
        loop = [plan.pfail({**fixed, "list": float(v)}) for v in grid]
        assert np.array_equal(values, np.asarray(loop))

    def test_scalar_closed_form_materializes_grid(self, local):
        # sort1's closed form depends on "list" only: sweeping an unused
        # name folds to a scalar, which must still come back grid-shaped
        plan = compile_plan(local, "sort1")
        assert plan.formals == ("list",)
        grid = np.linspace(0.0, 9.0, 7)
        values = plan.pfail_grid("unused", grid, {"list": 100.0})
        assert values.shape == grid.shape
        expected = plan.pfail({"list": 100.0})
        assert np.array_equal(values, np.full(grid.shape, expected))

    def test_grid_result_does_not_alias_grid(self, local):
        plan = compile_plan(local, "search")
        grid = np.linspace(1.0, 500.0, 8)
        values = plan.pfail_grid("list", grid, {"elem": 1.0, "res": 1.0})
        assert not np.shares_memory(values, grid)


# ---------------------------------------------------------------------------
# robust backend under cooperative deadlines (satellite 3)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def robust_plan():
    return compile_plan(recursive_assembly(), "A")


#: Far more points than a 0.2 s deadline lets the numeric tier solve
#: (a few ms each), so the deadline trips part-way through the stack.
DEADLINE_POINTS = 1024


class TestRobustDeadlines:
    def test_grid_deadline_reports_partial_progress(self, robust_plan):
        budget = EvaluationBudget(deadline=0.2)
        with pytest.raises(BudgetExceededError) as info:
            robust_plan.pfail_grid(
                "size", np.arange(1.0, DEADLINE_POINTS), {}, budget=budget
            )
        notes = "\n".join(getattr(info.value, "__notes__", []))
        assert "stopped at point" in notes
        assert "partial results discarded" in notes

    def test_stack_deadline_reports_partial_progress(self, robust_plan):
        budget = EvaluationBudget(deadline=0.2)
        points = [{"size": float(v)} for v in range(1, DEADLINE_POINTS)]
        with pytest.raises(BudgetExceededError) as info:
            robust_plan.pfail_stack(points, budget=budget)
        notes = "\n".join(getattr(info.value, "__notes__", []))
        assert "stacked evaluation" in notes
        assert "stopped at point" in notes

    def test_no_silent_truncation_under_generous_deadline(self, robust_plan):
        budget = EvaluationBudget(deadline=60.0)
        points = [{"size": float(v)} for v in range(1, 5)]
        stacked = robust_plan.pfail_stack(points, budget=budget)
        assert stacked.shape == (len(points),)
        loop = [robust_plan.pfail(p) for p in points]
        assert np.array_equal(stacked, np.asarray(loop))


# ---------------------------------------------------------------------------
# BatchEngine fused groups: accounting, fallback isolation
# ---------------------------------------------------------------------------


class TestEngineFused:
    def _points(self, n):
        return [
            {"elem": 1.0, "res": 1.0, "list": float(v)}
            for v in np.linspace(1.0, 1000.0, n)
        ]

    def test_fused_group_counts_entries(self, local):
        obs.reset()
        engine = BatchEngine(jobs=1, cache=PlanCache())
        result = engine.evaluate(local, "search", self._points(6))
        assert result.ok
        assert result.stats.fused_entries == 6
        counters = obs.registry().counter_value
        assert counters("engine.fused.groups") == 1
        assert counters("engine.fused.entries") == 6
        assert counters("engine.fused.fallbacks") == 0

    def test_fused_and_loop_agree_bitwise(self, local):
        points = self._points(9)
        fused = BatchEngine(jobs=1, cache=PlanCache())
        lhs = [e.pfail for e in fused.evaluate(local, "search", points)]
        plan = compile_plan(local, "search")
        assert lhs == [plan.pfail(p) for p in points]

    def test_poisoned_point_falls_back_to_per_entry_isolation(self, local):
        obs.reset()
        points = self._points(4)
        del points[2]["list"]  # unbound parameter poisons the stack
        engine = BatchEngine(jobs=1, cache=PlanCache())
        result = engine.evaluate(local, "search", points)
        assert not result.ok
        entries = list(result)
        assert [entry.ok for entry in entries] == [True, True, False, True]
        assert result.stats.fused_entries == 0
        assert obs.registry().counter_value("engine.fused.fallbacks") == 1
        # the healthy entries still carry correct values
        plan = compile_plan(local, "search")
        assert entries[0].pfail == plan.pfail(points[0])


# ---------------------------------------------------------------------------
# robust groups through the process pool
# ---------------------------------------------------------------------------


class TestRobustPool:
    def test_parallel_robust_batch_matches_serial(self, monkeypatch):
        # this box may have one core; the engine clamps jobs to the cpu
        # count, so pretend there are enough to exercise the pool
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        assembly = recursive_assembly()
        points = [{"size": float(1 + (i % 5))} for i in range(8)]
        serial = BatchEngine(jobs=1, cache=PlanCache())
        expected = [e.pfail for e in serial.evaluate(assembly, "A", points)]
        engine = BatchEngine(jobs=2, cache=PlanCache(), mode="process")
        result = engine.evaluate(assembly, "A", points)
        assert result.ok
        assert [e.backend for e in result] == ["robust"] * len(points)
        assert [e.pfail for e in result] == expected


# ---------------------------------------------------------------------------
# the retired compile/fused knobs: refused everywhere, ids unmoved
# ---------------------------------------------------------------------------

#: Campaign and unit ids of the default-flag campaigns below, computed
#: before the ``compile``/``fused`` knobs were removed: journals written
#: then must keep resuming.
SWEEP_CAMPAIGN_ID = (
    "a69283d77f432287b14a1f0dc64c3630040dfc2adee3ba3d7587ccb3fba98fc7"
)
SWEEP_UNIT_IDS = [
    "c9fce25819aa47c3eb1090cf69a3f1b419cdb2d6496bfc084915d4d5bb2e9f6c",
    "7209f3908d1eaf71c55e40a414a69277667b65c16ee5fa96750d41a5af8542cc",
]
BATCH_CAMPAIGN_ID = (
    "76ec00c4c885ae53735347f4c7790436acbbdc27d261e6f393241ac166ea8f22"
)
BATCH_UNIT_IDS = [
    "1e55f48fd6501e07c4166319497021f2578ca1a3837c5c3ac5feccf2917dc2ae",
    "60a0fe7f60ead52f529acb2430a9e8683487c0994bfb24dafce50dd7a2826ce0",
]
#: The same campaigns as written with ``--no-compile`` (sweep) and
#: ``--no-fused`` (batch) before those flags were removed.
NO_COMPILE_SWEEP_ID = (
    "8d17b8226f3d2cca107218ba4521a2fd3bb60a99509959665af9ff3ac90858da"
)
NO_FUSED_BATCH_ID = (
    "a13cf2e1f214a1989d65e5d9fcdaad5ff3d7d8f880a9a3ff78cb10ec16af9492"
)


def _sweep_campaign(local):
    from repro.workunits import sweep_campaign

    return sweep_campaign(
        local, "search", "list", [1.0, 250.0, 500.0, 750.0, 1000.0],
        {"elem": 1.0, "res": 1.0}, units=2,
    )


def _batch_campaign(local):
    from repro.workunits import batch_campaign

    points = [
        {"elem": 1.0, "res": 1.0, "list": float(v)} for v in (1, 2, 3)
    ]
    return batch_campaign([("local", local)], "search", points, units=2)


class TestFusedKnob:
    def test_cli_flags_parse(self, capsys):
        from repro.cli import build_parser

        parser = build_parser()
        batch = ["batch", "search", "--model", "m.json"]
        sweep = ["sweep", "m.json", "search", "list", "--from", "1",
                 "--to", "10"]
        parser.parse_args(batch)
        parser.parse_args(sweep)
        for argv in (batch, sweep):
            for flag in ("--no-compile", "--no-fused", "--fused"):
                with pytest.raises(SystemExit) as info:
                    parser.parse_args([*argv, flag])
                assert info.value.code == 2
                assert "unrecognized arguments" in capsys.readouterr().err

    def test_server_schema_rejects_compile_and_fused(self):
        from repro.server.schema import (
            BATCH_REQUEST,
            EVALUATE_REQUEST,
            SWEEP_REQUEST,
            schema_problems,
        )

        evaluate = {"model": {}, "service": "s"}
        batch = {"requests": [{"model": {}, "service": "s"}]}
        sweep = {"model": {}, "service": "s", "parameter": "p",
                 "start": 0, "stop": 1}
        for body, schema in ((evaluate, EVALUATE_REQUEST),
                             (batch, BATCH_REQUEST), (sweep, SWEEP_REQUEST)):
            assert schema_problems(body, schema) == []
            for key in ("compile", "fused"):
                problems = schema_problems({**body, key: True}, schema)
                assert any("unexpected key" in p for p in problems), problems

    def test_cache_stats_carries_engine_fused_block(self):
        from repro.server.service import EvaluationService

        stats = EvaluationService().cache_stats()
        fused = stats["engine"]["fused"]
        assert set(fused) == {"groups", "entries", "fallbacks"}
        assert "shm" not in fused

    def test_workunit_ids_stable_under_default_fused(self, local):
        sweep = _sweep_campaign(local)
        assert sweep.campaign_id == SWEEP_CAMPAIGN_ID
        assert [u.unit_id for u in sweep.units] == SWEEP_UNIT_IDS
        batch = _batch_campaign(local)
        assert batch.campaign_id == BATCH_CAMPAIGN_ID
        assert [u.unit_id for u in batch.units] == BATCH_UNIT_IDS

    @pytest.mark.parametrize("build, written_id", [
        (_sweep_campaign, NO_COMPILE_SWEEP_ID),
        (_batch_campaign, NO_FUSED_BATCH_ID),
    ])
    def test_non_default_flag_journal_is_refused(
        self, local, tmp_path, build, written_id
    ):
        import json

        from repro.errors import CampaignStoreError
        from repro.workunits import run_campaign

        campaign = build(local)
        journal = tmp_path / "journal.jsonl"
        journal.write_text(json.dumps({
            "schema": "repro/workunits/1", "kind": "campaign",
            "campaign": written_id, "campaign_kind": campaign.kind,
            "units": len(campaign.units), "config": dict(campaign.config),
        }) + "\n")
        with pytest.raises(CampaignStoreError, match="same model, grid"):
            run_campaign(campaign, journal)
