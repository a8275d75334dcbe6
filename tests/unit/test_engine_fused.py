"""The fused execution path: stacked kernels, counters, shm lifecycle.

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
- the shared-memory workspace lifecycle: idempotent close, no segment
  leaked even when a worker is SIGKILLed mid-flight;
- the retired ``compile``/``fused`` knobs: the CLI and server refuse
  them, `/v1/cache-stats` still reports fused counters, work-unit ids did
  not move, and a journal written with a non-default flag is refused on
  resume.
"""

import os
import signal

import numpy as np
import pytest

from repro.engine import (
    BatchEngine,
    PlanCache,
    fused_counts,
    reset_fused_counts,
    shm_counts,
)
from repro.engine import shm
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
    return compile_plan(recursive_assembly(), "A", solver="sparse")


class TestRobustDeadlines:
    def test_grid_deadline_reports_partial_progress(self, robust_plan):
        budget = EvaluationBudget(deadline=0.2)
        with pytest.raises(BudgetExceededError) as info:
            robust_plan.pfail_grid(
                "size", np.arange(1.0, 64.0), {}, budget=budget
            )
        notes = "\n".join(getattr(info.value, "__notes__", []))
        assert "stopped at point" in notes
        assert "partial results discarded" in notes

    def test_stack_deadline_reports_partial_progress(self, robust_plan):
        budget = EvaluationBudget(deadline=0.2)
        points = [{"size": float(v)} for v in range(1, 64)]
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
        reset_fused_counts()
        engine = BatchEngine(jobs=1, cache=PlanCache())
        result = engine.evaluate(local, "search", self._points(6))
        assert result.ok
        assert result.stats.fused_entries == 6
        counts = fused_counts()
        assert counts["groups"] == 1
        assert counts["entries"] == 6
        assert counts["fallbacks"] == 0

    def test_fused_and_loop_agree_bitwise(self, local):
        points = self._points(9)
        fused = BatchEngine(jobs=1, cache=PlanCache())
        lhs = [e.pfail for e in fused.evaluate(local, "search", points)]
        plan = compile_plan(local, "search")
        assert lhs == [plan.pfail(p) for p in points]

    def test_poisoned_point_falls_back_to_per_entry_isolation(self, local):
        reset_fused_counts()
        points = self._points(4)
        del points[2]["list"]  # unbound parameter poisons the stack
        engine = BatchEngine(jobs=1, cache=PlanCache())
        result = engine.evaluate(local, "search", points)
        assert not result.ok
        entries = list(result)
        assert [entry.ok for entry in entries] == [True, True, False, True]
        assert result.stats.fused_entries == 0
        assert fused_counts()["fallbacks"] == 1
        # the healthy entries still carry correct values
        plan = compile_plan(local, "search")
        assert entries[0].pfail == plan.pfail(points[0])


# ---------------------------------------------------------------------------
# shared-memory workspace lifecycle (tentpole (b) + satellite 6)
# ---------------------------------------------------------------------------


def _kill_self():  # pragma: no cover - dies by design
    os.kill(os.getpid(), signal.SIGKILL)


@pytest.mark.skipif(not shm.available(), reason="no shared-memory support")
class TestShmLifecycle:
    def _segments(self, workspace):
        names = [workspace.spec()["doc"]["name"]]
        names += [
            spec[0] for spec in workspace.spec()["arrays"].values()
        ]
        return [name.lstrip("/") for name in names]

    def test_roundtrip_and_idempotent_close(self):
        before = shm_counts()["segments"]
        workspace = shm.ShmWorkspace.create(
            b"{}", {"results": ((4,), "float64"), "status": ((4,), "uint8")}
        )
        names = self._segments(workspace)
        try:
            workspace.array("results")[:] = [1.0, 2.0, 3.0, 4.0]
            attached = shm._Attached(workspace.spec())
            assert attached.doc == b"{}"
            assert np.array_equal(
                attached.arrays["results"], [1.0, 2.0, 3.0, 4.0]
            )
            attached.close()
        finally:
            workspace.close()
            workspace.close()  # idempotent
        assert shm_counts()["segments"] == before + len(names)
        for name in names:
            assert not os.path.exists(f"/dev/shm/{name}")

    def test_no_leak_when_worker_is_sigkilled(self):
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        workspace = shm.ShmWorkspace.create(
            b"{}", {"results": ((2,), "float64")}
        )
        names = self._segments(workspace)
        executor = ProcessPoolExecutor(max_workers=1)
        try:
            with pytest.raises(BrokenProcessPool):
                executor.submit(_kill_self).result(timeout=30)
        finally:
            executor.shutdown(wait=True)
            workspace.close()
        for name in names:
            assert not os.path.exists(f"/dev/shm/{name}")

    def test_parallel_shm_batch_matches_serial(self, monkeypatch):
        # this box may have one core; the engine clamps jobs to the cpu
        # count, so pretend there are enough to exercise the shm path
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        assembly = recursive_assembly()
        points = [{"size": float(1 + (i % 5))} for i in range(8)]
        serial = BatchEngine(jobs=1, cache=PlanCache(), solver="sparse")
        expected = [e.pfail for e in serial.evaluate(assembly, "A", points)]
        rows_before = shm_counts()["rows"]
        engine = BatchEngine(
            jobs=2, cache=PlanCache(), solver="sparse", mode="process"
        )
        result = engine.evaluate(assembly, "A", points)
        assert result.ok
        assert [e.pfail for e in result] == expected
        assert shm_counts()["rows"] - rows_before == len(points)


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
        assert set(fused) >= {"groups", "entries", "fallbacks", "shm"}
        assert set(fused["shm"]) == {"segments", "rows"}

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
