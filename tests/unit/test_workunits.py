"""The campaign layer: sharding, the store, the supervisor, reassembly."""

import json
import math

import pytest

from repro.errors import CampaignStoreError, EvaluationError
from repro.robustness.chaos import GARBAGE_PAYLOAD, ChaosPolicy
from repro.scenarios import local_assembly
from repro.workunits import (
    Campaign,
    ResultStore,
    Supervisor,
    WorkUnit,
    assemble_batch,
    assemble_fuzz,
    assemble_sweep,
    backoff_delay,
    batch_campaign,
    fuzz_campaign,
    load_state,
    run_campaign,
    sweep_campaign,
)

GRID = [float(v) for v in range(1, 21)]
FIXED = {"elem": 1.0, "res": 1.0}


def sweep20(**kwargs):
    return sweep_campaign(
        local_assembly(), "search", "list", GRID, FIXED, **kwargs
    )


class TestWorkUnits:
    def test_sharding_defaults(self):
        campaign = sweep20()
        assert campaign.kind == "sweep"
        assert len(campaign) == 3  # ceil(20 / 8)
        starts = [unit.payload["start"] for unit in campaign.units]
        assert starts == [0, 8, 16]
        flattened = [
            v for unit in campaign.units for v in unit.payload["values"]
        ]
        assert flattened == GRID

    def test_unit_ids_are_stable_content_hashes(self):
        a, b = sweep20(), sweep20()
        assert [u.unit_id for u in a.units] == [u.unit_id for u in b.units]
        assert a.campaign_id == b.campaign_id
        # any input change moves every affected id
        c = sweep20(method="numeric")
        assert a.campaign_id != c.campaign_id
        assert all(
            x.unit_id != y.unit_id for x, y in zip(a.units, c.units)
        )

    def test_sharding_independent_of_jobs(self):
        # ids derive from content only; a units override reslices
        campaign = sweep20(units=5)
        assert len(campaign) == 5
        assert [
            v for u in campaign.units for v in u.payload["values"]
        ] == GRID

    def test_round_trip_dict_form(self):
        unit = sweep20().units[0]
        clone = WorkUnit.from_dict(
            json.loads(json.dumps(unit.to_dict()))
        )
        assert clone.unit_id == unit.unit_id

    def test_rejects_bad_inputs(self):
        with pytest.raises(EvaluationError):
            sweep_campaign(local_assembly(), "search", "nope", GRID, FIXED)
        with pytest.raises(EvaluationError):
            sweep_campaign(local_assembly(), "search", "list", [], FIXED)
        with pytest.raises(EvaluationError):
            sweep20(units=0)
        with pytest.raises(EvaluationError):
            batch_campaign([], "search", None)
        with pytest.raises(EvaluationError):
            fuzz_campaign(local_assembly(), 0)

    def test_batch_campaign_keeps_request_order(self):
        points = [dict(FIXED, list=100.0), dict(FIXED, list=200.0)]
        campaign = batch_campaign(
            [("a", local_assembly()), ("b", local_assembly())],
            "search", points,
        )
        indices = [
            e["request_index"]
            for u in campaign.units
            for e in u.payload["entries"]
        ]
        assert indices == [0, 1, 2, 3]
        labels = {u.payload["label"] for u in campaign.units}
        assert labels == {"a", "b"}

    def test_fuzz_corpus_is_deterministic(self):
        a = fuzz_campaign(local_assembly(), 8, seed=3)
        b = fuzz_campaign(local_assembly(), 8, seed=3)
        assert a.campaign_id == b.campaign_id
        c = fuzz_campaign(local_assembly(), 8, seed=4)
        assert a.campaign_id != c.campaign_id


class TestChaosPolicy:
    def test_parse_grammar(self):
        policy = ChaosPolicy.parse("crash@2, hang@5, corrupt@0x3, crash@7x*")
        assert policy.schedule == (
            (2, "crash", 1), (5, "hang", 1), (0, "corrupt", 3),
            (7, "crash", None),
        )
        assert policy.describe() == "crash@2,hang@5,corrupt@0x3,crash@7x*"

    @pytest.mark.parametrize(
        "spec", ["", "boom@1", "crash", "crash@x", "crash@1xq", "crash@1x0"]
    )
    def test_parse_rejects_malformed(self, spec):
        with pytest.raises(EvaluationError):
            ChaosPolicy.parse(spec)

    def test_action_windows(self):
        policy = ChaosPolicy.parse("corrupt@1x2,crash@3x*")
        assert policy.action_for(1, 1) == "corrupt"
        assert policy.action_for(1, 2) == "corrupt"
        assert policy.action_for(1, 3) is None
        assert policy.action_for(3, 99) == "crash"
        assert policy.action_for(0, 1) is None


class TestBackoff:
    def test_deterministic_capped_exponential(self):
        d1 = backoff_delay("abc", 1, base=0.1, cap=5.0)
        assert d1 == backoff_delay("abc", 1, base=0.1, cap=5.0)
        assert 0.1 <= d1 <= 0.15  # base * (1 + jitter in [0, 0.5])
        d9 = backoff_delay("abc", 9, base=0.1, cap=5.0)
        assert 5.0 <= d9 <= 7.5  # capped before jitter
        assert backoff_delay("abc", 1, base=0.0) == 0.0
        # different units decorrelate
        assert backoff_delay("abc", 1) != backoff_delay("xyz", 1)


class TestStore:
    def test_fresh_store_writes_header(self, tmp_path):
        campaign = sweep20()
        path = tmp_path / "s.jsonl"
        store, state = ResultStore.for_campaign(path, campaign)
        store.close()
        assert state.records == 0
        header = json.loads(path.read_text().splitlines()[0])
        assert header["kind"] == "campaign"
        assert header["campaign"] == campaign.campaign_id
        assert header["units"] == len(campaign)

    def test_refuses_foreign_campaign(self, tmp_path):
        path = tmp_path / "s.jsonl"
        store, _ = ResultStore.for_campaign(path, sweep20())
        store.close()
        with pytest.raises(CampaignStoreError, match="was written for"):
            ResultStore.for_campaign(path, sweep20(method="numeric"))

    def test_refuses_non_journal_file(self, tmp_path):
        path = tmp_path / "s.jsonl"
        path.write_text('{"kind":"attempt","unit":"u","attempt":1}\n')
        with pytest.raises(CampaignStoreError, match="no campaign header"):
            ResultStore.for_campaign(path, sweep20())

    def test_replay_tolerates_torn_tail(self, tmp_path):
        campaign = sweep20()
        path = tmp_path / "s.jsonl"
        store, _ = ResultStore.for_campaign(path, campaign)
        store.record_attempt(
            campaign.units[0].unit_id, 1, "done", elapsed=0.1, result=[1.0]
        )
        store.close()
        with path.open("a") as fh:
            fh.write('{"kind": "attempt", "unit": "trunc')  # torn append
        state = load_state(path)
        assert state.skipped_lines == 1
        assert state.results == {campaign.units[0].unit_id: [1.0]}

    def test_missing_file_is_empty_state(self, tmp_path):
        state = load_state(tmp_path / "absent.jsonl")
        assert state.header is None and not state.results

    def test_attempts_and_quarantine_replay(self, tmp_path):
        campaign = sweep20()
        unit = campaign.units[0].unit_id
        path = tmp_path / "s.jsonl"
        store, _ = ResultStore.for_campaign(path, campaign)
        store.record_attempt(unit, 1, "crashed", elapsed=0.0, error="boom")
        store.record_attempt(unit, 2, "timeout", elapsed=5.0, error="slow")
        store.record_quarantine(unit, 2, "gave up")
        store.close()
        state = load_state(path)
        assert state.attempts[unit] == 2
        assert unit in state.quarantined
        assert unit not in state.results


class TestSupervisorInline:
    """The supervisor end to end on small campaigns, on its pool."""

    def test_completes_and_resumes_bit_identically(self, tmp_path):
        campaign = sweep20()
        path = tmp_path / "s.jsonl"
        first = run_campaign(campaign, path)
        assert first.complete and first.ok
        assert len(first.executed) == 3
        again = run_campaign(campaign, path)
        assert again.resumed == 3 and not again.executed
        assert again.attempts == 0  # strict no-op
        a = assemble_sweep(campaign, first)
        b = assemble_sweep(campaign, again)
        assert list(a.pfail) == list(b.pfail)

    def test_corrupt_chaos_is_retried_then_succeeds(self, tmp_path):
        campaign = sweep20()
        report = run_campaign(
            campaign, tmp_path / "s.jsonl",
            chaos=ChaosPolicy.parse("corrupt@1"),
        )
        assert report.complete and not report.quarantined
        assert report.attempts == 4  # 3 units + 1 retry
        state = load_state(tmp_path / "s.jsonl")
        corrupted = campaign.units[1].unit_id
        assert state.attempts[corrupted] == 2

    def test_poison_corrupt_unit_is_quarantined(self, tmp_path):
        campaign = sweep20()
        report = run_campaign(
            campaign, tmp_path / "s.jsonl",
            chaos=ChaosPolicy.parse("corrupt@1x*"),
            retries=2,
        )
        assert report.complete and not report.ok
        poisoned = campaign.units[1].unit_id
        assert poisoned in report.quarantined
        assert len(report.results) == 2
        # the quarantined slice renders as a NaN hole, not a short grid
        sweep = assemble_sweep(campaign, report)
        assert len(sweep.values) == len(GRID)
        assert all(math.isnan(v) for v in sweep.pfail[8:16])
        assert not any(math.isnan(v) for v in sweep.pfail[:8])
        # resuming keeps the quarantine (and does not retry the unit)
        again = run_campaign(
            campaign, tmp_path / "s.jsonl", retries=2,
        )
        assert poisoned in again.quarantined and not again.executed

    def test_typed_unit_error_is_final(self, tmp_path):
        from repro.runtime import EvaluationBudget
        from repro.scenarios import recursive_assembly

        campaign = sweep_campaign(
            recursive_assembly(), "A", "size", [1.0, 2.0], {},
            method="numeric",
        )
        report = run_campaign(
            campaign, tmp_path / "s.jsonl", retries=2,
            budget=EvaluationBudget(max_sweeps=2),
        )
        assert report.attempts == 1 and len(report.quarantined) == 1
        records = [
            json.loads(line)
            for line in (tmp_path / "s.jsonl").read_text().splitlines()[1:]
        ]
        assert [(r["kind"], r.get("status"), r.get("attempts")) for r in records] \
            == [("attempt", "failed", None), ("quarantine", None, 1)]
        assert "sweeps limit 2 (used 3)" in records[1]["error"]

    def test_only_a_spent_deadline_is_worth_a_retry(self):
        from repro.runtime import EvaluationBudget
        from repro.scenarios import recursive_assembly
        from repro.workunits.worker import execute_unit

        unit = sweep_campaign(
            recursive_assembly(), "A", "size", [1.0], {}, method="numeric",
        ).units[0].to_dict()
        for budget, final in [
            (EvaluationBudget(max_sweeps=2), True),
            (EvaluationBudget(deadline=0.0), False),
        ]:
            outcome = execute_unit({"unit": unit, "budget": budget})
            assert outcome["status"] == "failed"
            assert outcome["final"] is final

    def test_garbage_payload_never_validates(self):
        unit = sweep20().units[0].to_dict()
        from repro.workunits.worker import validate_payload

        assert validate_payload(unit, list(GARBAGE_PAYLOAD)) is not None
        assert validate_payload(unit, [0.5] * 8) is None
        assert validate_payload(unit, [0.5] * 7) is not None
        assert validate_payload(unit, ["x"] * 8) is not None

    def test_redundancy_validation_runs_and_matches(self, tmp_path):
        campaign = sweep20()
        report = run_campaign(
            campaign, tmp_path / "s.jsonl",
            validate_redundancy=1_000_000_000,  # sample ~nothing...
        )
        assert report.validations == 0 or not report.mismatches
        report = run_campaign(
            campaign, tmp_path / "v.jsonl",
            validate_redundancy=2,
        )
        assert report.validations >= 1
        assert not report.mismatches
        # resuming the completed store schedules no validation either
        again = run_campaign(
            campaign, tmp_path / "v.jsonl",
            validate_redundancy=2,
        )
        assert again.validations == 0

    def test_budget_deadline_load_sheds(self):
        from repro.errors import BudgetExceededError
        from repro.runtime import EvaluationBudget

        with pytest.raises(BudgetExceededError):
            run_campaign(
                sweep20(), None,
                budget=EvaluationBudget(deadline=0.0),
            )

    def test_supervisor_rejects_bad_options(self):
        with pytest.raises(EvaluationError):
            Supervisor(sweep20(), retries=-1)
        with pytest.raises(EvaluationError):
            Supervisor(sweep20(), unit_timeout=0.0)


class TestAssembly:
    def test_sweep_matches_direct_evaluation(self):
        import numpy as np

        from repro.analysis import sweep_parameter

        campaign = sweep20()
        report = run_campaign(campaign, None)
        assembled = assemble_sweep(campaign, report)
        direct = sweep_parameter(
            local_assembly(), "search", "list", np.asarray(GRID), FIXED,
        )
        assert list(assembled.pfail) == list(direct.pfail)
        assert assembled.assembly == direct.assembly

    def test_batch_assembles_ordered_entries(self):
        points = [dict(FIXED, list=100.0), dict(FIXED, list=200.0)]
        campaign = batch_campaign(
            [("a", local_assembly()), ("b", local_assembly())],
            "search", points,
        )
        report = run_campaign(campaign, None)
        entries = assemble_batch(campaign, report)
        assert [e.index for e in entries] == [0, 1, 2, 3]
        assert all(e.ok for e in entries)
        assert entries[0].pfail == entries[2].pfail  # same model, same point

    def test_journaled_entry_error_restores_class_message_and_causes(self):
        from repro.engine.batch import BatchEntry
        from repro.errors import CyclicAssemblyError, MarkovError
        from repro.workunits.runner import error_from_record
        from repro.workunits.worker import _entry_record

        error = CyclicAssemblyError(("A", "B", "A"))
        error.__cause__ = MarkovError("chain rebuild failed")
        record = json.loads(json.dumps(
            _entry_record(BatchEntry(0, "", "A", {}, error=error))
        ))
        assert record["causes"] == ["MarkovError: chain rebuild failed"]
        restored = error_from_record(record)
        assert type(restored) is CyclicAssemblyError
        assert str(restored) == str(error)
        assert restored.__notes__ == ["caused by MarkovError: chain rebuild failed"]

    def test_older_records_without_causes_still_restore(self):
        from repro.errors import UnboundParameterError
        from repro.workunits.runner import error_from_record

        # the form journals written before "causes" existed carry
        restored = error_from_record({
            "request_index": 0,
            "error": "UnboundParameterError",
            "message": "UnboundParameterError: parameter 'list' is not "
                       "bound in the environment",
        })
        assert type(restored) is UnboundParameterError
        assert str(restored) == "parameter 'list' is not bound in the environment"
        unknown = error_from_record({"error": "GoneError", "message": "GoneError: x"})
        assert type(unknown) is EvaluationError
        assert str(unknown) == "GoneError: x"

    def test_fuzz_matches_direct_harness(self):
        from repro.robustness import FuzzHarness

        campaign = fuzz_campaign(
            local_assembly(), 6, seed=3, trials=200, deadline=5.0
        )
        report = run_campaign(campaign, None)
        assembled = assemble_fuzz(campaign, report)
        direct = FuzzHarness(
            local_assembly(), seed=3, trials=200, deadline=5.0
        ).run(6)
        assert [c.status for c in assembled.cases] == [
            c.status for c in direct.cases
        ]
        assert [c.pfail for c in assembled.cases] == [
            c.pfail for c in direct.cases
        ]

    def test_kind_mismatch_raises(self):
        campaign = sweep20()
        report = run_campaign(campaign, None)
        with pytest.raises(EvaluationError):
            assemble_fuzz(campaign, report)


class TestCampaignIds:
    def test_campaign_requires_units(self):
        with pytest.raises(EvaluationError):
            Campaign("sweep", (), {})

    def test_unit_by_id(self):
        campaign = sweep20()
        unit = campaign.units[1]
        assert campaign.unit_by_id(unit.unit_id) is unit
        with pytest.raises(EvaluationError):
            campaign.unit_by_id("nope")
