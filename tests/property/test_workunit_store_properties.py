"""Property tests: journal replay is idempotent and truncation-safe.

The resume contract rests on two properties of the JSONL store:

1. **Replay is a pure fold** — loading the same journal any number of
   times yields the same state, and appending a replayed journal's own
   records again changes nothing (first ``done`` wins).
2. **Any prefix is a valid journal** — a process killed mid-append
   leaves at most one torn line, and truncating the file at *any* byte
   offset must replay every complete record before the cut.

Together they imply the user-facing property (exercised concretely at
the end): re-resuming a completed campaign is a strict no-op.
"""

import json
from types import SimpleNamespace

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.scenarios import local_assembly
from repro.workunits import (
    ResultStore,
    load_state,
    run_campaign,
    sweep_campaign,
)

UNIT_IDS = st.sampled_from(["u-alpha", "u-beta", "u-gamma", "u-delta"])

ATTEMPTS = st.fixed_dictionaries({
    "kind": st.just("attempt"),
    "unit": UNIT_IDS,
    "attempt": st.integers(min_value=1, max_value=5),
    "status": st.sampled_from(
        ["done", "failed", "timeout", "crashed", "corrupt"]
    ),
    "elapsed": st.floats(
        min_value=0.0, max_value=10.0, allow_nan=False
    ),
    "result": st.lists(
        st.floats(allow_nan=False, allow_infinity=False), max_size=3
    ),
})

QUARANTINES = st.fixed_dictionaries({
    "kind": st.just("quarantine"),
    "unit": UNIT_IDS,
    "attempts": st.integers(min_value=1, max_value=5),
    "error": st.text(max_size=20),
})

VALIDATIONS = st.fixed_dictionaries({
    "kind": st.just("validation"),
    "unit": UNIT_IDS,
    "match": st.booleans(),
})

HEADER = {
    "schema": "repro/workunits/1",
    "kind": "campaign",
    "campaign": "c" * 64,
    "campaign_kind": "sweep",
    "units": 4,
    "config": {},
}

RECORDS = st.lists(
    st.one_of(ATTEMPTS, QUARANTINES, VALIDATIONS), max_size=12
)


def write_journal(path, records):
    lines = [json.dumps(HEADER, sort_keys=True)]
    lines += [json.dumps(r, sort_keys=True) for r in records]
    path.write_text("\n".join(lines) + "\n")


@settings(max_examples=60, deadline=None)
@given(records=RECORDS)
def test_replay_is_deterministic_and_repeatable(tmp_path_factory, records):
    path = tmp_path_factory.mktemp("store") / "s.jsonl"
    write_journal(path, records)
    first = load_state(path)
    second = load_state(path)
    assert first == second


@settings(max_examples=60, deadline=None)
@given(records=RECORDS)
def test_replaying_appended_duplicates_changes_no_results(
    tmp_path_factory, records
):
    path = tmp_path_factory.mktemp("store") / "s.jsonl"
    write_journal(path, records)
    base = load_state(path)
    # append the whole record stream again: "done" results and quarantine
    # errors are sticky, validation sets are idempotent unions
    with path.open("a") as fh:
        for record in records:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    doubled = load_state(path)
    assert doubled.results == base.results
    assert doubled.quarantined == base.quarantined
    assert doubled.validated == base.validated
    assert doubled.attempts == base.attempts


#: The journal cut in the shrunk failing case below: the last record is
#: complete but its newline is missing.
TORN = [{"kind": "quarantine", "unit": "u-alpha", "attempts": 1, "error": ""}]

#: Drawn cut offsets are taken modulo the journal length + 1.
CUTS = st.integers(min_value=0, max_value=2**32)


def cut_journal(tmp, records, cut_at):
    """Write ``records`` as a journal, then a copy cut at byte
    ``cut_at % (len + 1)``; returns the full bytes, cut and cut path."""
    full_path = tmp / "full.jsonl"
    write_journal(full_path, records)
    raw = full_path.read_bytes()
    cut = cut_at % (len(raw) + 1)
    cut_path = tmp / "cut.jsonl"
    cut_path.write_bytes(raw[:cut])
    return raw, cut, cut_path


@settings(max_examples=60, deadline=None)
@given(records=RECORDS, cut_at=CUTS)
@example(records=TORN, cut_at=253)
def test_any_byte_truncation_replays_the_complete_prefix(
    tmp_path_factory, records, cut_at
):
    tmp = tmp_path_factory.mktemp("store")
    raw, cut, cut_path = cut_journal(tmp, records, cut_at)
    state = load_state(cut_path)  # must never raise
    # reconstruct the expectation from the complete lines only
    complete = raw[:cut].decode("utf-8").split("\n")[:-1]
    expected_path = tmp / "expected.jsonl"
    expected_path.write_text("\n".join(complete) + ("\n" if complete else ""))
    expected = load_state(expected_path)
    assert state.results == expected.results
    assert state.attempts == expected.attempts
    assert state.quarantined == expected.quarantined
    # at most the one torn trailing line may differ
    assert abs(state.skipped_lines - expected.skipped_lines) <= 1


@settings(max_examples=60, deadline=None)
@given(records=RECORDS, cut_at=CUTS)
@example(records=TORN, cut_at=253)
def test_appending_after_a_torn_tail_loses_no_replayed_record(
    tmp_path_factory, records, cut_at
):
    """Replay, reopen for appends, append, replay again: the second
    replay holds everything the first one did, plus the new record."""
    tmp = tmp_path_factory.mktemp("store")
    _, _, cut_path = cut_journal(tmp, records, cut_at)
    first = load_state(cut_path)
    campaign = SimpleNamespace(campaign_id=HEADER["campaign"], kind="sweep",
                               units=[None] * 4, config={})
    store, _ = ResultStore.for_campaign(cut_path, campaign)
    with store:
        store.record_attempt("u-new", 1, "done", elapsed=0.0, result=[1.0])
    second = load_state(cut_path)
    assert second.header is not None
    assert second.results["u-new"] == [1.0]
    for unit, result in first.results.items():
        assert second.results[unit] == result
    for unit, attempts in first.attempts.items():
        assert second.attempts[unit] >= attempts
    assert first.quarantined.items() <= second.quarantined.items()
    assert first.validated <= second.validated
    assert second.skipped_lines == 0


def test_resuming_a_completed_campaign_is_a_noop(tmp_path):
    """The user-facing corollary: re-resume appends nothing, runs nothing."""
    campaign = sweep_campaign(
        local_assembly(), "search", "list",
        [1.0, 50.0, 100.0, 200.0], {"elem": 1.0, "res": 1.0},
    )
    store = tmp_path / "s.jsonl"
    first = run_campaign(campaign, store)
    assert first.ok
    snapshot = store.read_bytes()
    for _ in range(3):
        again = run_campaign(campaign, store)
        assert not again.executed and again.attempts == 0
        assert again.results == first.results
        assert store.read_bytes() == snapshot  # byte-for-byte untouched
