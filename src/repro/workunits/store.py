"""The resumable results store: a JSONL journal of work-unit attempts.

One append-only file per campaign, one JSON record per line:

- a **campaign header** (first line) naming the campaign fingerprint,
  unit count and config — resuming against the wrong store is a typed
  error, not silent result mixing;
- one **attempt record** per execution attempt of a unit (status
  ``done``/``failed``/``timeout``/``crashed``/``corrupt``, the result
  payload for successful attempts, the flattened error chain otherwise);
- a **quarantine record** when a unit exhausts its attempts;
- a **validation record** per redundant re-execution (match/mismatch).

Appends are atomic-enough for crash recovery: each record is a single
``write`` of one complete line, flushed and ``fsync``'d before the
supervisor moves on — so after a SIGKILL the journal contains every
acknowledged record plus at most one truncated trailing line.  A record
is committed only once its newline is on disk: :func:`load_state` skips
an unterminated last line even when it parses, and reopening a journal
for appends cuts it off first, so the next record never merges onto it.
Replay is **idempotent**: loading a store any number of times, or
resuming a completed campaign, reconstructs the same state and schedules
no new work (property-tested).

The format is deliberately dumb — grep-able, ``jq``-able, mergeable by
concatenation of disjoint campaigns — and schema-checked by
``tools/validate_store.py`` in CI.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path

from repro import observability as obs
from repro.errors import CampaignStoreError

from repro.workunits.units import Campaign

__all__ = ["ResultStore", "StoreState", "SCHEMA"]

SCHEMA = "repro/workunits/1"

#: Attempt statuses a journal may record.  ``done`` is terminal for the
#: unit; the rest describe one failed attempt (the unit may still retry).
ATTEMPT_STATUSES = ("done", "failed", "timeout", "crashed", "corrupt")

#: Config settings that no longer exist, with the only value a resumable
#: journal can hold: a campaign written with any other value ran a solve
#: path that is gone, so its results cannot be extended.
RETIRED_SETTINGS = {"solver": "auto", "incremental": False}


@dataclass
class StoreState:
    """Replayed journal state: what a resumed campaign may skip.

    Attributes:
        header: the campaign header record (``None`` for a fresh store).
        results: ``unit_id -> result payload`` for units already done.
        attempts: ``unit_id -> attempts recorded so far``.
        quarantined: ``unit_id -> error`` of the unit's quarantine record.
        validated: unit ids with a validation record (any verdict).
        mismatches: unit ids whose validation record flagged a mismatch.
        records: total well-formed records replayed.
        skipped_lines: malformed/truncated lines ignored during replay.
    """

    header: dict | None = None
    results: dict[str, object] = field(default_factory=dict)
    attempts: dict[str, int] = field(default_factory=dict)
    quarantined: dict[str, str] = field(default_factory=dict)
    validated: set[str] = field(default_factory=set)
    mismatches: set[str] = field(default_factory=set)
    records: int = 0
    skipped_lines: int = 0

    @property
    def campaign_id(self) -> str | None:
        return self.header.get("campaign") if self.header else None


def load_state(path: str | Path) -> StoreState:
    """Replay a journal file into a :class:`StoreState`.

    Skips an unterminated trailing line (the partially-written record of
    a process killed mid-append) and ignores record kinds it does not
    know, so newer journals stay readable by older code.  A missing file
    replays to the empty state — resuming a campaign that never started
    is the same as starting it.
    """
    state = StoreState()
    path = Path(path)
    if not path.exists():
        return state
    with path.open("r", encoding="utf-8") as fh:
        lines = fh.readlines()
    for line in lines:
        committed = line.endswith("\n")
        line = line.strip()
        if not line:
            continue
        if not committed:
            # a torn append: the record's newline never reached the disk
            state.skipped_lines += 1
            continue
        try:
            record = json.loads(line)
        except ValueError:
            state.skipped_lines += 1  # a complete but malformed line
            continue
        if not isinstance(record, dict):
            state.skipped_lines += 1
            continue
        kind = record.get("kind")
        if kind == "campaign":
            if state.header is None:
                state.header = record
            state.records += 1
        elif kind == "attempt":
            unit = record.get("unit")
            if not isinstance(unit, str):
                state.skipped_lines += 1
                continue
            state.attempts[unit] = max(
                state.attempts.get(unit, 0), int(record.get("attempt", 0))
            )
            if record.get("status") == "done" and unit not in state.results:
                state.results[unit] = record.get("result")
            state.records += 1
        elif kind == "quarantine":
            unit = record.get("unit")
            if isinstance(unit, str):
                state.quarantined.setdefault(unit, str(record.get("error", "")))
            state.records += 1
        elif kind == "validation":
            unit = record.get("unit")
            if isinstance(unit, str):
                state.validated.add(unit)
                if record.get("match") is False:
                    state.mismatches.add(unit)
            state.records += 1
        else:
            state.skipped_lines += 1
    return state


def _drop_torn_tail(path: Path) -> None:
    """Truncate an unterminated last line, which replay never counted,
    so the next append starts on a line of its own."""
    if not path.exists():
        return
    raw = path.read_bytes()
    keep = raw.rfind(b"\n") + 1
    if keep == len(raw):
        return
    with path.open("r+b") as fh:
        fh.truncate(keep)
        fh.flush()
        os.fsync(fh.fileno())


class ResultStore:
    """Append-side handle on a campaign journal.

    Open with :meth:`for_campaign`, which replays any existing journal,
    verifies it belongs to the same campaign, and writes the header for a
    fresh file.  ``None``-path stores journal to memory only (unit tests,
    throwaway runs) — same interface, no durability.
    """

    def __init__(self, path: str | Path | None):
        self.path = Path(path) if path is not None else None
        self._fh = None
        self.memory: list[dict] = []

    # -- lifecycle ---------------------------------------------------------

    @classmethod
    def for_campaign(
        cls, path: str | Path | None, campaign: Campaign
    ) -> tuple["ResultStore", StoreState]:
        """Open (or create) the journal for ``campaign``; replay its state.

        Raises :class:`~repro.errors.CampaignStoreError` when the file
        belongs to a different campaign or is not a work-unit journal.
        """
        store = cls(path)
        state = load_state(path) if path is not None else StoreState()
        if state.records and state.header is None:
            raise CampaignStoreError(
                f"{path} is not a repro/workunits/1 journal "
                f"(no campaign header)"
            )
        if state.header is not None:
            if state.header.get("schema") != SCHEMA:
                raise CampaignStoreError(
                    f"{path}: unknown store schema "
                    f"{state.header.get('schema')!r} (expected {SCHEMA})"
                )
            config = state.header.get("config")
            for name, only in RETIRED_SETTINGS.items():
                if isinstance(config, dict) and config.get(name, only) != only:
                    raise CampaignStoreError(
                        f"{path} was written with the retired setting "
                        f"{name}={config[name]!r}; only {name}={only!r} "
                        f"journals can resume"
                    )
            if state.campaign_id != campaign.campaign_id:
                raise CampaignStoreError(
                    f"{path} was written for campaign "
                    f"{str(state.campaign_id)[:12]}..., not "
                    f"{campaign.campaign_id[:12]}... — same model, grid, "
                    f"seed and config are required to resume"
                )
        store._open()
        if state.header is None:
            store.append({
                "schema": SCHEMA,
                "kind": "campaign",
                "campaign": campaign.campaign_id,
                "campaign_kind": campaign.kind,
                "units": len(campaign.units),
                "config": dict(campaign.config),
            })
        return store, state

    def _open(self) -> None:
        if self.path is not None and self._fh is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            _drop_torn_tail(self.path)
            self._fh = self.path.open("a", encoding="utf-8")

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "ResultStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- appends -----------------------------------------------------------

    def append(self, record: dict) -> None:
        """Durably append one record: single write, flush, fsync.

        A crash between fsyncs loses at most the current line, and a
        crash mid-write leaves a torn line that replay skips — either
        way every previously acknowledged record survives.
        """
        self.memory.append(record)
        if self._fh is None:
            return
        line = json.dumps(record, sort_keys=True, separators=(",", ":"))
        self._fh.write(line + "\n")
        self._fh.flush()
        os.fsync(self._fh.fileno())

    # -- journal helpers (the supervisor's vocabulary) ---------------------

    def record_attempt(
        self,
        unit_id: str,
        attempt: int,
        status: str,
        *,
        elapsed: float,
        result=None,
        error: str | None = None,
    ) -> None:
        if status not in ATTEMPT_STATUSES:  # pragma: no cover - internal
            raise ValueError(f"unknown attempt status {status!r}")
        record = {
            "kind": "attempt",
            "unit": unit_id,
            "attempt": attempt,
            "status": status,
            "elapsed": round(float(elapsed), 6),
        }
        if result is not None:
            record["result"] = result
        if error is not None:
            record["error"] = error
        self.append(record)
        obs.count(f"workunits.attempt.{status}")

    def record_quarantine(self, unit_id: str, attempts: int, error: str) -> None:
        self.append({
            "kind": "quarantine",
            "unit": unit_id,
            "attempts": attempts,
            "error": error,
        })
        obs.count("workunits.quarantined")

    def record_validation(
        self, unit_id: str, match: bool, error: str | None = None
    ) -> None:
        record = {"kind": "validation", "unit": unit_id, "match": bool(match)}
        if error is not None:
            record["error"] = error
        self.append(record)
        obs.count("workunits.validation.runs")
        if not match:
            obs.count("workunits.validation.mismatch")
