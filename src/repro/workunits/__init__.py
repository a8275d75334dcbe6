"""Fault-tolerant campaign execution over the batch/parallel stack.

The engine's process pools (:mod:`repro.engine.parallel`) are fail-fast:
a worker killed by the OOM killer sinks the whole run with one typed
error.  For long campaigns — thousand-point sweeps, overnight fuzz runs,
model-selection batches — that is the wrong trade.  This package adds the
BOINC-style layer on top:

- :mod:`~repro.workunits.units` — shard a campaign into self-describing
  :class:`WorkUnit` s with stable content-hash ids (same inputs ⇒ same
  ids, across processes, hosts and days);
- :mod:`~repro.workunits.store` — an append-only, fsync'd JSONL journal
  of every attempt, replayable into "what is already done";
- :mod:`~repro.workunits.supervisor` — dispatch to sacrificial worker
  processes with hard per-unit timeouts, crash detection, pool restarts,
  capped exponential backoff with deterministic jitter, quarantine for
  poison units, and optional redundant-execution validation;
- :mod:`~repro.workunits.runner` — reassemble completed campaigns into
  the sweep/batch/fuzz result shapes the rest of the stack renders.

On the command line: ``python -m repro sweep|batch|fuzz ... --store
results.jsonl``, then ``--resume`` after any interruption — the resumed
run skips journaled units and its output is bit-identical to an
uninterrupted run.
"""

from repro.workunits.runner import (
    assemble_batch,
    assemble_fuzz,
    assemble_sweep,
    quarantine_error,
    run_campaign,
)
from repro.workunits.store import ResultStore, StoreState, load_state
from repro.workunits.supervisor import (
    CampaignReport,
    Supervisor,
    backoff_delay,
)
from repro.workunits.units import (
    Campaign,
    WorkUnit,
    batch_campaign,
    fuzz_campaign,
    sweep_campaign,
)

__all__ = [
    "Campaign",
    "CampaignReport",
    "ResultStore",
    "StoreState",
    "Supervisor",
    "WorkUnit",
    "assemble_batch",
    "assemble_fuzz",
    "assemble_sweep",
    "backoff_delay",
    "batch_campaign",
    "fuzz_campaign",
    "load_state",
    "quarantine_error",
    "run_campaign",
    "sweep_campaign",
]
