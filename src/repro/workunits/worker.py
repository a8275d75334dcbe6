"""The campaign worker: execute one work unit in a sacrificial process.

Module-level and driven entirely by plain-data payloads (process pools
pickle by name), like :mod:`repro.engine.parallel`'s workers — but with a
harder contract: the supervisor assumes a worker may **die, hang or lie**
at any point, so nothing here is trusted until the parent has validated
the returned payload shape.

A worker payload carries the unit's dict form, the attempt number, an
:class:`~repro.runtime.EvaluationBudget` (the smaller of the per-unit
timeout and the campaign budget's remaining time as its deadline, plus the
campaign's state, depth and sweep limits), and optionally a
:class:`~repro.robustness.chaos.ChaosPolicy` — the fault-injection hook
the chaos tests and the chaos-smoke CI job use to force crashes, hangs
and corrupted results on schedule.

Outcomes are dicts, not exceptions: ``{"status": "done", "payload": ...}``
or ``{"status": "failed", "error": "<flattened cause chain>", "final":
...}``.  Typed errors inside a unit are *data*, and ``final`` unless the
error is a spent deadline: the same inputs would raise them again.  Only
infrastructure death (no return at all) is left for the supervisor to
detect.
"""

from __future__ import annotations

import time

from repro.engine.parallel import (
    _begin_worker_observation,
    _ship_worker_observation,
)
from repro.errors import (
    BudgetExceededError,
    ReproError,
    error_chain,
    format_error_chain,
)

__all__ = ["execute_unit", "validate_payload"]


def execute_unit(payload: dict) -> dict:
    """Execute one work unit; returns an outcome dict (never raises
    :class:`~repro.errors.ReproError`).

    Payload keys: ``unit`` (dict form of a
    :class:`~repro.workunits.units.WorkUnit`), ``attempt`` (1-based),
    ``budget`` (:class:`~repro.runtime.EvaluationBudget`), ``chaos`` (optional
    :class:`~repro.robustness.chaos.ChaosPolicy`), plus the standard
    ``observe``/``dispatched_at`` observability keys.
    """
    owned = _begin_worker_observation(payload)
    unit = payload["unit"]
    attempt = int(payload.get("attempt", 1))
    chaos = payload.get("chaos")
    if chaos is not None:
        chaos.apply_before(unit["index"], attempt)
    budget = payload["budget"]
    started = time.perf_counter()
    try:
        result = _EXECUTORS[unit["kind"]](unit, budget)
        outcome = {"status": "done", "payload": result}
    except ReproError as exc:
        spent = isinstance(exc, BudgetExceededError) and exc.resource == "deadline"
        outcome = {
            "status": "failed",
            "error": format_error_chain(exc),
            "final": not spent,  # only more time can change the answer
        }
    outcome["elapsed"] = time.perf_counter() - started
    if chaos is not None:
        outcome = chaos.corrupt_outcome(unit["index"], attempt, outcome)
    return _ship_worker_observation(outcome, owned)


# ---------------------------------------------------------------------------
# kind-specific executors
# ---------------------------------------------------------------------------


def _execute_sweep(unit: dict, budget) -> list[float]:
    from repro.analysis.sweep import sweep_parameter
    from repro.dsl import load_assembly

    config = unit["config"]
    return sweep_parameter(
        load_assembly(unit["payload"]["assembly_json"]),
        config["service"],
        config["parameter"],
        [float(v) for v in unit["payload"]["values"]],
        config["fixed"],
        method=config["method"],
        budget=budget,
    ).pfail.tolist()


def _execute_batch(unit: dict, budget) -> list[dict]:
    from repro.dsl import load_assembly
    from repro.engine.batch import BatchEngine

    unit_entries = unit["payload"]["entries"]
    result = BatchEngine(cache=False, budget=budget).evaluate(
        load_assembly(unit["payload"]["assembly_json"]),
        unit["config"]["service"],
        [entry["actuals"] for entry in unit_entries],
    )
    return [
        {"request_index": int(entry["request_index"]), **_entry_record(outcome)}
        for entry, outcome in zip(unit_entries, result)
    ]


def _entry_record(entry) -> dict:
    """The journal form of one batch entry: its answer, or its typed error
    as class name, rendered chain and, if it has any, causes (see
    :func:`repro.workunits.runner.error_from_record`)."""
    if entry.ok:
        return {"pfail": entry.pfail, "backend": entry.backend}
    record = {
        "error": type(entry.error).__name__,
        "message": format_error_chain(entry.error),
    }
    causes = error_chain(entry.error)[1:]
    if causes:
        record["causes"] = list(causes)
    return record


def _execute_fuzz(unit: dict, budget) -> list[dict]:
    from repro.robustness.harness import run_fuzz_case
    from repro.robustness.mutator import Mutation

    config = unit["config"]
    cases: list[dict] = []
    for doc in unit["payload"]["cases"]:
        mutation = Mutation(
            doc["operator"], doc["detail"],
            data=doc.get("data"), text=doc.get("text"),
        )
        case = run_fuzz_case(
            int(doc["index"]),
            mutation,
            service=config["service"],
            actuals=config["actuals"],
            seed=config["seed"],
            trials=config["trials"],
            deadline=config["deadline"],
        )
        cases.append({
            "index": case.index,
            "operator": case.operator,
            "detail": case.detail,
            "status": case.status,
            "pfail": case.pfail,
            "tier": case.tier,
            "error": case.error,
        })
    return cases


_EXECUTORS = {
    "sweep": _execute_sweep,
    "batch": _execute_batch,
    "fuzz": _execute_fuzz,
}


# ---------------------------------------------------------------------------
# parent-side payload validation (workers may lie)
# ---------------------------------------------------------------------------


def validate_payload(unit: dict, payload) -> str | None:
    """Why ``payload`` is not a plausible result for ``unit`` (or ``None``).

    The supervisor treats an implausible payload exactly like a failed
    attempt (status ``corrupt``): retried, then quarantined.  Checks are
    structural — count and types — because the parent cannot recompute
    the values without redoing the work (that is what
    ``--validate-redundancy`` is for).
    """
    kind = unit["kind"]
    if kind == "sweep":
        expected = len(unit["payload"]["values"])
        if not isinstance(payload, list) or len(payload) != expected:
            return f"expected {expected} floats, got {payload!r:.80}"
        if not all(isinstance(v, float) for v in payload):
            return "non-float grid value in payload"
        return None
    if kind == "batch":
        entries = unit["payload"]["entries"]
        if not isinstance(payload, list) or len(payload) != len(entries):
            return f"expected {len(entries)} entries, got {payload!r:.80}"
        for record in payload:
            if not isinstance(record, dict) or "request_index" not in record:
                return "malformed batch entry record"
            if "pfail" not in record and "error" not in record:
                return "batch entry carries neither pfail nor error"
        return None
    if kind == "fuzz":
        cases = unit["payload"]["cases"]
        if not isinstance(payload, list) or len(payload) != len(cases):
            return f"expected {len(cases)} cases, got {payload!r:.80}"
        for record in payload:
            if not isinstance(record, dict) or "status" not in record:
                return "malformed fuzz case record"
        return None
    return f"unknown unit kind {kind!r}"  # pragma: no cover - ctor rejects
