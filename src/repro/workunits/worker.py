"""The campaign worker: execute one work unit in a sacrificial process.

Module-level and driven entirely by plain-data payloads (process pools
pickle by name), like :mod:`repro.engine.parallel`'s workers — but with a
harder contract: the supervisor assumes a worker may **die, hang or lie**
at any point, so nothing here is trusted until the parent has validated
the returned payload shape.

A worker payload carries the unit's dict form, the attempt number, a
cooperative deadline (the smaller of the per-unit timeout and the
campaign budget's remaining time), and optionally a
:class:`~repro.robustness.chaos.ChaosPolicy` — the fault-injection hook
the chaos tests and the chaos-smoke CI job use to force crashes, hangs
and corrupted results on schedule.

Outcomes are dicts, not exceptions: ``{"status": "done", "payload": ...}``
or ``{"status": "failed", "error": "<flattened cause chain>"}``.  Typed
errors inside a unit are *data* (the unit will be retried or
quarantined); only infrastructure death (no return at all) is left for
the supervisor to detect.
"""

from __future__ import annotations

import time

from repro.engine.parallel import (
    _begin_worker_observation,
    _ship_worker_observation,
    worker_budget,
)
from repro.errors import ReproError, format_error_chain

__all__ = ["execute_unit", "validate_payload"]


def execute_unit(payload: dict) -> dict:
    """Execute one work unit; returns an outcome dict (never raises
    :class:`~repro.errors.ReproError`).

    Payload keys: ``unit`` (dict form of a
    :class:`~repro.workunits.units.WorkUnit`), ``attempt`` (1-based),
    ``deadline`` (cooperative seconds or ``None``), ``chaos`` (optional
    :class:`~repro.robustness.chaos.ChaosPolicy`), plus the standard
    ``observe``/``dispatched_at`` observability keys.
    """
    owned = _begin_worker_observation(payload)
    unit = payload["unit"]
    attempt = int(payload.get("attempt", 1))
    chaos = payload.get("chaos")
    if chaos is not None:
        chaos.apply_before(unit["index"], attempt)
    budget = worker_budget(payload.get("deadline"))
    started = time.perf_counter()
    try:
        result = _EXECUTORS[unit["kind"]](unit, budget)
        outcome = {"status": "done", "payload": result}
    except ReproError as exc:
        outcome = {"status": "failed", "error": format_error_chain(exc)}
    outcome["elapsed"] = time.perf_counter() - started
    if chaos is not None:
        outcome = chaos.corrupt_outcome(unit["index"], attempt, outcome)
    return _ship_worker_observation(outcome, owned)


# ---------------------------------------------------------------------------
# kind-specific executors
# ---------------------------------------------------------------------------


def _execute_sweep(unit: dict, budget) -> list[float]:
    from repro.dsl import load_assembly

    config = unit["config"]
    values = [float(v) for v in unit["payload"]["values"]]
    assembly = load_assembly(unit["payload"]["assembly_json"])
    if config["method"] == "numeric":
        from repro.core.evaluator import ReliabilityEvaluator

        evaluator = ReliabilityEvaluator(
            assembly, validate=False, check_domains=False, budget=budget
        )
        fixed = config["fixed"]
        parameter = config["parameter"]
        return [
            float(evaluator.pfail(
                config["service"], **{**fixed, parameter: v}
            ))
            for v in values
        ]
    from repro.engine.plan import compile_plan

    plan = compile_plan(
        assembly, config["service"], backend="symbolic", budget=budget
    )
    grid = plan.pfail_grid(
        config["parameter"], values, config["fixed"], budget=budget
    )
    return [float(v) for v in grid]


def _execute_batch(unit: dict, budget) -> list[dict]:
    from repro.dsl import load_assembly
    from repro.engine.plan import compile_plan

    config = unit["config"]
    assembly = load_assembly(unit["payload"]["assembly_json"])
    plan = compile_plan(assembly, config["service"], budget=budget)
    unit_entries = unit["payload"]["entries"]
    if plan.backend == "symbolic" and len(unit_entries) > 1:
        # one stacked kernel call for the whole unit (bitwise-identical
        # to the loop); any error falls back so isolation stays per-point
        try:
            stacked = plan.pfail_stack(
                [entry["actuals"] for entry in unit_entries], budget=budget
            )
        except ReproError:
            pass
        else:
            return [
                {
                    "request_index": int(entry["request_index"]),
                    "pfail": float(stacked[i]),
                    "backend": plan.backend,
                }
                for i, entry in enumerate(unit_entries)
            ]
    entries: list[dict] = []
    for entry in unit_entries:
        record = {"request_index": int(entry["request_index"])}
        try:
            record["pfail"] = float(
                plan.pfail(entry["actuals"], budget=budget)
            )
            record["backend"] = plan.backend
        except ReproError as exc:
            # per-point isolation, as in BatchEngine: a bad point is a
            # typed error entry, not a failed unit
            record["error"] = type(exc).__name__
            record["message"] = format_error_chain(exc)
        entries.append(record)
    return entries


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
