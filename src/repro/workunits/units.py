"""Self-describing work units: shard a campaign into resumable pieces.

A :class:`WorkUnit` is the atom of a fault-tolerant campaign: everything a
fresh worker process — today or after a host restart — needs to produce
its slice of the results:

- the **model** as canonical ``repro/1`` JSON plus its structural
  fingerprint (live assemblies do not pickle and would not survive a
  restart anyway);
- the **configuration** that affects results (solver backend, kernel
  compilation, evaluation method, seeds);
- the **slice**: a contiguous run of grid values, batch points or fuzz
  cases.

Each unit carries a stable **content-hash id** — the SHA-256 of its
canonical JSON form — so a results journal written yesterday still knows
exactly which units of today's campaign are done: same inputs ⇒ same unit
ids ⇒ exact resume.  The PR 5 determinism audit guarantees the other half:
same unit ⇒ bit-identical result payload, which is what makes redundant
validation and resume-equals-uninterrupted possible at all.

Sharding is **independent of the worker count** (fixed slice sizes, not
``jobs``-derived), so a campaign started with ``--jobs 8`` can resume with
``--jobs 2`` and the unit ids still line up.
"""

from __future__ import annotations

import hashlib
import json
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field

from repro.errors import EvaluationError
from repro.model.assembly import Assembly

__all__ = [
    "Campaign",
    "WorkUnit",
    "batch_campaign",
    "fuzz_campaign",
    "sweep_campaign",
]

#: Default slice sizes per campaign kind — small enough that losing a unit
#: to a crash wastes little work, large enough to amortize dispatch cost.
SWEEP_POINTS_PER_UNIT = 8
BATCH_POINTS_PER_UNIT = 4
FUZZ_CASES_PER_UNIT = 4

_SCHEMA = "repro/workunits/1"


def _canonical(document) -> str:
    return json.dumps(document, sort_keys=True, separators=(",", ":"))


@dataclass(frozen=True)
class WorkUnit:
    """One self-describing slice of a campaign.

    Attributes:
        kind: ``"sweep"``, ``"batch"`` or ``"fuzz"``.
        index: ordinal position within the campaign (0-based; chaos
            schedules and result assembly key on it).
        fingerprint: structural fingerprint of the model the unit
            evaluates (the batch kind may span one model per unit).
        config: result-affecting configuration (solver, method, seed,
            trials, ...), shared across the campaign.
        payload: the slice itself — ``assembly_json`` plus kind-specific
            data (``values``/``entries``/``cases``).
    """

    kind: str
    index: int
    fingerprint: str
    config: Mapping[str, object]
    payload: Mapping[str, object]
    unit_id: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        if self.kind not in ("sweep", "batch", "fuzz"):
            raise EvaluationError(f"unknown work-unit kind {self.kind!r}")
        if not self.unit_id:
            object.__setattr__(self, "unit_id", self._content_hash())

    def _content_hash(self) -> str:
        document = {
            "schema": _SCHEMA,
            "kind": self.kind,
            "index": self.index,
            "fingerprint": self.fingerprint,
            "config": dict(self.config),
            "payload": dict(self.payload),
        }
        return hashlib.sha256(_canonical(document).encode("utf-8")).hexdigest()

    def to_dict(self) -> dict:
        """Plain-data form (shipped to workers, hashed for the id)."""
        return {
            "kind": self.kind,
            "index": self.index,
            "fingerprint": self.fingerprint,
            "config": dict(self.config),
            "payload": dict(self.payload),
            "unit_id": self.unit_id,
        }

    @classmethod
    def from_dict(cls, document: Mapping) -> "WorkUnit":
        return cls(
            kind=document["kind"],
            index=int(document["index"]),
            fingerprint=document["fingerprint"],
            config=dict(document["config"]),
            payload=dict(document["payload"]),
            unit_id=document.get("unit_id", ""),
        )


@dataclass(frozen=True)
class Campaign:
    """An ordered set of work units plus the shared configuration.

    The ``campaign_id`` digests the unit ids and config, so a results
    store written for one campaign refuses to resume a different one
    (different model, grid, seed or solver ⇒ different id).
    """

    kind: str
    units: tuple[WorkUnit, ...]
    config: Mapping[str, object]
    campaign_id: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        if not self.units:
            raise EvaluationError("a campaign needs at least one work unit")
        if not self.campaign_id:
            digest = hashlib.sha256()
            digest.update(_canonical(dict(self.config)).encode("utf-8"))
            for unit in self.units:
                digest.update(unit.unit_id.encode("ascii"))
            object.__setattr__(self, "campaign_id", digest.hexdigest())

    def __len__(self) -> int:
        return len(self.units)

    def unit_by_id(self, unit_id: str) -> WorkUnit:
        for unit in self.units:
            if unit.unit_id == unit_id:
                return unit
        raise EvaluationError(f"no unit {unit_id!r} in this campaign")


def _slices(count: int, per_unit: int) -> list[tuple[int, int]]:
    """Contiguous ``(start, stop)`` slices of fixed size (last may be short)."""
    per_unit = max(1, int(per_unit))
    return [
        (start, min(start + per_unit, count))
        for start in range(0, count, per_unit)
    ]


def _per_unit(total: int, units: int | None, default: int) -> int:
    """Slice size from an explicit unit-count request or the kind default."""
    if units is None:
        return default
    units = int(units)
    if units < 1:
        raise EvaluationError(f"units must be >= 1, got {units}")
    return max(1, -(-total // units))  # ceil division


# ---------------------------------------------------------------------------
# campaign builders
# ---------------------------------------------------------------------------


def sweep_campaign(
    assembly: Assembly,
    service: str,
    parameter: str,
    values: Sequence[float],
    fixed: Mapping[str, float] | None = None,
    *,
    method: str = "symbolic",
    solver: str = "auto",
    incremental: bool = False,
    units: int | None = None,
) -> Campaign:
    """Shard a parameter sweep into work units.

    Mirrors :func:`repro.analysis.sweep_parameter`: each unit evaluates a
    contiguous slice of the grid through the same backend, so the
    concatenated unit payloads are element-for-element identical to the
    sequential sweep.

    Args:
        assembly: the assembly under analysis.
        service: the evaluated service name.
        parameter: the swept formal parameter.
        values: the full grid (ascending or not — order is preserved).
        fixed: the non-swept actuals.
        method: ``"symbolic"`` or ``"numeric"`` (as in ``sweep_parameter``).
        solver: linear-solver backend for the numeric method.
        incremental: low-rank (Sherman-Morrison-Woodbury) re-solve updates
            for the numeric method (:mod:`repro.markov.updates`); recorded
            in the config — and the campaign id — only when enabled, so
            journals written before the flag existed still resume.
        units: optional shard count (default: ``ceil(points / 8)``).
    """
    from repro.engine.fingerprint import assembly_fingerprint, canonical_json

    if method not in ("symbolic", "numeric"):
        raise EvaluationError(f"unknown sweep method {method!r}")
    grid = [float(v) for v in values]
    if not grid:
        raise EvaluationError("sweep values must be a non-empty sequence")
    # same formal-parameter validation as the direct sweep path
    svc = assembly.service(service)
    if parameter not in svc.formal_parameters:
        raise EvaluationError(
            f"{parameter!r} is not a formal parameter of {service!r} "
            f"(has {svc.formal_parameters})"
        )
    assembly_json = canonical_json(assembly)
    fingerprint = assembly_fingerprint(assembly)
    config = {
        "assembly": assembly.name,
        "method": method,
        "solver": str(solver),
        "compile": True,  # constant: unit and campaign ids must not move
        "service": service,
        "parameter": parameter,
        "fixed": {k: float(v) for k, v in dict(fixed or {}).items()},
    }
    if incremental:
        config["incremental"] = True
    per_unit = _per_unit(len(grid), units, SWEEP_POINTS_PER_UNIT)
    built = [
        WorkUnit(
            kind="sweep",
            index=index,
            fingerprint=fingerprint,
            config=config,
            payload={
                "assembly_json": assembly_json,
                "start": start,
                "values": grid[start:stop],
            },
        )
        for index, (start, stop) in enumerate(_slices(len(grid), per_unit))
    ]
    return Campaign("sweep", tuple(built), {**config, "points": len(grid)})


def batch_campaign(
    models: Sequence[tuple[str, Assembly]],
    service: str,
    points: Sequence[Mapping[str, float]] | None,
    *,
    solver: str = "auto",
    incremental: bool = False,
    units: int | None = None,
) -> Campaign:
    """Shard a batch (many models × many points) into work units.

    Requests enumerate exactly as ``python -m repro batch`` does — every
    model at every point, models outermost — and each request keeps its
    global ``request_index`` so results reassemble in submission order.
    Units never span models (each carries one model's JSON).

    Args:
        models: ``(label, assembly)`` pairs, in submission order.
        points: the evaluation points; ``None`` evaluates each model at
            its domain-representative defaults (as the CLI does).
        solver: linear-solver backend threaded into every plan.
        incremental: low-rank re-solve updates for numeric plan backends
            (recorded in the config only when enabled, as in
            :func:`sweep_campaign`).
        units: optional shard count (default: ``ceil(requests / 4)``).
    """
    from repro.engine.fingerprint import assembly_fingerprint, canonical_json
    from repro.robustness.harness import domain_representative

    if not models:
        raise EvaluationError("a batch campaign needs at least one model")
    # "compile" is a constant: unit and campaign ids must not move
    config = {"solver": str(solver), "compile": True, "service": service}
    if incremental:
        config["incremental"] = True
    total = 0
    per_model: list[tuple[str, Assembly, list[dict]]] = []
    for label, assembly in models:
        if points is None:
            svc = assembly.service(service)
            model_points = [{
                p.name: domain_representative(p.domain)
                for p in svc.interface.formal_parameters
            }]
        else:
            model_points = [dict(p) for p in points]
        entries = []
        for point in model_points:
            entries.append({
                "request_index": total,
                "actuals": {k: float(v) for k, v in point.items()},
            })
            total += 1
        per_model.append((label, assembly, entries))

    per_unit = _per_unit(total, units, BATCH_POINTS_PER_UNIT)
    built: list[WorkUnit] = []
    for label, assembly, entries in per_model:
        assembly_json = canonical_json(assembly)
        fingerprint = assembly_fingerprint(assembly)
        for start, stop in _slices(len(entries), per_unit):
            built.append(
                WorkUnit(
                    kind="batch",
                    index=len(built),
                    fingerprint=fingerprint,
                    config=config,
                    payload={
                        "assembly_json": assembly_json,
                        "label": label,
                        "entries": entries[start:stop],
                    },
                )
            )
    return Campaign("batch", tuple(built), {**config, "requests": total})


def fuzz_campaign(
    assembly: Assembly,
    count: int,
    *,
    seed: int = 0,
    service: str | None = None,
    actuals: Mapping[str, float] | None = None,
    trials: int = 2_000,
    deadline: float = 10.0,
    operators: tuple[str, ...] | None = None,
    units: int | None = None,
) -> Campaign:
    """Shard a fuzz campaign into work units.

    The mutation corpus is generated here, up front, in the exact order
    :class:`~repro.robustness.FuzzHarness` would generate it (same seed ⇒
    same corpus), then sliced into blocks.  Each case's simulation seed
    depends only on its index, so a case classifies identically no matter
    which worker, attempt or resumed run executes it.

    Args:
        assembly: the healthy base assembly to corrupt.
        count: number of mutated models.
        seed: mutation + simulation seed.
        service: target service (default: auto-detected top composite).
        actuals: actual parameters (default: domain representatives).
        trials: Monte Carlo trials for the degradation tier.
        deadline: per-case cooperative wall-clock budget in seconds.
        operators: restrict mutation operators (default: all).
        units: optional shard count (default: ``ceil(count / 4)``).
    """
    from repro.engine.fingerprint import assembly_fingerprint
    from repro.robustness.harness import default_target
    from repro.robustness.mutator import ModelMutator

    if count < 1:
        raise EvaluationError(f"fuzz count must be >= 1, got {count}")
    if service is None or actuals is None:
        detected_service, detected_actuals = default_target(assembly)
        service = service if service is not None else detected_service
        actuals = actuals if actuals is not None else detected_actuals
    mutator = ModelMutator(assembly, seed=seed, operators=operators)
    corpus = [
        {
            "index": index,
            "operator": mutation.operator,
            "detail": mutation.detail,
            "data": mutation.data,
            "text": mutation.text,
        }
        for index, mutation in enumerate(mutator.generate(count))
    ]
    fingerprint = assembly_fingerprint(assembly)
    config = {
        "service": service,
        "actuals": {k: float(v) for k, v in dict(actuals).items()},
        "seed": int(seed),
        "trials": int(trials),
        "deadline": float(deadline),
    }
    per_unit = _per_unit(count, units, FUZZ_CASES_PER_UNIT)
    built = [
        WorkUnit(
            kind="fuzz",
            index=index,
            fingerprint=fingerprint,
            config=config,
            payload={"cases": corpus[start:stop]},
        )
        for index, (start, stop) in enumerate(_slices(count, per_unit))
    ]
    return Campaign("fuzz", tuple(built), {**config, "count": count})
