"""Assemble supervised campaign results back into the engine's shapes.

The supervisor deals in opaque unit payloads; this module turns a
finished :class:`~repro.workunits.supervisor.CampaignReport` back into
the objects the rest of the stack (and the CLI) already knows how to
render:

- sweep campaigns  → :class:`~repro.analysis.sweep.SweepResult`
  (quarantined slices appear as ``NaN`` — a hole, not a lie);
- batch campaigns  → ordered :class:`~repro.engine.batch.BatchEntry`
  rows with typed errors rebuilt as the plain batch raised them
  (:func:`error_from_record`);
- fuzz campaigns   → :class:`~repro.robustness.harness.FuzzReport`.

Because unit payloads are bit-identical across runs (PR 5 determinism)
and the assembly here is pure bookkeeping, a resumed campaign's rendered
output is byte-for-byte the output of the uninterrupted run.
"""

from __future__ import annotations

import math

from repro.errors import EvaluationError, ReproError, restore_error

from repro.workunits.supervisor import CampaignReport, Supervisor
from repro.workunits.units import Campaign

__all__ = [
    "assemble_batch",
    "assemble_fuzz",
    "assemble_sweep",
    "run_campaign",
]


def run_campaign(
    campaign: Campaign,
    store_path=None,
    **supervisor_options,
) -> CampaignReport:
    """Run ``campaign`` under a :class:`Supervisor`; journal to ``store_path``.

    Keyword options are forwarded to the supervisor (``jobs``,
    ``unit_timeout``, ``retries``, ``validate_redundancy``, ``budget``,
    ``chaos``, ``mode``, backoff tuning).
    """
    return Supervisor(campaign, **supervisor_options).run(store_path)


def assemble_sweep(campaign: Campaign, report: CampaignReport):
    """A :class:`~repro.analysis.sweep.SweepResult` from sweep units.

    Slices of quarantined units are filled with ``NaN`` so the grid keeps
    its shape — downstream tooling sees a visible hole instead of a
    silently shortened series.
    """
    import numpy as np

    from repro.analysis.sweep import SweepResult

    _require_kind(campaign, "sweep")
    config = campaign.config
    values: list[float] = []
    pfail: list[float] = []
    for unit in campaign.units:
        slice_values = [float(v) for v in unit.payload["values"]]
        values.extend(slice_values)
        payload = report.payload_for(unit)
        if payload is None:
            pfail.extend([math.nan] * len(slice_values))
        else:
            pfail.extend(float(v) for v in payload)
    return SweepResult(
        str(config.get("assembly", "")),
        str(config["service"]),
        str(config["parameter"]),
        np.asarray(values, dtype=float),
        np.asarray(pfail, dtype=float),
        dict(config["fixed"]),
    )


def error_from_record(record: dict) -> ReproError:
    """The typed error a journaled batch entry recorded.

    ``message`` holds :func:`~repro.errors.format_error_chain` of the
    error; stripping the ``"Type: "`` head and the ``(caused by …)`` tail
    rendered from ``causes`` gives back its ``str()``.  The error is then
    rebuilt by :func:`~repro.errors.restore_error`, as a pickled one is —
    so a campaign prints the class and message the plain batch prints.
    Records without ``causes`` (older journals) keep any tail in the
    message; a class this library no longer defines comes back as an
    :class:`EvaluationError` naming it.
    """
    from repro import errors as errors_module

    name = str(record.get("error", ""))
    message = str(record.get("message", ""))
    causes = tuple(record.get("causes", ()))
    message = message.removeprefix(f"{name}: ")
    if causes:
        message = message.removesuffix(
            " (caused by " + "; caused by ".join(causes) + ")"
        )
    cls = getattr(errors_module, name, None)
    if not (isinstance(cls, type) and issubclass(cls, ReproError)):
        cls, message = EvaluationError, f"{name}: {message}"
    return restore_error(cls, (message,), {}, causes)


def assemble_batch(campaign: Campaign, report: CampaignReport) -> list:
    """Ordered :class:`~repro.engine.batch.BatchEntry` rows from batch units.

    Entries of quarantined units become typed-error rows (class
    ``EvaluationError``, message naming the quarantine) at their original
    request index — the batch keeps submission order and length.
    """
    from repro.engine.batch import BatchEntry

    _require_kind(campaign, "batch")
    service = str(campaign.config["service"])
    entries: list = []
    for unit in campaign.units:
        label = str(unit.payload["label"])
        requested = {
            int(e["request_index"]): dict(e["actuals"])
            for e in unit.payload["entries"]
        }
        payload = report.payload_for(unit)
        if payload is None:
            reason = report.quarantined.get(
                unit.unit_id, "work unit not completed"
            )
            for index, actuals in requested.items():
                entries.append(BatchEntry(
                    index, label, service, actuals,
                    error=EvaluationError(
                        f"work unit {unit.unit_id[:12]} quarantined: "
                        f"{reason:.200}"
                    ),
                ))
            continue
        for record in payload:
            index = int(record["request_index"])
            actuals = requested[index]
            if "pfail" in record:
                entries.append(BatchEntry(
                    index, label, service, actuals,
                    pfail=float(record["pfail"]),
                    backend=str(record.get("backend", "")),
                ))
            else:
                entries.append(BatchEntry(
                    index, label, service, actuals,
                    error=error_from_record(record),
                ))
    entries.sort(key=lambda entry: entry.index)
    return entries


def assemble_fuzz(campaign: Campaign, report: CampaignReport):
    """A :class:`~repro.robustness.harness.FuzzReport` from fuzz units.

    Cases of quarantined units are absent from the report (their count is
    visible in the campaign summary); present cases carry exactly the
    classification the sequential harness would have produced.
    """
    from repro.robustness.harness import FuzzCase, FuzzReport

    _require_kind(campaign, "fuzz")
    fuzz = FuzzReport()
    for unit in campaign.units:
        payload = report.payload_for(unit)
        if payload is None:
            continue
        for record in payload:
            fuzz.cases.append(FuzzCase(
                index=int(record["index"]),
                operator=str(record["operator"]),
                detail=str(record["detail"]),
                status=str(record["status"]),
                pfail=record.get("pfail"),
                tier=record.get("tier"),
                error=str(record.get("error") or ""),
            ))
    fuzz.cases.sort(key=lambda case: case.index)
    fuzz.elapsed = report.elapsed
    return fuzz


def _require_kind(campaign: Campaign, kind: str) -> None:
    if campaign.kind != kind:
        raise EvaluationError(
            f"expected a {kind} campaign, got {campaign.kind!r}"
        )
