"""Campaign journals written by earlier versions of the library.

The two sweep journals under ``journals/`` were written by the commit
that still had ``--solver``, with

    python -m repro sweep local.json search list --from 1 --to 1000 \\
        --points 12 --method numeric --set elem=1 res=1 \\
        --store sweep_default.jsonl            # and --solver dense

on the ``local`` scenario.  A default-flag journal must still resume as
a no-op with the same answers; a journal written with a setting that no
longer exists must be refused with a typed error naming it.

``batch_errors.jsonl`` was written by the commit that still rebuilt
journaled entry errors by class name alone, with

    python -m repro batch A --model rec.json --model local_a.json \
        --model local.json --at size=1 --at size=-1 \
        --at elem=1 list=500 res=1 --store batch_errors.jsonl

(the recursive scenario, the local scenario with ``search`` renamed to
``A``, and the plain local scenario, which has no ``A``; its unit was
quarantined).  It must replay as a no-op whose entries carry the class
and message a plain batch reports.
"""

import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from repro.analysis import sweep_parameter
from repro.dsl import assembly_from_dict, assembly_to_dict
from repro.engine import BatchEngine, BatchRequest
from repro.errors import CampaignStoreError
from repro.scenarios import local_assembly, recursive_assembly
from repro.workunits import (
    assemble_batch,
    assemble_sweep,
    batch_campaign,
    run_campaign,
    sweep_campaign,
)

JOURNALS = Path(__file__).parent / "journals"
FIXED = {"elem": 1.0, "res": 1.0}


def campaign():
    grid = [float(v) for v in np.linspace(1.0, 1000.0, 12)]
    return sweep_campaign(local_assembly(), "search", "list", grid, FIXED,
                          method="numeric")


def journal_copy(tmp_path, name):
    path = tmp_path / name
    shutil.copyfile(JOURNALS / name, path)
    return path


def test_default_journal_resumes_as_a_no_op(tmp_path):
    path = journal_copy(tmp_path, "sweep_default.jsonl")
    written = path.read_bytes()
    header = json.loads(written.splitlines()[0])
    sweep = campaign()
    assert sweep.campaign_id == header["campaign"]

    report = run_campaign(sweep, path)
    assert report.ok
    assert report.executed == set()
    assert report.resumed == len(sweep)
    assert path.read_bytes() == written
    resumed = assemble_sweep(sweep, report).pfail
    fresh = sweep_parameter(local_assembly(), "search", "list",
                            np.linspace(1.0, 1000.0, 12), FIXED,
                            method="numeric").pfail
    assert resumed.tobytes() == fresh.tobytes()


def test_dense_solver_journal_is_refused(tmp_path):
    path = journal_copy(tmp_path, "sweep_solver_dense.jsonl")
    written = path.read_bytes()
    with pytest.raises(CampaignStoreError, match="solver='dense'"):
        run_campaign(campaign(), path)
    assert path.read_bytes() == written


def test_incremental_journal_is_refused(tmp_path):
    path = journal_copy(tmp_path, "sweep_default.jsonl")
    lines = path.read_text().splitlines(keepends=True)
    header = json.loads(lines[0])
    header["config"]["incremental"] = True
    path.write_text(json.dumps(header) + "\n" + "".join(lines[1:]))
    with pytest.raises(CampaignStoreError, match="incremental=True"):
        run_campaign(campaign(), path)


def batch_models() -> list:
    renamed = assembly_to_dict(local_assembly())
    for service in renamed["services"]:
        if service["name"] == "search":
            service["name"] = "A"
    for binding in renamed["bindings"]:
        for end in ("consumer", "provider"):
            if binding[end] == "search":
                binding[end] = "A"
    return [
        ("rec.json", recursive_assembly()),
        ("local_a.json", assembly_from_dict(renamed)),
        ("local.json", local_assembly()),
    ]


def test_batch_error_journal_replays_the_plain_batch_errors(tmp_path):
    path = journal_copy(tmp_path, "batch_errors.jsonl")
    written = path.read_bytes()
    points = [{"size": 1.0}, {"size": -1.0},
              {"elem": 1.0, "list": 500.0, "res": 1.0}]
    models = batch_models()
    batch = batch_campaign(models, "A", points)
    assert batch.campaign_id == json.loads(written.splitlines()[0])["campaign"]

    report = run_campaign(batch, path)
    assert report.executed == set()
    assert len(report.quarantined) == 1  # the unit of the model without "A"
    assert path.read_bytes() == written
    plain = BatchEngine().run([
        BatchRequest(assembly, "A", point, label=label)
        for label, assembly in models
        for point in points
    ])

    def outcome(entry):
        if entry.ok:
            return entry.pfail
        return type(entry.error).__name__, str(entry.error)

    # the first two models' units replay; the third stays quarantined
    replayed = [outcome(e) for e in assemble_batch(batch, report)[:6]]
    assert replayed == [outcome(e) for e in plain.entries[:6]]
    assert replayed[1][0] == "AllTiersFailedError"
    assert replayed[3][0] == "UnboundParameterError"
