"""Campaign journals written before the ``solver``/``incremental`` options
were retired.

Both journals under ``journals/`` were written by the commit that still
had ``--solver``, with

    python -m repro sweep local.json search list --from 1 --to 1000 \\
        --points 12 --method numeric --set elem=1 res=1 \\
        --store sweep_default.jsonl            # and --solver dense

on the ``local`` scenario.  A default-flag journal must still resume as
a no-op with the same answers; a journal written with a setting that no
longer exists must be refused with a typed error naming it.
"""

import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from repro.analysis import sweep_parameter
from repro.errors import CampaignStoreError
from repro.scenarios import local_assembly
from repro.workunits import assemble_sweep, run_campaign, sweep_campaign

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
