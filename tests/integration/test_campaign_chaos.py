"""Chaos tests: campaigns survive crashed, hung and killed processes.

These are the acceptance tests of the fault-tolerance contract:

- a worker SIGKILLed mid-campaign (chaos ``crash``) never sinks the run —
  the pool is rebuilt and the unit retried;
- a hung worker is killed by the per-unit timeout and retried;
- a poison unit (crashes every attempt) ends in quarantine, not an
  infinite crash loop, and the rest of the campaign completes;
- a campaign whose *supervisor process* is SIGKILLed mid-run resumes
  from its journal with byte-identical stdout.

Everything here uses real process pools and real signals; chaos
schedules keep the runs deterministic.
"""

import math
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.robustness import ChaosPolicy
from repro.scenarios import local_assembly
from repro.workunits import (
    assemble_sweep,
    load_state,
    run_campaign,
    sweep_campaign,
)

GRID = [float(v) for v in range(1, 13)]
FIXED = {"elem": 1.0, "res": 1.0}


def sweep12(units=4):
    return sweep_campaign(
        local_assembly(), "search", "list", GRID, FIXED, units=units
    )


def reference_pfail(campaign):
    report = run_campaign(campaign, None)
    assert report.ok
    return list(assemble_sweep(campaign, report).pfail)


class TestWorkerChaos:
    def test_sigkilled_worker_recovers_bit_identically(self, tmp_path):
        campaign = sweep12()
        report = run_campaign(
            campaign, tmp_path / "s.jsonl",
            chaos=ChaosPolicy.parse("crash@1"),
            retries=2,
        )
        assert report.complete and not report.quarantined
        assert report.pool_restarts >= 1
        state = load_state(tmp_path / "s.jsonl")
        crashed = campaign.units[1].unit_id
        assert state.attempts[crashed] >= 2  # crashed once, then succeeded
        assert list(assemble_sweep(campaign, report).pfail) == \
            reference_pfail(campaign)

    def test_hung_worker_is_timed_out_and_retried(self, tmp_path):
        campaign = sweep12()
        started = time.monotonic()
        report = run_campaign(
            campaign, tmp_path / "s.jsonl",
            chaos=ChaosPolicy(((2, "hang", 1),), hang_seconds=120.0),
            unit_timeout=3.0, retries=2,
        )
        elapsed = time.monotonic() - started
        assert report.complete and not report.quarantined
        assert report.pool_restarts >= 1
        assert elapsed < 60.0  # nowhere near the 120 s hang
        # journal carries the timeout attempt for the hung unit
        raw = (tmp_path / "s.jsonl").read_text()
        assert '"status":"timeout"' in raw
        assert list(assemble_sweep(campaign, report).pfail) == \
            reference_pfail(campaign)

    def test_poison_unit_is_quarantined_not_fatal(self, tmp_path):
        campaign = sweep12()
        report = run_campaign(
            campaign, tmp_path / "s.jsonl",
            chaos=ChaosPolicy.parse("crash@3x*"),
            retries=1,
        )
        # the campaign finishes despite a unit that kills every host
        assert report.complete
        poisoned = campaign.units[3].unit_id
        assert poisoned in report.quarantined
        assert len(report.results) == len(campaign) - 1
        sweep = assemble_sweep(campaign, report)
        healthy = reference_pfail(campaign)
        for index, value in enumerate(sweep.pfail):
            if 9 <= index < 12:  # the poisoned slice (unit 3 of 4)
                assert math.isnan(value)
            else:
                assert value == healthy[index]


@pytest.mark.slow
class TestSupervisorKilled:
    """Kill the whole campaign process, then resume from the journal."""

    def _run_cli(self, args, timeout=120):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(__file__).resolve().parents[2] / "src")
        return subprocess.run(
            [sys.executable, "-m", "repro", *args],
            capture_output=True, text=True, timeout=timeout, env=env,
        )

    def test_killed_campaign_resumes_bit_identically(self, tmp_path):
        model = tmp_path / "local.json"
        export = self._run_cli(["export-scenario", "local", "-o", str(model)])
        assert export.returncode == 0, export.stderr
        sweep_args = [
            "sweep", str(model), "search", "list",
            "--from", "1", "--to", "12", "--points", "12",
            "--set", "elem=1", "res=1", "--units", "6",
        ]
        store = tmp_path / "campaign.jsonl"

        # start a campaign whose unit 4 hangs forever, in its own process
        # group so the SIGKILL also reaps the hung pool worker
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(__file__).resolve().parents[2] / "src")
        victim = subprocess.Popen(
            [sys.executable, "-m", "repro", *sweep_args,
             "--store", str(store), "--chaos", "hang@4x*",
             "--unit-timeout", "600"],
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            start_new_session=True, env=env,
        )
        try:
            # wait until the journal proves real progress (>= 2 done units)
            deadline = time.monotonic() + 90.0
            while time.monotonic() < deadline:
                if store.exists() and len(load_state(store).results) >= 2:
                    break
                if victim.poll() is not None:
                    pytest.fail("campaign exited before it could be killed")
                time.sleep(0.1)
            else:
                pytest.fail("campaign made no journaled progress in time")
            os.killpg(os.getpgid(victim.pid), signal.SIGKILL)
            victim.wait(timeout=30)
        finally:
            if victim.poll() is None:  # pragma: no cover - cleanup path
                os.killpg(os.getpgid(victim.pid), signal.SIGKILL)

        interrupted = load_state(store)
        done_before = len(interrupted.results)
        assert 2 <= done_before < 6  # killed mid-campaign, journal intact

        # resume (no chaos): finishes only the missing units ...
        resumed = self._run_cli(
            [*sweep_args, "--resume", str(store)], timeout=180
        )
        assert resumed.returncode == 0, resumed.stderr
        assert f"{done_before} resumed" in resumed.stderr

        # ... and stdout is byte-identical to a never-interrupted campaign
        fresh_store = tmp_path / "fresh.jsonl"
        fresh = self._run_cli(
            [*sweep_args, "--store", str(fresh_store)], timeout=180
        )
        assert fresh.returncode == 0, fresh.stderr
        assert resumed.stdout == fresh.stdout
