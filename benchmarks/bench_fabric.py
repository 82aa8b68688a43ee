"""Chaos benchmark for the distributed sweep fabric (``repro coordinate``).

Not a paper figure: this is the acceptance measurement for the
distributed sweep fabric.  A 200-cell sweep grid is driven through a
real ``repro coordinate`` process with three spawned ``repro worker``
subprocesses while a fault plan injects a worker crash, a hang, a
straggler, a network partition and a silent lease abandonment — plus
one coordinator kill right after a journaled commit.  Re-running the
identical command resumes the fleet from the journal.  The benchmark
asserts the fabric contract end to end — **zero lost cells, zero
duplicated cells, outcomes deterministically identical to a serial
``repro sweep``** — and records the measured lease/steal/expiry
traffic and recovery counts to ``BENCH_fabric.json`` at the repository
root (the numbers quoted in EXPERIMENTS.md).
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.cli import build_parser, format_table, _grid_specs
from repro.fabric import read_events
from repro.runner import SweepConfig, SweepEngine
from repro.runner.trace import deterministic_outcome_view
from repro.testing import (
    COORDINATOR_KILL,
    CRASH_WORKER,
    HANG_WORKER,
    LEASE_LOSS,
    PARTITION,
    STRAGGLER,
    Fault,
    FaultPlan,
)
REPO_ROOT = Path(__file__).resolve().parent.parent
ARTIFACT = REPO_ROOT / "BENCH_fabric.json"

#: 2 cases x 20 attacker seeds x 5 targets = 200 cells, fast analyzer
#: (the SMT analyzers' witnesses are not unit-boundary-deterministic).
GRID_ARGS = ["--cases", "5bus-study1,ieee14",
             "--targets", "1,2,3,4,5",
             "--scenarios", "20", "--analyzer", "fast"]
WORKERS = 3


def _specs():
    args = build_parser().parse_args(["coordinate"] + GRID_ARGS)
    return _grid_specs(args)


def _truth(specs):
    started = time.monotonic()
    sweep = SweepEngine(SweepConfig(workers=1, use_cache=False)).run(specs)
    elapsed = time.monotonic() - started
    assert not sweep.failures, sweep.failures
    views = {}
    for outcome in sweep.outcomes:
        views[outcome.spec.label] = \
            deterministic_outcome_view(outcome.to_dict())
    return views, elapsed


def _write_plan(specs, tmp_path):
    labels = [spec.label for spec in specs]
    faults = {
        labels[10]: Fault(kind=CRASH_WORKER, times=1),
        labels[60]: Fault(kind=HANG_WORKER, times=1, sleep_seconds=4.0),
        labels[100]: Fault(kind=STRAGGLER, times=1, sleep_seconds=4.0),
        labels[140]: Fault(kind=PARTITION, times=1),
        labels[180]: Fault(kind=LEASE_LOSS, times=1),
        # The resume path's worst case: die right after a journaled
        # commit, mid-grid.
        labels[40]: Fault(kind=COORDINATOR_KILL, times=1),
    }
    plan = FaultPlan.build(tmp_path / "state", faults)
    return plan.to_file(tmp_path / "faults.json"), len(faults)


def _coordinate(tmp_path, plan_path, timeout=300):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep \
        + env.get("PYTHONPATH", "")
    env["REPRO_FAULTS"] = str(plan_path)
    command = [sys.executable, "-m", "repro", "coordinate"] \
        + GRID_ARGS + [
        "--journal", str(tmp_path / "j.jsonl"), "--no-cache",
        "--spawn", str(WORKERS), "--unit-cells", "5",
        "--lease-ttl", "2", "--steal-after", "2",
        "--trace", str(tmp_path / "trace.json")]
    started = time.monotonic()
    run = subprocess.run(command, cwd=str(tmp_path), env=env,
                         capture_output=True, text=True,
                         timeout=timeout)
    return run, time.monotonic() - started


@pytest.mark.paper("robustness chaos (sweep fabric, not a paper figure)")
def test_fabric_chaos_zero_lost_zero_duplicated(tmp_path):
    specs = _specs()
    truth, serial_seconds = _truth(specs)
    plan_path, injected = _write_plan(specs, tmp_path)

    # First run dies with the resumable exit code when the injected
    # coordinator kill lands right after a journaled commit.
    first, first_seconds = _coordinate(tmp_path, plan_path)
    assert first.returncode == 5, (first.returncode, first.stdout,
                                   first.stderr)

    # The identical command resumes the fleet from the journal and
    # completes the grid.
    rerun, rerun_seconds = _coordinate(tmp_path, plan_path)
    assert rerun.returncode == 0, (rerun.returncode, rerun.stdout,
                                   rerun.stderr)
    assert "(resumed from journal)" in rerun.stdout
    banner = [line for line in rerun.stdout.splitlines()
              if "already resolved" in line][0]
    recovered = int(banner.split("journal)")[0].rsplit(",", 1)[1])
    assert recovered >= 1, banner

    # Zero lost, zero duplicated, outcomes identical to the serial run.
    trace = json.loads((tmp_path / "trace.json").read_text())
    views = {}
    for payload in trace["scenarios"]:
        label = payload["spec"]["label"]
        assert label not in views, f"duplicate cell: {label}"
        views[label] = deterministic_outcome_view(payload)
    assert set(views) == set(truth)                      # zero lost
    wrong = [label for label in truth if views[label] != truth[label]]
    assert not wrong, wrong                              # zero wrong

    # Lease traffic across both generations (the rotated generation-0
    # journal plus the live generation-1 file).
    generations = [read_events(tmp_path / "j.jsonl.1"),
                   read_events(tmp_path / "j.jsonl")]
    for gen in generations:
        commits = [e["unit"] for e in gen if e["event"] == "commit"]
        assert len(commits) == len(set(commits)), commits
    events = generations[0] + generations[1]
    kinds = [e["event"] for e in events]
    redispatched = sum(1 for e in events
                       if e["event"] in ("lease", "steal")
                       and e.get("attempt", 1) >= 2)
    assert redispatched >= 1, kinds

    record = {
        "cells": len(specs),
        "workers": WORKERS,
        "injected_faults": injected,
        "coordinator_kills": 1,
        "lost": 0,
        "duplicated": 0,
        "wrong": 0,
        "recovered_from_journal": recovered,
        "leases": kinds.count("lease"),
        "steals": kinds.count("steal"),
        "expiries": kinds.count("expire"),
        "redispatched": redispatched,
        "duplicate_commits": kinds.count("duplicate"),
        "committed_units": kinds.count("commit"),
        "serial_seconds": round(serial_seconds, 2),
        "fabric_seconds": round(first_seconds + rerun_seconds, 2),
    }
    ARTIFACT.write_text(json.dumps(record, indent=2) + "\n")
    print()
    print(format_table(
        "Fabric chaos (200 cells, 5 worker faults, 1 coordinator kill)",
        ["metric", "value"],
        [[k, str(v)] for k, v in record.items()]))
