"""Chaos acceptance for the distributed sweep fabric.

The contract under test: a fleet of real ``repro worker`` subprocesses
driving a grid through a coordinator must finish with **zero lost
cells, zero duplicated cells, and outcomes deterministically identical
to a single-machine ``repro sweep``** — under injected worker crashes,
hangs, stragglers, network partitions, silent lease abandonment, a
SIGKILLed worker, and a coordinator killed mid-run and resumed from its
journal (process-level, exit code 5, like ``sweep``).
"""

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

from repro.cli import build_parser, _grid_specs
from repro.fabric import Coordinator, CoordinatorConfig, read_events
from repro.runner import SweepConfig, SweepEngine
from repro.runner.trace import deterministic_outcome_view
from repro.testing import (
    CRASH_WORKER,
    HANG_WORKER,
    LEASE_LOSS,
    PARTITION,
    STRAGGLER,
    Fault,
    FaultPlan,
)

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC = REPO_ROOT / "src"

GRID_ARGS = ["--cases", "ieee30", "--targets", "1,2,3,4",
             "--scenarios", "3", "--analyzer", "fast"]


def subprocess_env(plan_path=None):
    """The child's environment; *plan_path* goes to the child only (the
    in-process coordinator must not read the plan)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    if plan_path is not None:
        env["REPRO_FAULTS"] = str(plan_path)
    return env


def grid_specs():
    args = build_parser().parse_args(["coordinate"] + GRID_ARGS)
    return _grid_specs(args)


def serial_views(specs):
    sweep = SweepEngine(SweepConfig(workers=1, use_cache=False)).run(specs)
    assert not sweep.failures, sweep.failures
    views = {}
    for outcome in sweep.outcomes:
        views[outcome.spec.label] = \
            deterministic_outcome_view(outcome.to_dict())
    return views


def fabric_views(trace):
    views = {}
    for outcome in trace.outcomes:
        label = outcome.spec.label
        assert label not in views, f"duplicate cell: {label}"
        views[label] = deterministic_outcome_view(outcome.to_dict())
    return views


def assert_views_equal(views, truth):
    """``views == truth``, naming every differing label and field."""
    differing = {}
    for label in sorted(set(views) | set(truth)):
        got, want = views.get(label), truth.get(label)
        if got == want:
            continue
        if got is None or want is None:
            differing[label] = "missing" if got is None else "unexpected"
            continue
        differing[label] = {field: {"fabric": got.get(field),
                                    "serial": want.get(field)}
                            for field in sorted(set(got) | set(want))
                            if got.get(field) != want.get(field)}
    assert views == truth, differing


def spawn_worker(url, tmp_path, plan_path=None, worker_id=None):
    host_port = url.split("//", 1)[1]
    command = [sys.executable, "-m", "repro", "worker",
               "--connect", host_port, "--no-cache"]
    if worker_id is not None:
        command += ["--id", worker_id]
    return subprocess.Popen(command, cwd=str(tmp_path),
                            env=subprocess_env(plan_path),
                            stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)


def test_fault_storm_fleet_matches_serial(tmp_path):
    """Crash + hang + straggle + partition + silent abandonment, all at
    once.

    Every fault is charged exactly once (shared marker ledger), so each
    disturbed unit's re-dispatch succeeds; the straggler's late commit
    must come back as a duplicate, not a second result, and the hung
    worker's lease must lapse before it resumes.
    """
    specs = grid_specs()
    truth = serial_views(specs)
    labels = [spec.label for spec in specs]
    plan = FaultPlan.build(tmp_path / "state", {
        labels[0]: Fault(kind=CRASH_WORKER, times=1),
        labels[1]: Fault(kind=HANG_WORKER, times=1, sleep_seconds=4.0),
        labels[3]: Fault(kind=STRAGGLER, times=1, sleep_seconds=5.0),
        labels[6]: Fault(kind=PARTITION, times=1),
        labels[9]: Fault(kind=LEASE_LOSS, times=1),
    })
    plan_path = plan.to_file(tmp_path / "faults.json")

    config = CoordinatorConfig(
        journal_path=str(tmp_path / "j.jsonl"), cache_dir=None,
        unit_cells=1, lease_ttl=1.5, steal_after=2.0)
    coordinator = Coordinator(specs, config).start()
    procs = []
    try:
        procs = [spawn_worker(coordinator.url, tmp_path, plan_path,
                              worker_id=f"chaos{i}") for i in range(3)]
        assert coordinator.wait(timeout=240.0)
        # Let the straggler's late duplicate commit land before the
        # endpoint disappears.
        for proc in procs:
            proc.wait(timeout=60.0)
        trace = coordinator.trace(1.0, workers=3)
        status = coordinator.status()
    finally:
        coordinator.shutdown()
        for proc in procs:
            if proc.poll() is None:
                proc.kill()

    # Zero lost, zero duplicated, outcomes identical to serial.
    assert status["failed"] == 0
    views = fabric_views(trace)
    assert set(views) == set(labels)
    assert_views_equal(views, truth)

    # The faults actually bit: the crashed/hung/abandoned units expired
    # and were re-dispatched; the straggler's unit was stolen and its
    # late commit deduplicated.
    events = read_events(tmp_path / "j.jsonl")
    kinds = [e["event"] for e in events]
    assert kinds.count("expire") >= 3, kinds
    units = next(e for e in events if e["event"] == "plan")["units"]
    hung = next(i for i, unit in enumerate(units) if 1 in unit)
    assert any(e["event"] == "expire" and e["unit"] == hung
               for e in events), "the hung worker's lease never lapsed"
    assert "steal" in kinds, kinds
    assert "duplicate" in kinds, kinds
    assert any(e["event"] == "lease" and e["attempt"] >= 2
               for e in events)
    # One worker died to the injected crash (exit 23), the rest saw
    # the grid complete.
    codes = sorted(proc.returncode for proc in procs)
    assert 23 in codes, codes
    assert codes.count(0) == 2, codes


def test_sigkilled_worker_unit_is_redispatched(tmp_path):
    """A worker SIGKILLed mid-lease loses its unit to the fleet, not
    to the run: the lease expires and another worker finishes it."""
    specs = grid_specs()
    truth = serial_views(specs)
    # A straggler fault pins one unit (with heartbeats) for seconds;
    # the journal names the worker holding it, and that one gets the
    # kill — so a held lease provably dies with its worker.  Stealing
    # is off: recovery must come from lease expiry alone.
    plan = FaultPlan.build(tmp_path / "state", {
        specs[0].label: Fault(kind=STRAGGLER, times=1,
                              sleep_seconds=6.0),
    })
    plan_path = plan.to_file(tmp_path / "faults.json")
    config = CoordinatorConfig(
        journal_path=str(tmp_path / "j.jsonl"), cache_dir=None,
        unit_cells=1, lease_ttl=1.5, steal_after=600.0)
    coordinator = Coordinator(specs, config).start()
    procs = {}
    try:
        procs = {f"k{i}": spawn_worker(coordinator.url, tmp_path,
                                       plan_path, worker_id=f"k{i}")
                 for i in range(2)}
        victim, unit0 = None, None
        deadline = time.monotonic() + 60.0
        while victim is None and time.monotonic() < deadline:
            for event in read_events(tmp_path / "j.jsonl"):
                if event["event"] == "plan":
                    unit0 = next(i for i, unit
                                 in enumerate(event["units"])
                                 if 0 in unit)
                elif event["event"] == "lease" \
                        and event["unit"] == unit0:
                    victim = event["worker"]
            if victim is None:
                time.sleep(0.1)
        assert victim in procs, victim
        time.sleep(0.5)              # provably mid-straggle (6s sleep)
        procs[victim].send_signal(signal.SIGKILL)
        assert coordinator.wait(timeout=240.0)
        survivor = next(p for name, p in procs.items()
                        if name != victim)
        survivor.wait(timeout=60.0)
        trace = coordinator.trace(1.0, workers=2)
        status = coordinator.status()
    finally:
        coordinator.shutdown()
        for proc in procs.values():
            if proc.poll() is None:
                proc.kill()

    assert procs[victim].returncode == -signal.SIGKILL
    assert survivor.returncode == 0
    assert status["failed"] == 0
    assert_views_equal(fabric_views(trace), truth)
    events = read_events(tmp_path / "j.jsonl")
    assert any(e["event"] == "expire" and e["unit"] == unit0
               for e in events), "victim's lease never expired"
    assert any(e["event"] == "lease" and e["unit"] == unit0
               and e["worker"] != victim and e["attempt"] >= 2
               for e in events), "no re-dispatched lease journaled"


def test_coordinator_killed_and_resumed_from_journal(tmp_path):
    """Process-level: ``repro coordinate`` dies with the resumable exit
    code (5) right after a journaled commit; re-running the identical
    command resumes the grid from the journal and completes it without
    re-executing or losing the committed cells."""
    specs = grid_specs()
    truth = serial_views(specs)
    plan = FaultPlan.build(tmp_path / "state", {
        specs[2].label: Fault(kind="coordinator_kill", times=1),
    })
    plan_path = plan.to_file(tmp_path / "faults.json")
    command = [sys.executable, "-m", "repro", "coordinate"] \
        + GRID_ARGS + [
        "--journal", str(tmp_path / "j.jsonl"), "--no-cache",
        "--spawn", "2", "--unit-cells", "1", "--lease-ttl", "2",
        "--trace", str(tmp_path / "trace.json")]

    first = subprocess.run(command, cwd=str(tmp_path),
                           env=subprocess_env(plan_path),
                           capture_output=True, text=True, timeout=240)
    assert first.returncode == 5, (first.returncode, first.stdout,
                                   first.stderr)

    rerun = subprocess.run(command, cwd=str(tmp_path),
                           env=subprocess_env(plan_path),
                           capture_output=True, text=True, timeout=240)
    assert rerun.returncode == 0, (rerun.returncode, rerun.stdout,
                                   rerun.stderr)
    assert "(resumed from journal)" in rerun.stdout
    # The killed run's committed cells came back from the journal, not
    # from re-execution (cache is off).
    banner = [line for line in rerun.stdout.splitlines()
              if "already resolved" in line][0]
    recovered = int(banner.split("journal)")[0].rsplit(",", 1)[1])
    assert recovered >= 1, banner

    # Each journal generation (the killed run's, rotated aside, and the
    # resumed run's) commits every unit at most once.
    for generation in ("j.jsonl.1", "j.jsonl"):
        commits = [e["unit"] for e in read_events(tmp_path / generation)
                   if e["event"] == "commit"]
        assert commits and len(commits) == len(set(commits)), \
            (generation, commits)

    import json
    trace = json.loads((tmp_path / "trace.json").read_text())
    views = {}
    for payload in trace["scenarios"]:
        label = payload["spec"]["label"]
        assert label not in views, f"duplicate cell: {label}"
        views[label] = deterministic_outcome_view(payload)
    assert_views_equal(views, truth)
