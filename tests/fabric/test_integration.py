"""Coordinator + workers end to end, in process, on localhost.

The differential contract under test: a fabric run must resolve
exactly the cells a single-machine ``SweepEngine`` run resolves, with
deterministically-identical outcomes (volatile fields stripped via
:func:`deterministic_outcome_view`), no cell lost and no cell
duplicated — including across a coordinator kill + journal resume.
"""

import threading

import pytest

from repro.cli import build_parser, _grid_specs
from repro.fabric import (
    Coordinator,
    CoordinatorConfig,
    EXIT_COORDINATOR_GONE,
    EXIT_DONE,
    FabricError,
    FabricWorker,
    WorkerConfig,
    read_events,
)
from repro.runner import SweepConfig, SweepEngine
from repro.runner.trace import deterministic_outcome_view


def grid(cases="ieee30", targets="1,2", scenarios=2):
    args = build_parser().parse_args(
        ["coordinate", "--cases", cases, "--targets", targets,
         "--scenarios", str(scenarios), "--analyzer", "fast"])
    return _grid_specs(args)


def config_for(tmp_path, **overrides):
    overrides.setdefault("journal_path", str(tmp_path / "j.jsonl"))
    overrides.setdefault("cache_dir", None)
    overrides.setdefault("unit_cells", 2)
    overrides.setdefault("lease_ttl", 10.0)
    return CoordinatorConfig(**overrides)


def run_workers(coordinator, count=2, **worker_overrides):
    results = []

    def run(i):
        worker = FabricWorker(
            coordinator.url,
            WorkerConfig(worker_id=f"w{i}", **worker_overrides))
        results.append((worker.run(), worker.stats()))

    threads = [threading.Thread(target=run, args=(i,))
               for i in range(count)]
    for thread in threads:
        thread.start()
    assert coordinator.wait(timeout=180.0)
    for thread in threads:
        thread.join(30.0)
    return results


def deterministic_views(trace):
    views = {}
    for outcome in trace.outcomes:
        label = outcome.spec.label
        assert label not in views, f"duplicate cell: {label}"
        views[label] = deterministic_outcome_view(outcome.to_dict())
    return views


def serial_views(specs):
    serial = SweepEngine(SweepConfig(workers=1, use_cache=False))
    return deterministic_views(serial.run(specs))


def test_fleet_matches_serial_sweep(tmp_path):
    specs = grid()
    coordinator = Coordinator(specs, config_for(tmp_path)).start()
    try:
        results = run_workers(coordinator, count=2)
        trace = coordinator.trace(1.0, workers=2)
    finally:
        coordinator.shutdown()
    assert all(code == EXIT_DONE for code, _ in results)
    assert sum(s["cells"] for _, s in results) == len(specs)
    assert deterministic_views(trace) == serial_views(specs)
    status = coordinator.status()
    assert status["done"]
    assert status["failed"] == 0
    assert status["duplicate_commits"] == 0


def test_coordinator_kill_and_resume_loses_nothing(tmp_path):
    """Satellite: crash mid-dispatch, restart from the journal, and the
    fleet finishes with zero lost and zero duplicated cells."""
    specs = grid(targets="1,2,3")        # 6 cells → 3 units of 2
    config = config_for(tmp_path)
    first = Coordinator(specs, config).start()
    try:
        # One worker commits exactly one unit, then stops; the
        # coordinator is then abandoned mid-grid (never shut down
        # cleanly — shutdown() closes the journal, a kill would not).
        worker = FabricWorker(first.url, WorkerConfig(
            worker_id="w0", max_units=1))
        assert worker.run() == EXIT_DONE
        assert worker.units_done == 1
        assert not first.queue.done
    finally:
        first.acceptor.shutdown()

    # A fresh coordinator on the same journal resumes the remainder.
    second = Coordinator(specs, config).start()
    try:
        status = second.status()
        assert status["resumed"]
        assert status["generation"] == 1
        assert status["journal_recovered"] == 2
        assert status["cells_resolved_at_plan"] == 2
        results = run_workers(second, count=2)
        trace = second.trace(1.0, workers=2)
    finally:
        second.shutdown()
    assert all(code == EXIT_DONE for code, _ in results)
    # Committed-before-the-kill cells were not re-executed...
    assert sum(s["cells"] for _, s in results) == len(specs) - 2
    # ...and the merged result is byte-identical to the serial run.
    assert deterministic_views(trace) == serial_views(specs)
    # The old generation was rotated aside, not destroyed.
    assert (tmp_path / "j.jsonl.1").exists()


def test_second_resume_only_needs_the_newest_journal(tmp_path):
    specs = grid(targets="1,2,3")
    config = config_for(tmp_path)
    for _generation in (0, 1):
        coordinator = Coordinator(specs, config).start()
        worker = FabricWorker(coordinator.url, WorkerConfig(
            worker_id="w0", max_units=1))
        assert worker.run() == EXIT_DONE
        coordinator.acceptor.shutdown()

    # Generation 1's journal is self-contained: drop generation 0's
    # rotated file entirely and resume still sees all 4 resolved cells.
    (tmp_path / "j.jsonl.1").unlink()
    final = Coordinator(specs, config).start()
    try:
        status = final.status()
        assert status["generation"] == 2
        # one unit committed per earlier generation (unit sizes vary
        # with the encoding-group split, so count cells, not units)
        assert 2 <= status["journal_recovered"] < len(specs)
        assert status["cells_resolved_at_plan"] \
            == status["journal_recovered"]
        run_workers(final, count=1)
        trace = final.trace(1.0, workers=1)
    finally:
        final.shutdown()
    assert deterministic_views(trace) == serial_views(specs)


def test_resume_refuses_a_different_grid(tmp_path):
    config = config_for(tmp_path)
    first = Coordinator(grid(targets="1,2"), config)
    first.prepare()
    first.journal.close()
    with pytest.raises(FabricError, match="different grid"):
        Coordinator(grid(targets="1,3"), config).prepare()


def test_cache_read_through_resolves_at_plan_time(tmp_path):
    specs = grid()
    cache_dir = str(tmp_path / "cache")
    config = config_for(tmp_path, cache_dir=cache_dir)
    first = Coordinator(specs, config).start()
    try:
        run_workers(first, count=2, cache_dir=cache_dir)
        trace = first.trace(1.0, workers=2)
    finally:
        first.shutdown()
    views = deterministic_views(trace)

    # A second run over the same grid needs no worker at all: every
    # cell is served from the shared cache at plan time.
    config2 = config_for(tmp_path,
                         journal_path=str(tmp_path / "j2.jsonl"),
                         cache_dir=cache_dir)
    second = Coordinator(specs, config2).start()
    try:
        status = second.status()
        assert status["cache_hits"] == len(specs)
        assert status["units"] == 0
        assert status["done"]
        trace2 = second.trace(0.1, workers=0)
    finally:
        second.shutdown()
    assert deterministic_views(trace2) == views
    assert all(o.cache_hit for o in trace2.outcomes)


def test_worker_exits_2_when_coordinator_dies(tmp_path):
    specs = grid()
    coordinator = Coordinator(specs, config_for(tmp_path)).start()
    url = coordinator.url
    coordinator.shutdown()
    worker = FabricWorker(url, WorkerConfig(worker_id="w0"))
    worker.client.retries = 1
    worker.client.backoff_seconds = 0.01
    assert worker.run() == EXIT_COORDINATOR_GONE


def test_journal_records_the_full_story(tmp_path):
    specs = grid()
    config = config_for(tmp_path)
    coordinator = Coordinator(specs, config).start()
    try:
        run_workers(coordinator, count=2)
    finally:
        coordinator.shutdown()
    events = read_events(tmp_path / "j.jsonl")
    assert events[0]["event"] == "plan"
    assert events[0]["cells"] == len(specs)
    kinds = [e["event"] for e in events]
    units = len(events[0]["units"])
    assert kinds.count("lease") == units
    assert kinds.count("commit") == units
    # every commit carries its unit's full outcome payloads
    for event in events:
        if event["event"] == "commit":
            assert len(event["outcomes"]) \
                == len(events[0]["units"][event["unit"]])
