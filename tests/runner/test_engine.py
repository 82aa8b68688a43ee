"""Tests for the sweep engine: caching, parallelism, failure handling."""

import multiprocessing
import os
import time

import repro.service.supervisor as supervisor_mod
from repro.runner import (
    ResultCache,
    ScenarioOutcome,
    ScenarioSpec,
    SweepConfig,
    SweepEngine,
    execute_scenario,
)
from repro.runner.trace import CRASHED, ERROR, OK, TIMEOUT, \
    deterministic_outcome_view
from repro.testing import CRASH_WORKER, HANG_WORKER, SLOW_RESPONSE, \
    Fault, ServiceFaultPlan


def _fast_specs():
    """Two cheap fast-analyzer scenarios."""
    return [
        ScenarioSpec.build("5bus-study1", analyzer="fast", target=1,
                           state_samples=4),
        ScenarioSpec.build("5bus-study2", analyzer="fast", target=1,
                           state_samples=4),
    ]


def _engine(tmp_path, **overrides):
    config = SweepConfig(**{"workers": 1,
                            "cache_dir": str(tmp_path / "cache"),
                            **overrides})
    return SweepEngine(config)


def _inject(tmp_path, monkeypatch, faults):
    """Inject *faults* ({label: Fault}) inside the real supervised
    workers, which inherit the plan through the environment."""
    plan = ServiceFaultPlan.build(tmp_path / "fault-state", faults)
    monkeypatch.setenv("REPRO_SERVICE_FAULTS",
                       plan.to_file(tmp_path / "faults.json"))
    return plan


# -- execute_scenario ---------------------------------------------------

class TestExecuteScenario:
    def test_smt_outcome_carries_trace(self):
        spec = ScenarioSpec.build("5bus-study1", analyzer="smt",
                                  target=1)
        outcome = execute_scenario(spec, "fp")
        assert outcome.status == OK
        assert outcome.satisfiable is True
        assert outcome.solver_calls > 0
        assert outcome.candidates_examined >= 1
        assert outcome.trace["smt"]["decisions"] >= 0
        assert "simplex_pivots" in outcome.trace["smt"]
        assert outcome.trace["opf"]["solves"] > 0
        assert outcome.worker_pid == os.getpid()
        assert outcome.task_seconds >= outcome.analysis_seconds

    def test_fast_outcome_carries_trace(self):
        spec = _fast_specs()[0]
        outcome = execute_scenario(spec, "fp")
        assert outcome.status == OK
        assert outcome.satisfiable is not None
        assert outcome.trace["opf"]["solves"] > 0

    def test_bad_case_is_an_error(self):
        spec = ScenarioSpec.build("no-such-case")
        outcome = execute_scenario(spec, "fp")
        assert outcome.status == ERROR
        assert "no-such-case" in outcome.error


# -- engine: serial + cache ---------------------------------------------

class TestSerialAndCache:
    def test_serial_run(self, tmp_path):
        trace = _engine(tmp_path).run(_fast_specs())
        assert trace.mode == "serial"
        assert [o.status for o in trace.outcomes] == [OK, OK]
        assert trace.cache_hits == 0
        assert not trace.failures

    def test_second_run_served_from_cache(self, tmp_path):
        engine = _engine(tmp_path)
        specs = _fast_specs()
        first = engine.run(specs)
        second = engine.run(specs)
        assert second.cache_hits == len(specs)
        for before, after in zip(first.outcomes, second.outcomes):
            assert after.cache_hit
            assert after.satisfiable == before.satisfiable
            assert after.base_cost == before.base_cost
            assert after.trace == before.trace

    def test_use_cache_false_always_executes(self, tmp_path):
        engine = _engine(tmp_path, use_cache=False)
        specs = _fast_specs()
        engine.run(specs)
        assert not (tmp_path / "cache").exists()
        assert engine.run(specs).cache_hits == 0

    def test_failures_are_not_cached(self, tmp_path):
        engine = _engine(tmp_path)
        specs = [ScenarioSpec.build("no-such-case")]
        first = engine.run(specs)
        assert first.outcomes[0].status == ERROR
        second = engine.run(specs)
        assert second.cache_hits == 0
        assert second.outcomes[0].status == ERROR

    def test_trace_json_roundtrip(self, tmp_path):
        trace = _engine(tmp_path).run(_fast_specs())
        path = trace.write(tmp_path / "out" / "trace.json")
        import json
        payload = json.loads(path.read_text())
        assert payload["totals"]["scenarios"] == 2
        assert payload["totals"]["opf_solves"] > 0
        assert payload["scenarios"][0]["trace"]["opf"]["solves"] > 0


# -- engine: parallel ---------------------------------------------------

class TestParallel:
    def test_matches_serial_results(self, tmp_path):
        specs = _fast_specs()
        serial = _engine(tmp_path / "a").run(specs)
        parallel = _engine(tmp_path / "b", workers=2).run(specs)
        assert parallel.mode == "parallel"
        assert parallel.workers == 2
        for s, p in zip(serial.outcomes, parallel.outcomes):
            assert p.status == OK
            assert p.satisfiable == s.satisfiable
            assert p.base_cost == s.base_cost
            assert p.achieved_increase_percent \
                == s.achieved_increase_percent

    def test_runs_in_worker_processes(self, tmp_path):
        trace = _engine(tmp_path, workers=2).run(_fast_specs())
        pids = {o.worker_pid for o in trace.outcomes}
        assert os.getpid() not in pids

    def test_parallel_results_are_cached(self, tmp_path):
        engine = _engine(tmp_path, workers=2)
        specs = _fast_specs()
        engine.run(specs)
        assert engine.run(specs).cache_hits == len(specs)

    def test_crashed_worker_is_retried(self, tmp_path, monkeypatch):
        specs = _fast_specs()
        _inject(tmp_path, monkeypatch, {
            spec.label: Fault(CRASH_WORKER, times=1) for spec in specs})
        engine = SweepEngine(
            SweepConfig(workers=2, retries=1, use_cache=False))
        trace = engine.run(specs)
        assert [o.status for o in trace.outcomes] == [OK, OK]
        assert all(o.attempts == 2 for o in trace.outcomes)

    def test_collateral_pool_breakage_is_not_a_conviction(self, tmp_path,
                                                          monkeypatch):
        # One worker dies while its neighbour is mid-cell.  Each worker
        # has its own pipe, so the death is charged to the job that
        # worker held: with no retries (retries=0) the innocent unit
        # still finishes ok and only the crasher is recorded as crashed.
        specs = _fast_specs()
        _inject(tmp_path, monkeypatch, {
            specs[0].label: Fault(SLOW_RESPONSE, sleep_seconds=1.0),
            specs[1].label: Fault(CRASH_WORKER, times=99)})
        engine = SweepEngine(
            SweepConfig(workers=2, retries=0, use_cache=False))
        trace = engine.run(specs)
        by_case = {o.spec.label.split("/")[0]: o
                   for o in trace.outcomes}
        assert by_case["5bus-study1"].status == OK
        assert by_case["5bus-study2"].status == CRASHED

    def test_crash_after_retries_is_recorded(self, tmp_path, monkeypatch):
        specs = _fast_specs()
        _inject(tmp_path, monkeypatch, {
            spec.label: Fault(CRASH_WORKER, times=99) for spec in specs})
        engine = SweepEngine(
            SweepConfig(workers=2, retries=0, use_cache=False))
        trace = engine.run(specs)
        assert [o.status for o in trace.outcomes] == [CRASHED, CRASHED]
        assert trace.failures == trace.outcomes

    def test_task_timeout(self, tmp_path, monkeypatch):
        specs = _fast_specs()
        _inject(tmp_path, monkeypatch, {
            spec.label: Fault(HANG_WORKER, times=99, sleep_seconds=2.0)
            for spec in specs})
        engine = SweepEngine(
            SweepConfig(workers=2, task_timeout=0.2, use_cache=False))
        trace = engine.run(specs)
        assert all(o.status == TIMEOUT for o in trace.outcomes)
        assert all("task budget" in o.error for o in trace.outcomes)

    def test_timeout_does_not_starve_queued_tasks(self, tmp_path,
                                                  monkeypatch):
        # Regression: a hung worker must not starve the units queued
        # behind it.  The supervisor hard-kills the hung worker at the
        # unit's kill horizon and the other worker keeps draining the
        # queue.
        specs = [ScenarioSpec.build("5bus-study1", analyzer="fast",
                                    label=label)
                 for label in ("hang-0", "hang-1", "fast-0", "fast-1")]
        _inject(tmp_path, monkeypatch, {
            label: Fault(HANG_WORKER, times=99, sleep_seconds=3.0)
            for label in ("hang-0", "hang-1")})
        config = SweepConfig(workers=2, task_timeout=0.2, use_cache=False)
        started = time.perf_counter()
        trace = SweepEngine(config).run(specs)
        wall = time.perf_counter() - started
        statuses = {o.spec.label: o.status for o in trace.outcomes}
        assert statuses == {"hang-0": TIMEOUT, "hang-1": TIMEOUT,
                            "fast-0": OK, "fast-1": OK}
        # A hang is retried like a crash; the fast cells ran once.
        attempts = {o.spec.label: o.attempts for o in trace.outcomes}
        assert attempts == {"hang-0": config.retries + 1,
                            "hang-1": config.retries + 1,
                            "fast-0": 1, "fast-1": 1}
        # The sweep never waited out the 3s hangs.
        assert wall < 3.0

    def test_falls_back_to_serial_without_process_pools(
            self, tmp_path, monkeypatch):
        # Where processes cannot be spawned, the supervisor runs its
        # workers as threads of this process, with the same answers.
        real = multiprocessing.get_context()

        class NoProcesses:
            Pipe = staticmethod(real.Pipe)

            def Process(self, *args, **kwargs):
                raise OSError("no processes in this sandbox")

        monkeypatch.setattr(supervisor_mod.multiprocessing, "get_context",
                            NoProcesses)
        specs = _fast_specs()
        serial = _engine(tmp_path / "serial").run(specs)
        threaded = _engine(tmp_path / "threads", workers=4).run(specs)
        assert {o.worker_pid for o in threaded.outcomes} == {os.getpid()}
        assert [o.status for o in threaded.outcomes] == [OK, OK]
        assert [deterministic_outcome_view(o.to_dict())
                for o in threaded.outcomes] == \
            [deterministic_outcome_view(o.to_dict())
             for o in serial.outcomes]
