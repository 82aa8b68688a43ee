"""Tests for the sweep engine: caching, parallelism, failure handling."""

import os
import time
from pathlib import Path

from repro.runner import (
    ResultCache,
    ScenarioOutcome,
    ScenarioSpec,
    SweepConfig,
    SweepEngine,
    execute_scenario,
)
from repro.runner.trace import CRASHED, ERROR, OK, TIMEOUT


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


# -- injectable worker tasks (module level: picklable) ------------------
#
# Each takes a unit payload ({"specs", "fingerprints", ...}; the engine
# hands injected tasks one-cell units) and returns one outcome payload
# per cell.

def _stub_outcome(payload, **fields):
    """One satisfiable outcome payload per cell of a unit payload."""
    return [ScenarioOutcome(spec=ScenarioSpec.from_dict(spec),
                            fingerprint=fingerprint, satisfiable=True,
                            worker_pid=os.getpid(), **fields).to_dict()
            for spec, fingerprint in zip(payload["specs"],
                                         payload["fingerprints"])]


def _crash_once(payload):
    """Kill the worker on the first attempt per scenario, then succeed."""
    marker = Path(os.environ["REPRO_TEST_MARKER_DIR"]) \
        / payload["fingerprints"][0]
    if not marker.exists():
        marker.write_text("seen")
        os._exit(1)
    return _stub_outcome(payload)


def _always_crash(payload):
    os._exit(1)


def _study2_crashes(payload):
    """Crash 5bus-study2's worker; the other unit is slow but fine."""
    if payload["specs"][0]["case"].endswith("study2"):
        os._exit(1)
    time.sleep(1.0)
    return _stub_outcome(payload)


def _sleep_forever(payload):
    time.sleep(2.0)
    return _stub_outcome(payload)


def _hang_if_labelled(payload):
    """Hang long (3s) only for specs whose label starts with 'hang'."""
    if payload["specs"][0]["label"].startswith("hang"):
        time.sleep(3.0)
    return _stub_outcome(payload)


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
        markers = tmp_path / "markers"
        markers.mkdir()
        monkeypatch.setenv("REPRO_TEST_MARKER_DIR", str(markers))
        engine = SweepEngine(
            SweepConfig(workers=2, retries=1, use_cache=False),
            task=_crash_once)
        trace = engine.run(_fast_specs())
        assert [o.status for o in trace.outcomes] == [OK, OK]
        assert all(o.attempts == 2 for o in trace.outcomes)

    def test_collateral_pool_breakage_is_not_a_conviction(self,
                                                          tmp_path):
        # One crashing worker breaks the shared pool and fails every
        # in-flight future; with the retry budget exhausted (retries=0)
        # the innocent unit — mid-sleep when the pool broke — must be
        # cleared by its isolated dispatch, not recorded as crashed.
        engine = SweepEngine(
            SweepConfig(workers=2, retries=0, use_cache=False),
            task=_study2_crashes)
        trace = engine.run(_fast_specs())
        by_case = {o.spec.label.split("/")[0]: o
                   for o in trace.outcomes}
        assert by_case["5bus-study1"].status == OK
        assert by_case["5bus-study2"].status == CRASHED

    def test_crash_after_retries_is_recorded(self, tmp_path):
        engine = SweepEngine(
            SweepConfig(workers=2, retries=0, use_cache=False),
            task=_always_crash)
        trace = engine.run(_fast_specs())
        assert [o.status for o in trace.outcomes] == [CRASHED, CRASHED]
        assert trace.failures == trace.outcomes

    def test_task_timeout(self, tmp_path):
        engine = SweepEngine(
            SweepConfig(workers=2, task_timeout=0.2, use_cache=False),
            task=_sleep_forever)
        trace = engine.run(_fast_specs())
        assert all(o.status == TIMEOUT for o in trace.outcomes)
        assert all("task budget" in o.error for o in trace.outcomes)

    def test_timeout_does_not_starve_queued_tasks(self, tmp_path):
        # Regression: future.cancel() cannot stop an already-running
        # worker, so after a timeout the queued tasks behind the hung
        # slots used to inherit dead workers and time out in turn.  The
        # engine must migrate them to a fresh pool instead.
        specs = [ScenarioSpec.build("5bus-study1", analyzer="fast",
                                    label=label)
                 for label in ("hang-0", "hang-1", "fast-0", "fast-1")]
        engine = SweepEngine(
            SweepConfig(workers=2, task_timeout=0.2, use_cache=False),
            task=_hang_if_labelled)
        started = time.perf_counter()
        trace = engine.run(specs)
        wall = time.perf_counter() - started
        statuses = {o.spec.label: o.status for o in trace.outcomes}
        assert statuses == {"hang-0": TIMEOUT, "hang-1": TIMEOUT,
                            "fast-0": OK, "fast-1": OK}
        # Rescheduling off a poisoned pool is not a crash retry.
        assert all(o.attempts == 1 for o in trace.outcomes)
        # The sweep never waited out the 3s hangs.
        assert wall < 3.0

    def test_falls_back_to_serial_without_process_pools(
            self, tmp_path, monkeypatch):
        import repro.runner.engine as engine_mod

        def no_pools(*args, **kwargs):
            raise OSError("no process pools in this sandbox")

        monkeypatch.setattr(engine_mod, "ProcessPoolExecutor", no_pools)
        trace = _engine(tmp_path, workers=4).run(_fast_specs())
        assert trace.mode == "serial"
        assert trace.workers == 1
        assert [o.status for o in trace.outcomes] == [OK, OK]
