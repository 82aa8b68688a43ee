"""Chaos tests: the sweep engine must terminate with one outcome per
scenario no matter which faults are injected, and checkpoint/resume must
survive interrupts, full disks and corrupted cache entries.

Worker faults are injected inside the real supervised workers through a
file-based :class:`ServiceFaultPlan` (``REPRO_SERVICE_FAULTS``), so these
sweeps run with ``workers=2``."""

import pytest

import repro.runner.engine as engine_mod
from repro.runner import (
    ResultCache,
    ScenarioSpec,
    SweepConfig,
    SweepEngine,
)
from repro.runner.trace import (
    CRASHED,
    ERROR,
    INVALID_INPUT,
    OK,
    TIMEOUT,
    UNKNOWN,
    _KNOWN_STATUSES,
)
from repro.smt import SolverBudget
from repro.testing import (
    CORRUPT_CASE,
    CRASH_WORKER,
    EXHAUST_BUDGET,
    RAISE_ERROR,
    Fault,
    FlakyResultCache,
    ServiceFaultPlan,
    corrupt_cached_outcome,
)

#: the payload kinds: each fails one cell without touching the worker.
PAYLOAD_KINDS = (RAISE_ERROR, CORRUPT_CASE, EXHAUST_BUDGET)


def _inject(monkeypatch, plan, tmp_path):
    """Hand *plan* to the supervised workers through the environment."""
    monkeypatch.setenv("REPRO_SERVICE_FAULTS",
                       plan.to_file(tmp_path / "faults.json"))
    return plan


def _specs(n=4):
    """Cheap fast-analyzer scenarios with distinct labels."""
    return [
        ScenarioSpec.build("5bus-study1" if i % 2 == 0 else "5bus-study2",
                           analyzer="fast", target=1 + i // 2,
                           state_samples=4, label=f"cell-{i}")
        for i in range(n)
    ]


def _smt_spec(label="smt-cell"):
    return ScenarioSpec.build("5bus-study1", analyzer="smt", target=1,
                              label=label)


class TestSeededChaos:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_every_sweep_terminates_with_full_outcomes(self, tmp_path,
                                                       monkeypatch, seed):
        specs = _specs(6)
        plan = _inject(monkeypatch, ServiceFaultPlan.seeded(
            tmp_path / "plan", [s.label for s in specs], seed=seed,
            rate=0.5, kinds=PAYLOAD_KINDS), tmp_path)
        engine = SweepEngine(SweepConfig(workers=2, use_cache=False))
        trace = engine.run(specs)           # must not raise
        assert trace.mode == "parallel"
        assert len(trace.outcomes) == len(specs)
        assert [o.spec.label for o in trace.outcomes] \
            == [s.label for s in specs]
        faulted = {label for label, _ in plan.faults}
        for outcome in trace.outcomes:
            assert outcome.status in _KNOWN_STATUSES
            if outcome.spec.label in faulted:
                # CORRUPT_CASE now lands as a preflight rejection
                # (unparsable case text), not a bare worker error.
                assert outcome.status in (ERROR, UNKNOWN, INVALID_INPUT)
                assert outcome.error
            else:
                assert outcome.status == OK

    def test_same_seed_same_faults(self, tmp_path):
        labels = [s.label for s in _specs(6)]
        one = ServiceFaultPlan.seeded(tmp_path / "a", labels, seed=5,
                                      rate=0.5, kinds=PAYLOAD_KINDS)
        two = ServiceFaultPlan.seeded(tmp_path / "b", labels, seed=5,
                                      rate=0.5, kinds=PAYLOAD_KINDS)
        assert one.faults == two.faults


class TestBudgetExhaustionOutcomes:
    def test_unknown_outcome_with_partial_stats_not_cached(self, tmp_path):
        config = SweepConfig(workers=1,
                             cache_dir=str(tmp_path / "cache"),
                             budget=SolverBudget(max_decisions=1))
        spec = _smt_spec()
        first = SweepEngine(config).run([spec])
        outcome = first.outcomes[0]
        assert outcome.status == UNKNOWN
        assert "decision budget" in outcome.error
        # Partial statistics from the truncated search are preserved.
        assert outcome.trace["smt"]["solve_calls"] >= 1
        assert outcome.trace["smt"]["decisions"] >= 1
        assert first.to_dict()["totals"]["unknown"] == 1
        # UNKNOWN is budget-dependent: it must never be served from cache.
        second = SweepEngine(config).run([spec])
        assert second.cache_hits == 0
        assert second.outcomes[0].status == UNKNOWN

    def test_serial_task_timeout_enforced_in_solver(self, tmp_path):
        # The old engine could not enforce task_timeout in serial mode;
        # the in-solver deadline makes it work (and yields partial data
        # instead of a blunt kill).
        config = SweepConfig(workers=1, task_timeout=0.01,
                             use_cache=False)
        trace = SweepEngine(config).run([_smt_spec()])
        outcome = trace.outcomes[0]
        assert outcome.status == UNKNOWN
        assert "wall-clock" in outcome.error
        assert outcome.task_seconds < 5.0

    def test_parallel_budget_beats_pool_backstop(self, tmp_path):
        # Solver-bound tasks must come back UNKNOWN (with statistics),
        # not TIMEOUT: the supervisor's kill horizon allows the
        # in-worker deadline grace.
        config = SweepConfig(workers=2, task_timeout=0.05,
                             use_cache=False)
        specs = [_smt_spec("p1"), _smt_spec("p2")]
        trace = SweepEngine(config).run(specs)
        assert len(trace.outcomes) == 2
        for outcome in trace.outcomes:
            assert outcome.status == UNKNOWN
            assert "wall-clock" in outcome.error

    def test_injected_budget_exhaustion_fault(self, tmp_path, monkeypatch):
        specs = _specs(2)
        _inject(monkeypatch, ServiceFaultPlan.single(
            tmp_path / "plan", "cell-0", Fault(EXHAUST_BUDGET)), tmp_path)
        engine = SweepEngine(SweepConfig(workers=2, use_cache=False))
        trace = engine.run(specs)
        assert trace.outcomes[0].status == UNKNOWN
        assert trace.outcomes[1].status == OK


class TestCheckpointResume:
    def test_interrupt_then_resume_serves_completed_cells(self, tmp_path,
                                                          monkeypatch):
        specs = _specs(4)
        config = SweepConfig(workers=1, cache_dir=str(tmp_path / "cache"))
        execute = engine_mod.execute_with_analyzer
        completed = []

        def interrupt_third_cell(*args, **kwargs):
            # A user hitting Ctrl-C as the third cell starts.
            if len(completed) == 2:
                raise KeyboardInterrupt
            outcome = execute(*args, **kwargs)
            completed.append(outcome)
            return outcome

        monkeypatch.setattr(engine_mod, "execute_with_analyzer",
                            interrupt_third_cell)
        with pytest.raises(KeyboardInterrupt):
            SweepEngine(config).run(specs)
        monkeypatch.setattr(engine_mod, "execute_with_analyzer", execute)
        # The two completed cells were checkpointed before the interrupt.
        resumed = SweepEngine(config).run(specs)
        assert resumed.cache_hits >= 2
        assert [o.status for o in resumed.outcomes] == [OK] * 4

    def test_cache_write_failure_degrades_to_warning(self, tmp_path):
        specs = _specs(2)
        cache = FlakyResultCache(tmp_path / "cache", fail_writes=10 ** 6)
        engine = SweepEngine(SweepConfig(workers=1), cache=cache)
        trace = engine.run(specs)           # must not raise
        for outcome in trace.outcomes:
            assert outcome.status == OK
            assert "No space left on device" in outcome.cache_write_error
        assert trace.to_dict()["totals"]["cache_write_errors"] == 2
        # Nothing was persisted, so a second run recomputes.
        assert SweepEngine(SweepConfig(workers=1),
                           cache=cache).run(specs).cache_hits == 0

    def test_transient_cache_write_failure_recovers(self, tmp_path):
        # A single flaky-disk failure is absorbed by try_put's bounded
        # retry with backoff: no cell degrades to cache_write_error and
        # every checkpoint lands on disk within the first run.
        specs = _specs(2)
        cache = FlakyResultCache(tmp_path / "cache", fail_writes=1)
        engine = SweepEngine(SweepConfig(workers=1), cache=cache)
        first = engine.run(specs)
        assert [o.cache_write_error for o in first.outcomes] \
            == [None, None]
        # 1 injected failure + its retry + the second cell's write.
        assert cache.write_attempts == 3
        second = SweepEngine(SweepConfig(workers=1),
                             cache=ResultCache(tmp_path / "cache"))
        assert second.run(specs).cache_hits == 2

    def test_persistent_cache_write_failure_still_degrades(self,
                                                           tmp_path):
        # Exhausting every retry (fail_writes > retries) falls back to
        # the pre-retry contract: the outcome stands, the checkpoint is
        # lost, and the degradation is reported per outcome.
        specs = _specs(1)
        cache = FlakyResultCache(tmp_path / "cache", fail_writes=3)
        trace = SweepEngine(SweepConfig(workers=1), cache=cache).run(specs)
        assert "No space left on device" \
            in trace.outcomes[0].cache_write_error
        assert cache.write_attempts == 3    # initial + 2 retries

    def test_malformed_cached_outcome_is_recomputed(self, tmp_path):
        specs = _specs(2)
        cache = ResultCache(tmp_path / "cache")
        config = SweepConfig(workers=1, cache_dir=str(tmp_path / "cache"))
        SweepEngine(config).run(specs)
        corrupt_cached_outcome(cache, specs[0].fingerprint(),
                               "status", "not-a-status")
        trace = SweepEngine(config).run(specs)
        assert trace.cache_hits == 1        # only the intact entry
        assert [o.status for o in trace.outcomes] == [OK, OK]
        # The recomputation overwrote the corrupt entry.
        assert SweepEngine(config).run(specs).cache_hits == 2

    def test_wrong_typed_field_in_cache_is_recomputed(self, tmp_path):
        specs = _specs(1)
        cache = ResultCache(tmp_path / "cache")
        config = SweepConfig(workers=1, cache_dir=str(tmp_path / "cache"))
        SweepEngine(config).run(specs)
        corrupt_cached_outcome(cache, specs[0].fingerprint(),
                               "satisfiable", "yes")
        trace = SweepEngine(config).run(specs)
        assert trace.cache_hits == 0
        assert trace.outcomes[0].status == OK


class TestCrashChaos:
    def test_crash_once_is_retried_to_success(self, tmp_path, monkeypatch):
        specs = _specs(2)
        plan = _inject(monkeypatch, ServiceFaultPlan.single(
            tmp_path / "plan", "cell-0", Fault(CRASH_WORKER, times=1)),
            tmp_path)
        engine = SweepEngine(
            SweepConfig(workers=2, retries=2, use_cache=False))
        trace = engine.run(specs)
        assert [o.status for o in trace.outcomes] == [OK, OK]
        assert [o.attempts for o in trace.outcomes] == [2, 1]
        assert plan.attempts("cell-0") == 2

    def test_persistent_crash_is_recorded_after_retries(self, tmp_path,
                                                        monkeypatch):
        specs = _specs(2)
        _inject(monkeypatch, ServiceFaultPlan.single(
            tmp_path / "plan", "cell-0", Fault(CRASH_WORKER, times=10)),
            tmp_path)
        engine = SweepEngine(
            SweepConfig(workers=2, retries=1, use_cache=False))
        crashed, neighbour = engine.run(specs).outcomes
        assert crashed.status == CRASHED
        assert crashed.attempts == 2
        assert "died" in crashed.error
        # The crash is charged to its own unit only.
        assert neighbour.status == OK
        assert neighbour.attempts == 1
