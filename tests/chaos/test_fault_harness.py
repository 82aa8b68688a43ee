"""Unit tests of the fault-injection harness itself."""

import json

import pytest

from repro.runner import ResultCache, ScenarioSpec
from repro.testing import (
    CORRUPT_CASE,
    CRASH_WORKER,
    EXHAUST_BUDGET,
    HANG_WORKER,
    RAISE_ERROR,
    Fault,
    FlakyResultCache,
    InjectedFault,
    ServiceFaultPlan,
    corrupt_cached_outcome,
)
from repro.testing.faults import WORKER_KINDS


def _spec(label="x"):
    return ScenarioSpec.build("5bus-study1", analyzer="fast", label=label)


def _inject(tmp_path, fault, limits=None):
    """Apply *fault* to one cell labelled ``x`` on its first attempt."""
    plan = ServiceFaultPlan.single(tmp_path, "x", fault)
    return plan.inject(_spec(), limits, None)


class TestFaultPlan:
    def test_single_plan_lookup(self, tmp_path):
        fault = Fault(RAISE_ERROR)
        plan = ServiceFaultPlan.single(tmp_path, "cell-a", fault)
        assert plan.fault_for("cell-a") == fault
        assert plan.fault_for("cell-b") is None

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            Fault("meteor_strike")

    def test_attempt_counting_is_per_label(self, tmp_path):
        plan = ServiceFaultPlan(state_dir=str(tmp_path))
        once = Fault(RAISE_ERROR, times=1)
        assert plan.attempts("x") == 0
        assert plan.should_fire("x", once)
        assert not plan.should_fire("x", once)
        assert plan.should_fire("y", once)
        assert plan.attempts("x") == 2

    def test_seeded_plans_are_deterministic(self, tmp_path):
        labels = [f"cell-{i}" for i in range(20)]
        one = ServiceFaultPlan.seeded(tmp_path, labels, seed=7, rate=0.5)
        two = ServiceFaultPlan.seeded(tmp_path, labels, seed=7, rate=0.5)
        assert one.faults == two.faults
        other = ServiceFaultPlan.seeded(tmp_path, labels, seed=8, rate=0.5)
        assert one.faults != other.faults

    def test_seeded_rate_and_kinds(self, tmp_path):
        labels = [f"cell-{i}" for i in range(30)]
        everything = ServiceFaultPlan.seeded(tmp_path, labels, seed=1,
                                             rate=1.0)
        assert len(everything.faults) == len(labels)
        assert all(f.kind in WORKER_KINDS for _, f in everything.faults)
        nothing = ServiceFaultPlan.seeded(tmp_path, labels, seed=1,
                                          rate=0.0)
        assert nothing.faults == ()
        only_errors = ServiceFaultPlan.seeded(tmp_path, labels, seed=1,
                                              rate=1.0,
                                              kinds=(RAISE_ERROR,))
        assert all(f.kind == RAISE_ERROR for _, f in only_errors.faults)

    def test_crash_worker_not_in_seeded_defaults(self):
        # Under the supervisor's thread fallback a worker runs in the
        # host process: a seeded plan must never os._exit() the test
        # runner by default.
        assert CRASH_WORKER not in WORKER_KINDS


class TestApplyFault:
    def test_exhaust_budget_overrides_payload_budget(self, tmp_path):
        _, limits, _ = _inject(tmp_path, Fault(EXHAUST_BUDGET),
                               {"wall_seconds": 60.0})
        assert limits["wall_seconds"] == 0.0
        assert limits["max_decisions"] == 1

    def test_corrupt_case_replaces_case_text(self, tmp_path):
        spec = _spec()
        plan = ServiceFaultPlan.single(tmp_path, "x", Fault(CORRUPT_CASE))
        corrupted, _, _ = plan.inject(spec, None, None)
        assert "not a case file" in corrupted.case_text
        assert spec.case_text is None       # original spec untouched
        # Exhausted after its one attempt: the retry runs the real case.
        assert plan.inject(spec, None, None)[0] is spec

    def test_raise_error_is_distinguishable(self, tmp_path):
        with pytest.raises(InjectedFault):
            _inject(tmp_path, Fault(RAISE_ERROR))

    def test_hang_sleeps_for_configured_time(self, tmp_path):
        import time
        started = time.perf_counter()
        _inject(tmp_path, Fault(HANG_WORKER, sleep_seconds=0.05))
        assert time.perf_counter() - started >= 0.05


class TestCacheFaults:
    def test_flaky_cache_fails_then_recovers(self, tmp_path):
        cache = FlakyResultCache(tmp_path, fail_writes=2)
        with pytest.raises(OSError):
            cache.put("ab" * 32, {"status": "ok"})
        with pytest.raises(OSError):
            cache.put("ab" * 32, {"status": "ok"})
        cache.put("ab" * 32, {"status": "ok"})
        assert cache.get("ab" * 32) == {"status": "ok"}
        assert cache.write_attempts == 3

    def test_corrupt_cached_outcome_mangles_one_field(self, tmp_path):
        cache = ResultCache(tmp_path)
        fingerprint = "cd" * 32
        cache.put(fingerprint, {"status": "ok", "attempts": 1})
        corrupt_cached_outcome(cache, fingerprint, "attempts",
                               "not-a-number")
        envelope = json.loads(cache._path(fingerprint).read_text())
        assert envelope["fingerprint"] == fingerprint   # envelope valid
        assert envelope["outcome"]["attempts"] == "not-a-number"
        assert envelope["outcome"]["status"] == "ok"
