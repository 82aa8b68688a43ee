"""Unit tests of the fault-injection harness itself."""

import json

import pytest

from repro.runner import ResultCache
from repro.testing import (
    CORRUPT_CASE,
    CRASH_WORKER,
    EXHAUST_BUDGET,
    HANG_WORKER,
    RAISE_ERROR,
    Fault,
    FaultPlan,
    FlakyResultCache,
    InjectedFault,
    corrupt_cached_outcome,
)
from repro.testing.faults import WORKER_KINDS, apply_fault


class TestFaultPlan:
    def test_single_plan_lookup(self, tmp_path):
        fault = Fault(RAISE_ERROR)
        plan = FaultPlan.single(tmp_path, "cell-a", fault)
        assert plan.fault_for("cell-a") == fault
        assert plan.fault_for("cell-b") is None

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            Fault("meteor_strike")

    def test_attempt_counting_is_per_label(self, tmp_path):
        plan = FaultPlan(state_dir=str(tmp_path))
        assert plan.attempts("x") == 0
        assert plan.record_attempt("x") == 1
        assert plan.record_attempt("x") == 2
        assert plan.record_attempt("y") == 1
        assert plan.attempts("x") == 2

    def test_seeded_plans_are_deterministic(self, tmp_path):
        labels = [f"cell-{i}" for i in range(20)]
        one = FaultPlan.seeded(tmp_path, labels, seed=7, rate=0.5)
        two = FaultPlan.seeded(tmp_path, labels, seed=7, rate=0.5)
        assert one.faults == two.faults
        other = FaultPlan.seeded(tmp_path, labels, seed=8, rate=0.5)
        assert one.faults != other.faults

    def test_seeded_rate_and_kinds(self, tmp_path):
        labels = [f"cell-{i}" for i in range(30)]
        everything = FaultPlan.seeded(tmp_path, labels, seed=1, rate=1.0)
        assert len(everything.faults) == len(labels)
        assert all(f.kind in WORKER_KINDS for _, f in everything.faults)
        nothing = FaultPlan.seeded(tmp_path, labels, seed=1, rate=0.0)
        assert nothing.faults == ()
        only_errors = FaultPlan.seeded(tmp_path, labels, seed=1, rate=1.0,
                                       kinds=(RAISE_ERROR,))
        assert all(f.kind == RAISE_ERROR for _, f in only_errors.faults)

    def test_crash_worker_not_in_seeded_defaults(self):
        # Serial chaos sweeps run in the host process: a seeded plan must
        # never os._exit() the test runner by default.
        assert CRASH_WORKER not in WORKER_KINDS


class TestApplyFault:
    def test_exhaust_budget_overrides_payload_budget(self):
        payload = {"specs": [{"label": "x"}], "fingerprints": ["fp"],
                   "budget": {"wall_seconds": 60.0}}
        apply_fault(Fault(EXHAUST_BUDGET), payload)
        assert payload["budget"]["wall_seconds"] == 0.0
        assert payload["budget"]["max_decisions"] == 1

    def test_corrupt_case_replaces_case_text(self):
        spec = {"label": "x", "case_text": "good"}
        payload = {"specs": [spec], "fingerprints": ["fp"]}
        apply_fault(Fault(CORRUPT_CASE), payload)
        assert "not a case file" in payload["specs"][0]["case_text"]
        assert spec["case_text"] == "good"   # original spec untouched

    def test_raise_error_is_distinguishable(self):
        with pytest.raises(InjectedFault):
            apply_fault(Fault(RAISE_ERROR), {"specs": [{"label": "x"}]})

    def test_hang_sleeps_for_configured_time(self):
        import time
        started = time.perf_counter()
        apply_fault(Fault(HANG_WORKER, sleep_seconds=0.05),
                    {"specs": [{"label": "x"}]})
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
