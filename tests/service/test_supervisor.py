"""Supervision: crash restart, bounded retry, backpressure, drain."""

import time

import pytest

from repro.service.protocol import parse_request
from repro.service.supervisor import (
    QueueFull,
    ServiceConfig,
    ServiceDraining,
    Supervisor,
)
from repro.testing import (
    CRASH_WORKER,
    HANG_WORKER,
    Fault,
    ServiceFaultPlan,
)

FAST_SPEC = {"case": "5bus-study1", "analyzer": "fast"}


def request_for(label, **options):
    spec = dict(FAST_SPEC, label=label)
    return parse_request(dict(options, spec=spec), "analyze")


def plan_file(tmp_path, faults):
    plan = ServiceFaultPlan.build(tmp_path / "state", faults)
    return plan.to_file(tmp_path / "faults.json")


@pytest.fixture
def supervisor_factory(tmp_path):
    built = []

    def build(**overrides):
        overrides.setdefault("workers", 1)
        overrides.setdefault("cache_dir", None)
        overrides.setdefault("use_cache", False)
        overrides.setdefault("request_timeout", 20.0)
        supervisor = Supervisor(ServiceConfig(**overrides)).start()
        built.append(supervisor)
        return supervisor

    yield build
    for supervisor in built:
        supervisor.stop()


def test_happy_path_completes_and_counts(supervisor_factory):
    supervisor = supervisor_factory(workers=2)
    jobs = [supervisor.submit(request_for(f"cell{i}"))
            for i in range(4)]
    for job in jobs:
        supervisor.wait(job)
        assert job.failure is None
        assert job.result["outcomes"][0]["status"] == "ok"
        assert job.attempts == 1
    stats = supervisor.stats()
    assert stats["counters"]["completed"] == 4
    assert stats["counters"]["failed"] == 0


def test_warm_sessions_reused_across_jobs(supervisor_factory):
    supervisor = supervisor_factory(workers=1)
    for i in range(3):
        job = supervisor.wait(supervisor.submit(request_for(f"warm{i}")))
        assert job.failure is None
    # same encoding group every time: 1 miss then hits
    deadline = time.monotonic() + 5
    while time.monotonic() < deadline:
        totals = supervisor.stats()["totals"]
        if totals.get("session_hits", 0) >= 2:
            break
        time.sleep(0.05)
    assert totals["session_misses"] == 1
    assert totals["session_hits"] >= 2
    assert supervisor.stats()["warm_hit_ratio"] > 0.5


def test_crashed_worker_restarts_with_empty_session_pool(
        tmp_path, supervisor_factory):
    path = plan_file(tmp_path, {
        "boom": Fault(kind=CRASH_WORKER, times=1)})
    supervisor = supervisor_factory(workers=1, fault_plan=path)

    # Warm the pool first so the restart demonstrably clears it.
    warm = supervisor.wait(supervisor.submit(request_for("pre")))
    assert warm.failure is None

    job = supervisor.wait(supervisor.submit(request_for("boom")))
    assert job.failure is None, job.failure
    assert job.result["outcomes"][0]["status"] == "ok"
    assert job.attempts == 2                    # retried exactly once
    health = supervisor.healthz()
    assert health["restarts"] == 1
    assert health["ok"]
    # The replacement worker rebuilt its warm state from scratch: the
    # successful retry is its first (and only) session miss.
    stats = job.result["stats"]
    assert stats["session_misses"] == 1
    assert stats["session_hits"] == 0


def test_in_flight_retried_exactly_once_then_failed_cleanly(
        tmp_path, supervisor_factory):
    path = plan_file(tmp_path, {
        "stubborn": Fault(kind=CRASH_WORKER, times=5)})
    supervisor = supervisor_factory(workers=1, fault_plan=path,
                                    retry_limit=1)
    job = supervisor.wait(supervisor.submit(request_for("stubborn")))
    assert job.failure is not None
    code, message = job.failure
    assert code == "worker_failed"
    assert job.attempts == 2                    # initial + one retry
    assert supervisor.stats()["counters"]["failed"] == 1
    # ...and the supervisor is not wedged: a clean job still runs.
    after = supervisor.wait(supervisor.submit(request_for("clean")))
    assert after.failure is None
    assert after.result["outcomes"][0]["status"] == "ok"


def test_three_consecutive_crashes_do_not_wedge_the_service(
        tmp_path, supervisor_factory):
    path = plan_file(tmp_path, {
        f"boom{i}": Fault(kind=CRASH_WORKER, times=1)
        for i in range(3)})
    supervisor = supervisor_factory(workers=1, fault_plan=path)
    for i in range(3):
        job = supervisor.wait(supervisor.submit(request_for(f"boom{i}")))
        assert job.failure is None, job.failure
        assert job.attempts == 2
    assert supervisor.healthz()["restarts"] == 3
    final = supervisor.wait(supervisor.submit(request_for("steady")))
    assert final.failure is None
    assert final.attempts == 1


def test_hung_worker_killed_and_job_retried(tmp_path,
                                            supervisor_factory):
    path = plan_file(tmp_path, {
        "sleepy": Fault(kind=HANG_WORKER, times=1, sleep_seconds=60.0)})
    supervisor = supervisor_factory(workers=1, fault_plan=path,
                                    hang_grace=0.3)
    started = time.monotonic()
    job = supervisor.wait(supervisor.submit(
        request_for("sleepy", deadline_seconds=1.0)))
    elapsed = time.monotonic() - started
    assert job.failure is None, job.failure
    assert job.attempts == 2
    assert elapsed < 30.0                       # not the 60s nap
    assert supervisor.healthz()["restarts"] == 1


def test_queue_limit_sheds_with_retry_after(tmp_path,
                                            supervisor_factory):
    path = plan_file(tmp_path, {
        "slow": Fault(kind=HANG_WORKER, times=1, sleep_seconds=3.0)})
    supervisor = supervisor_factory(workers=1, queue_limit=2,
                                    fault_plan=path)
    blocker = supervisor.submit(request_for("slow"))
    filler = supervisor.submit(request_for("fill"))
    with pytest.raises(QueueFull) as err:
        supervisor.submit(request_for("shed"))
    assert err.value.retry_after > 0
    assert supervisor.stats()["counters"]["shed"] == 1
    for job in (blocker, filler):
        supervisor.wait(job)
        assert job.failure is None


def test_draining_rejects_new_but_finishes_accepted(supervisor_factory):
    supervisor = supervisor_factory(workers=1)
    job = supervisor.submit(request_for("last"))
    supervisor.begin_drain()
    with pytest.raises(ServiceDraining):
        supervisor.submit(request_for("late"))
    assert supervisor.drain(timeout=20.0) is True
    assert job.failure is None
    assert job.result["outcomes"][0]["status"] == "ok"


def test_stop_fails_pending_jobs_cleanly(supervisor_factory):
    supervisor = supervisor_factory(workers=1)
    jobs = [supervisor.submit(request_for(f"j{i}")) for i in range(3)]
    supervisor.stop()
    for job in jobs:
        assert job.done.is_set()
        assert job.failure is not None or job.result is not None


def test_backoff_resets_after_healthy_interval(tmp_path,
                                               supervisor_factory):
    path = plan_file(tmp_path, {
        "boom": Fault(kind=CRASH_WORKER, times=1)})
    supervisor = supervisor_factory(workers=1, fault_plan=path,
                                    healthy_reset=0.3)
    job = supervisor.wait(supervisor.submit(request_for("boom")))
    assert job.failure is None
    handle = supervisor._workers[0]
    assert handle.restarts == 1
    assert handle.backoff_level == 1

    # Prove the replacement healthy, then outlive healthy_reset: the
    # backoff *level* is forgiven while the lifetime restarts counter
    # (an observability total, not a policy input) is untouched.
    steady = supervisor.wait(supervisor.submit(request_for("steady")))
    assert steady.failure is None
    deadline = time.monotonic() + 10.0
    while handle.backoff_level != 0 and time.monotonic() < deadline:
        time.sleep(0.05)
    assert handle.backoff_level == 0
    assert handle.restarts == 1
    assert supervisor.healthz()["restarts"] == 1


def test_backoff_level_untouched_before_healthy_interval(
        tmp_path, supervisor_factory):
    path = plan_file(tmp_path, {
        "boom": Fault(kind=CRASH_WORKER, times=1)})
    supervisor = supervisor_factory(workers=1, fault_plan=path,
                                    healthy_reset=3600.0)
    job = supervisor.wait(supervisor.submit(request_for("boom")))
    assert job.failure is None
    handle = supervisor._workers[0]
    steady = supervisor.wait(supervisor.submit(request_for("steady")))
    assert steady.failure is None
    time.sleep(0.3)     # several supervisor loop ticks
    assert handle.backoff_level == 1


def test_config_validation():
    with pytest.raises(ValueError):
        Supervisor(ServiceConfig(workers=0))
    with pytest.raises(ValueError):
        Supervisor(ServiceConfig(queue_limit=0))
