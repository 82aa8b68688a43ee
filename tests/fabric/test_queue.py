"""The lease queue's state machine under a controllable clock."""

import pytest

from repro.fabric import (
    COMMITTED,
    FAILED,
    Journal,
    LeaseQueue,
    PENDING,
    read_events,
)
from repro.fabric.queue import BACKOFF_BASE, BACKOFF_CAP


class Clock:
    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def queue_for(units=((0, 1), (2,)), **kwargs):
    clock = Clock()
    kwargs.setdefault("lease_ttl", 10.0)
    kwargs.setdefault("steal_after", 30.0)
    kwargs.setdefault("retry_budget", 2)
    return LeaseQueue(units, clock=clock, **kwargs), clock


def outcomes_for(queue, unit_id):
    return [{"status": "ok", "cell": idx}
            for idx in queue.units[unit_id].indices]


def test_lease_then_commit():
    queue, _ = queue_for()
    grant = queue.lease("w1")
    assert grant.unit_id == 0
    assert grant.indices == [0, 1]
    assert grant.attempt == 1
    assert not grant.speculative
    assert queue.commit("w1", 0, outcomes_for(queue, 0)) == "committed"
    assert queue.units[0].state == COMMITTED
    assert not queue.done
    queue.lease("w1")
    queue.commit("w1", 1, outcomes_for(queue, 1))
    assert queue.done
    assert set(queue.committed_outcomes()) == {0, 1, 2}


def test_each_worker_gets_a_distinct_unit():
    queue, _ = queue_for()
    assert queue.lease("w1").unit_id == 0
    assert queue.lease("w2").unit_id == 1
    assert queue.lease("w3") is None    # nothing stealable yet


def test_expiry_redispatches_with_backoff():
    queue, clock = queue_for()
    queue.lease("w1")
    clock.advance(11.0)                  # past the 10s ttl
    assert queue.expire_overdue() == [0]
    unit = queue.units[0]
    assert unit.state == PENDING
    assert unit.expiries == 1
    # Backoff: the unit is not leasable until base * 2**0 elapses...
    assert queue.lease("w1").unit_id == 1
    clock.advance(BACKOFF_BASE + 0.01)
    grant = queue.lease("w1")
    assert grant.unit_id == 0
    assert grant.attempt == 2


def test_backoff_grows_exponentially_then_caps():
    expected = []                        # doubling, until capped twice
    while expected[-2:] != [BACKOFF_CAP] * 2:
        expected.append(min(BACKOFF_CAP,
                            BACKOFF_BASE * 2 ** len(expected)))
    queue, clock = queue_for(units=((0,),), retry_budget=len(expected))
    waits = []
    for _ in expected:
        clock.advance(BACKOFF_CAP)       # past any pending backoff
        assert queue.lease("w1") is not None
        clock.advance(10.01)             # past the lease ttl
        queue.expire_overdue()
        waits.append(queue.units[0].backoff_until - clock.now)
    assert waits == pytest.approx(expected)
    # honoured: immediately after an expiry the unit is not leasable
    assert queue.lease("w1") is None
    clock.advance(BACKOFF_CAP + 0.01)
    assert queue.lease("w1") is not None


def test_heartbeat_extends_the_deadline():
    queue, clock = queue_for()
    queue.lease("w1")
    clock.advance(8.0)
    assert queue.heartbeat("w1", 0) is True
    clock.advance(8.0)                   # 16s total, but extended at 8
    assert queue.expire_overdue() == []
    assert queue.units[0].state != PENDING
    assert queue.heartbeat("w2", 0) is False     # not w2's lease
    assert queue.heartbeat("w1", 1) is False     # never leased


def test_retry_budget_exhaustion_fails_the_unit():
    queue, clock = queue_for(units=((0,),), retry_budget=2)
    for expiry in range(3):
        clock.advance(BACKOFF_CAP)       # past any pending backoff
        assert queue.lease("w1") is not None
        clock.advance(10.01)
        queue.expire_overdue()
    unit = queue.units[0]
    assert unit.state == FAILED
    assert "retry budget exhausted" in unit.failure
    assert queue.lease("w1") is None
    assert queue.done                    # failed counts as resolved
    assert queue.failed_units() == [unit]


def test_commit_revives_a_failed_unit():
    # Giving up was a scheduling decision; a late deterministic answer
    # is still the answer.
    queue, clock = queue_for(units=((0,),), retry_budget=0)
    queue.lease("w1")
    clock.advance(10.01)
    queue.expire_overdue()
    assert queue.units[0].state == FAILED
    assert queue.commit("w1", 0, outcomes_for(queue, 0)) == "committed"
    assert queue.units[0].state == COMMITTED
    assert queue.failed_units() == []


def test_steal_only_after_threshold_and_never_self():
    # Long ttl: the leases stay alive on their own; only the steal
    # threshold decides when speculative copies appear.
    queue, clock = queue_for(units=((0,), (1,)), steal_after=30.0,
                             lease_ttl=1000.0)
    queue.lease("w1")
    queue.lease("w2")
    clock.advance(29.0)
    assert queue.lease("w3") is None     # under the steal threshold
    clock.advance(1.01)
    grant = queue.lease("w1")            # steals 1, never its own 0
    assert grant is not None and grant.speculative
    assert grant.unit_id == 1
    grant = queue.lease("w3")
    assert grant is not None and grant.speculative
    assert grant.unit_id == 0
    # ...and never a third copy:
    clock.advance(40.0)
    assert queue.lease("w4") is None


def test_steal_prefers_the_longest_held_unit():
    queue, clock = queue_for(units=((0,), (1,)), steal_after=5.0)
    queue.lease("w1")                    # unit 0 at t0
    clock.advance(2.0)
    queue.lease("w2")                    # unit 1 at t0+2
    clock.advance(4.0)
    queue.heartbeat("w1", 0)
    queue.heartbeat("w2", 1)
    grant = queue.lease("w3")            # both past 5s? only unit 0 is
    assert grant.unit_id == 0
    assert grant.speculative


def test_first_commit_wins_speculative_loses():
    queue, clock = queue_for(units=((0,),), steal_after=5.0)
    queue.lease("w1")
    clock.advance(5.01)
    queue.heartbeat("w1", 0)
    assert queue.lease("w2").speculative
    assert queue.commit("w1", 0, outcomes_for(queue, 0)) == "committed"
    assert queue.commit("w2", 0, outcomes_for(queue, 0)) == "duplicate"
    assert queue.units[0].committed_by == "w1"


def test_surviving_speculative_lease_charges_no_expiry():
    # The primary lapses while the speculative copy is heartbeating:
    # the unit is not lost, so its retry budget is untouched.
    queue, clock = queue_for(units=((0,),), steal_after=5.0,
                             lease_ttl=10.0)
    queue.lease("w1")
    clock.advance(6.0)
    queue.heartbeat("w1", 0)            # w1 deadline now t+16
    queue.lease("w2")                   # speculative, deadline t+16
    clock.advance(8.0)
    queue.heartbeat("w2", 0)            # only w2 keeps beating
    clock.advance(9.0)                  # w1's lease lapses
    queue.expire_overdue()
    unit = queue.units[0]
    assert unit.state != PENDING
    assert unit.expiries == 0
    assert len(unit.leases) == 1
    assert unit.leases[0].worker == "w2"


def test_commit_from_an_expired_lease_is_accepted():
    queue, clock = queue_for(units=((0,),))
    queue.lease("w1")
    clock.advance(10.01)
    queue.expire_overdue()
    assert queue.units[0].state == PENDING
    # The partitioned worker's late answer lands before re-dispatch:
    assert queue.commit("w1", 0, outcomes_for(queue, 0)) == "committed"
    assert queue.lease("w2") is None
    assert queue.done


def test_commit_validation():
    queue, _ = queue_for()
    queue.lease("w1")
    with pytest.raises(KeyError):
        queue.commit("w1", 99, [])
    with pytest.raises(ValueError):
        queue.commit("w1", 0, [{"status": "ok"}])    # 1 for 2 cells


def test_every_transition_is_journaled_before_ack(tmp_path):
    path = tmp_path / "j.jsonl"
    journal = Journal(path)
    queue, clock = queue_for(units=((0,), (1,)), steal_after=5.0,
                             retry_budget=0, journal=journal)
    queue.lease("w1")
    queue.lease("w2")
    clock.advance(5.01)
    queue.heartbeat("w1", 0)
    queue.lease("w3")                    # speculative copy of unit 0
    clock.advance(5.0)                   # w2's un-heartbeated ttl lapses
    queue.expire_overdue()               # expire + fail unit 1
    queue.commit("w1", 0, outcomes_for(queue, 0))
    queue.commit("w3", 0, outcomes_for(queue, 0))
    journal.close()
    kinds = [e["event"] for e in read_events(path)]
    assert kinds.count("lease") == 2
    assert kinds.count("steal") == 1
    assert "expire" in kinds
    assert "fail" in kinds
    assert kinds.count("commit") == 1
    assert kinds.count("duplicate") == 1
    commit = read_events(path, kinds=("commit",))[0]
    assert commit["outcomes"] == outcomes_for(queue, 0)


def test_stats():
    queue, clock = queue_for()
    queue.lease("w1")
    queue.commit("w1", 0, outcomes_for(queue, 0))
    stats = queue.stats()
    assert stats["units"] == 2
    assert stats["cells"] == 3
    assert stats["committed"] == 1
    assert stats["pending"] == 1
    assert stats["dispatches"] == 1
