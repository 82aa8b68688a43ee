"""The coordinator's durable lease queue.

A :class:`LeaseQueue` owns the fabric's unit state machine::

    pending ──lease──▶ leased ──commit──▶ committed
       ▲                 │
       └──── expiry ─────┘──(budget exhausted)──▶ failed

and enforces the robustness contract the fabric is built around:

* **Leases with heartbeats** — a granted unit carries a deadline;
  heartbeats push it forward.  A worker that crashes, hangs or
  partitions stops heartbeating, the deadline passes, and the unit
  returns to ``pending`` with exponential backoff.  Expiries (not lease
  grants) count against the per-unit retry budget, so a healthy fleet
  re-leasing work after coordinator restarts is never penalised.
* **Speculative re-dispatch (work-stealing)** — when no pending unit
  remains, a unit whose oldest lease has been held past ``steal_after``
  can be leased a *second* time to a different worker.  Whichever copy
  commits first wins.
* **Exactly-once commit** — the first commit for a unit is accepted and
  journaled (even from an expired lease: execution is deterministic, so
  a partitioned worker's late answer is as good as anyone's); every
  later commit is acknowledged as a duplicate and discarded.  A commit
  even revives a ``failed`` unit — giving up was a scheduling decision,
  not a verdict about the work.

Every transition is journaled *before* it takes effect externally, so
the queue's state is always reconstructible (see
:mod:`repro.fabric.journal`).  All public methods are thread-safe; the
coordinator's HTTP handler threads call them directly.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.fabric.journal import Journal

__all__ = ["LeaseGrant", "LeaseQueue", "WorkUnit",
           "PENDING", "LEASED", "COMMITTED", "FAILED"]

#: unit states.
PENDING = "pending"
LEASED = "leased"
COMMITTED = "committed"
FAILED = "failed"

#: seconds an expired unit waits before it is leasable again; the wait
#: doubles with each further expiry of the same unit, up to
#: ``BACKOFF_CAP``.
BACKOFF_BASE = 0.25
BACKOFF_CAP = 10.0


@dataclass
class _Lease:
    worker: str
    attempt: int
    granted: float
    deadline: float
    speculative: bool = False


@dataclass
class WorkUnit:
    """One leased execution unit (a warm encoding-group slice)."""

    unit_id: int
    indices: List[int]
    state: str = PENDING
    leases: List[_Lease] = field(default_factory=list)
    #: times all leases on this unit lapsed (counts against the budget).
    expiries: int = 0
    #: lease grants handed out, ever (audit only).
    dispatches: int = 0
    backoff_until: float = 0.0
    outcomes: Optional[List[Dict[str, Any]]] = None
    committed_by: Optional[str] = None
    failure: Optional[str] = None


@dataclass(frozen=True)
class LeaseGrant:
    """What a worker receives for one lease request."""

    unit_id: int
    indices: List[int]
    attempt: int
    speculative: bool
    deadline_seconds: float


class LeaseQueue:
    """Thread-safe lease/commit state machine over planned units."""

    def __init__(self, units: Sequence[Sequence[int]],
                 lease_ttl: float = 15.0,
                 steal_after: float = 30.0,
                 retry_budget: int = 3,
                 backoff_base: float = BACKOFF_BASE,
                 backoff_cap: float = BACKOFF_CAP,
                 journal: Optional[Journal] = None,
                 clock: Callable[[], float] = time.monotonic) -> None:
        self.units = [WorkUnit(unit_id=i, indices=list(unit))
                      for i, unit in enumerate(units)]
        self.lease_ttl = lease_ttl
        self.steal_after = steal_after
        self.retry_budget = retry_budget
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.journal = journal
        self.clock = clock
        self._lock = threading.Lock()

    # -- journal plumbing ----------------------------------------------

    def _record(self, event: Dict[str, Any]) -> None:
        if self.journal is not None:
            self.journal.append(event)

    # -- lease side ----------------------------------------------------

    def lease(self, worker: str) -> Optional[LeaseGrant]:
        """Grant the next unit to *worker*, or None when nothing fits.

        Preference order: the first pending unit whose backoff has
        elapsed; failing that, the longest-held singly-leased unit past
        the steal threshold (speculative re-dispatch) — never one of
        *worker*'s own leases, and never a third copy.
        """
        with self._lock:
            now = self.clock()
            self._expire_overdue(now)
            for unit in self.units:
                if unit.state == PENDING and unit.backoff_until <= now:
                    return self._grant(unit, worker, now,
                                       speculative=False)
            candidate: Optional[WorkUnit] = None
            for unit in self.units:
                if unit.state != LEASED or len(unit.leases) != 1:
                    continue
                lease = unit.leases[0]
                if lease.worker == worker:
                    continue
                if now - lease.granted < self.steal_after:
                    continue
                if candidate is None \
                        or lease.granted < candidate.leases[0].granted:
                    candidate = unit
            if candidate is not None:
                return self._grant(candidate, worker, now,
                                   speculative=True)
            return None

    def _grant(self, unit: WorkUnit, worker: str, now: float,
               speculative: bool) -> LeaseGrant:
        unit.dispatches += 1
        lease = _Lease(worker=worker, attempt=unit.dispatches,
                       granted=now, deadline=now + self.lease_ttl,
                       speculative=speculative)
        self._record({"event": "steal" if speculative else "lease",
                      "unit": unit.unit_id, "worker": worker,
                      "attempt": unit.dispatches})
        unit.state = LEASED
        unit.leases.append(lease)
        return LeaseGrant(unit_id=unit.unit_id,
                          indices=list(unit.indices),
                          attempt=unit.dispatches,
                          speculative=speculative,
                          deadline_seconds=self.lease_ttl)

    def heartbeat(self, worker: str, unit_id: int) -> bool:
        """Extend *worker*'s lease on the unit; False if it is gone."""
        with self._lock:
            now = self.clock()
            self._expire_overdue(now)
            unit = self._unit(unit_id)
            if unit is None or unit.state != LEASED:
                return False
            for lease in unit.leases:
                if lease.worker == worker:
                    lease.deadline = now + self.lease_ttl
                    return True
            return False

    # -- commit side ---------------------------------------------------

    def commit(self, worker: str, unit_id: int,
               outcomes: List[Dict[str, Any]]) -> str:
        """First-commit-wins: ``"committed"`` or ``"duplicate"``.

        Accepted regardless of lease validity — the work is
        deterministic, so a late answer from an expired or partitioned
        lease is exactly as correct as the speculative copy's.  The
        commit is journaled (with its full outcome payloads) before it
        is acknowledged, so an acknowledged commit is never lost.
        """
        with self._lock:
            unit = self._unit(unit_id)
            if unit is None:
                raise KeyError(f"no such unit: {unit_id}")
            if len(outcomes) != len(unit.indices):
                raise ValueError(
                    f"unit {unit_id} commit carries {len(outcomes)} "
                    f"outcome(s) for {len(unit.indices)} cell(s)")
            if unit.state == COMMITTED:
                self._record({"event": "duplicate", "unit": unit_id,
                              "worker": worker})
                return "duplicate"
            self._record({"event": "commit", "unit": unit_id,
                          "worker": worker, "outcomes": outcomes})
            unit.state = COMMITTED
            unit.outcomes = list(outcomes)
            unit.committed_by = worker
            unit.failure = None
            unit.leases = []
            return "committed"

    # -- expiry --------------------------------------------------------

    def expire_overdue(self) -> List[int]:
        """Drop lapsed leases; returns unit ids whose last lease fell."""
        with self._lock:
            return self._expire_overdue(self.clock())

    def _expire_overdue(self, now: float) -> List[int]:
        expired: List[int] = []
        for unit in self.units:
            if unit.state != LEASED:
                continue
            live = [l for l in unit.leases if l.deadline > now]
            if len(live) == len(unit.leases):
                continue
            unit.leases = live
            if live:
                # The other copy (primary or speculative) is still
                # heartbeating — the unit is not lost, so its budget
                # is untouched.
                continue
            unit.expiries += 1
            expired.append(unit.unit_id)
            self._record({"event": "expire", "unit": unit.unit_id,
                          "expiries": unit.expiries})
            if unit.expiries > self.retry_budget:
                unit.state = FAILED
                unit.failure = (f"retry budget exhausted after "
                                f"{unit.expiries} lease expiries")
                self._record({"event": "fail", "unit": unit.unit_id,
                              "reason": unit.failure})
            else:
                unit.state = PENDING
                unit.backoff_until = now + min(
                    self.backoff_cap,
                    self.backoff_base * (2 ** (unit.expiries - 1)))
        return expired

    # -- queries -------------------------------------------------------

    def _unit(self, unit_id: int) -> Optional[WorkUnit]:
        if 0 <= unit_id < len(self.units):
            return self.units[unit_id]
        return None

    @property
    def done(self) -> bool:
        with self._lock:
            return all(unit.state in (COMMITTED, FAILED)
                       for unit in self.units)

    def committed_outcomes(self) -> Dict[int, Dict[str, Any]]:
        """Cell index → outcome payload, over every committed unit."""
        with self._lock:
            results: Dict[int, Dict[str, Any]] = {}
            for unit in self.units:
                if unit.state == COMMITTED and unit.outcomes:
                    for idx, outcome in zip(unit.indices, unit.outcomes):
                        results[idx] = outcome
            return results

    def failed_units(self) -> List[WorkUnit]:
        with self._lock:
            return [unit for unit in self.units if unit.state == FAILED]

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            counts = {PENDING: 0, LEASED: 0, COMMITTED: 0, FAILED: 0}
            for unit in self.units:
                counts[unit.state] += 1
            return {
                "units": len(self.units),
                "cells": sum(len(u.indices) for u in self.units),
                "pending": counts[PENDING],
                "leased": counts[LEASED],
                "committed": counts[COMMITTED],
                "failed": counts[FAILED],
                "dispatches": sum(u.dispatches for u in self.units),
                "expiries": sum(u.expiries for u in self.units),
            }
