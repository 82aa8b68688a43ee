"""The fabric coordinator: shards a grid and serves it to workers.

One :class:`Coordinator` owns a scenario grid end to end:

1. **Plan** — the *same* :func:`repro.runner.engine.plan_grid` the
   single-machine sweep runs: fingerprint every spec, resolve what needs
   no worker (parse rejections, journal-recovered cells, verified cache
   hits), and partition the rest into warm encoding-group units, capped
   at ``unit_cells`` so lease durations stay bounded.
2. **Serve** — the JSON/HTTP acceptor ``repro serve`` runs too
   (:class:`~repro.service.acceptor.JsonAcceptor`, which owns body
   parsing, routing and error mapping) hands units out as leases
   (``/fabric/v1/lease``), extends them on heartbeats, and accepts
   commits exactly once (see :mod:`repro.fabric.queue`).  This module
   keeps only the route callables.
   Committed outcomes are structurally and semantically re-validated —
   the same :meth:`ScenarioOutcome.from_dict` + spec-equality gate the
   cache path uses — before they can enter the journal, and are then
   checkpointed to the shared result cache write-behind.
3. **Survive** — every plan and commit is journaled durably before it
   is acknowledged, so a coordinator killed at any instant restarts
   with ``--journal`` pointing at the same file: the journal's commits
   plus the cache determine every finished cell, the remainder is
   re-planned, and the old journal generation is kept as ``<path>.N``
   for audit.  SIGTERM checkpoints and exits with the documented
   resumable code 5, exactly like ``repro sweep``.

Workers never see the journal or the queue — just the three HTTP
endpoints — so the fleet can span machines; the shared cache is an
optimisation, not a correctness requirement (commits carry the full
outcome payloads).
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.fabric.journal import Journal, read_events
from repro.fabric.protocol import (
    FABRIC_PROTOCOL_VERSION,
    ProtocolError,
    parse_commit_request,
    parse_heartbeat_request,
    parse_lease_request,
)
from repro.fabric.queue import LeaseQueue
from repro.runner.cache import ResultCache
from repro.runner.engine import GridPlan, checkpoint, plan_grid, \
    plan_units
from repro.runner.spec import ScenarioSpec
from repro.runner.trace import CRASHED, ScenarioOutcome, SweepTrace
from repro.service.acceptor import JsonAcceptor, Reply
from repro.smt.certificates import self_check_default
from repro.testing.faults import FaultPlan

__all__ = ["Coordinator", "CoordinatorConfig", "FabricError"]

#: lease-poll hint when nothing is leasable right now.
IDLE_RETRY_AFTER = 0.2

#: encoding groups are split into at least this many units.
UNIT_CHUNKS = 2

#: seconds between lease-expiry sweeps while waiting for the grid.
POLL_INTERVAL = 0.1


class FabricError(Exception):
    """A coordinator-level refusal (e.g. resuming a different grid)."""


@dataclass
class CoordinatorConfig:
    """Coordinator knobs (lease timing, durability, cache)."""

    host: str = "127.0.0.1"
    port: int = 0
    journal_path: str = "fabric-journal.jsonl"
    #: seconds a lease lives without a heartbeat.
    lease_ttl: float = 15.0
    #: seconds a unit may be held before speculative re-dispatch.
    steal_after: float = 30.0
    #: lease expiries per unit before it is recorded as ``crashed``.
    retry_budget: int = 3
    #: cap on cells per unit (bounds lease duration); None: group size.
    unit_cells: Optional[int] = 8
    #: the shared result cache (None: no cache).
    cache_dir: Optional[str] = None
    #: SolverBudget limits shipped to workers per scenario.
    budget_limits: Optional[Dict[str, Any]] = None
    self_check: Optional[bool] = None


def grid_fingerprint(specs: Sequence[ScenarioSpec],
                     budget_limits: Optional[Dict[str, Any]],
                     self_check: Optional[bool]) -> str:
    """Deterministic identity of a grid run.

    Covers the ordered spec payloads plus the execution options that
    change outcomes (budget limits, certified mode) — a journal can
    only resume the exact run that wrote it.
    """
    digest = hashlib.sha256()
    payload = {"specs": [spec.to_dict() for spec in specs],
               "budget": budget_limits, "self_check": self_check}
    digest.update(json.dumps(payload, sort_keys=True,
                             separators=(",", ":")).encode())
    return digest.hexdigest()


class Coordinator:
    """Owns the plan, the lease queue, the journal and the acceptor."""

    def __init__(self, specs: Sequence[ScenarioSpec],
                 config: Optional[CoordinatorConfig] = None,
                 verbose: bool = False) -> None:
        self.specs = list(specs)
        self.config = config or CoordinatorConfig()
        self.verbose = verbose
        self.cache = ResultCache(self.config.cache_dir) \
            if self.config.cache_dir else None
        self.journal: Optional[Journal] = None
        self.queue: Optional[LeaseQueue] = None
        self.plan: Optional[GridPlan] = None
        self.grid = grid_fingerprint(self.specs, self.config.budget_limits,
                                     self.config.self_check)
        #: journal generation being written (0: a fresh run).
        self.generation = 0
        self.resumed = False
        self.journal_recovered = 0
        self.acceptor: Optional[JsonAcceptor] = None
        self._lock = threading.Lock()
        self._lease_requests = 0
        self._commits = 0
        self._duplicates = 0

    # -- planning ------------------------------------------------------

    def prepare(self) -> GridPlan:
        """Resolve, recover, and partition; opens the journal."""
        config = self.config
        journal_file = Path(config.journal_path)
        recovered = self._recover(journal_file) \
            if journal_file.exists() else {}
        plan = plan_grid(
            self.specs, self.cache, self_check_default(config.self_check),
            functools.partial(plan_units, chunks=UNIT_CHUNKS,
                              max_cells=config.unit_cells),
            known=recovered)
        self.journal_recovered = sum(
            plan.outcomes[idx] is outcome
            for idx, outcome in recovered.items())
        self._open_generation(plan, journal_file)
        self.plan = plan
        self.queue = LeaseQueue(
            plan.units, lease_ttl=config.lease_ttl,
            steal_after=config.steal_after,
            retry_budget=config.retry_budget, journal=self.journal)
        return plan

    def _recover(self, journal_file: Path) -> Dict[int, ScenarioOutcome]:
        """The cells a previous generation's journal determined."""
        events = read_events(journal_file)
        plan_event = next((e for e in events if e["event"] == "plan"),
                          None)
        self.resumed = True
        if plan_event is None:
            # A journal with no plan event recorded nothing durable;
            # treat it as absent (it is rotated away regardless).
            return {}
        if plan_event.get("grid") != self.grid:
            raise FabricError(
                f"journal {journal_file} belongs to a different grid "
                f"(or different budget/self-check options); refusing "
                f"to resume — pass a fresh --journal path or rerun the "
                f"original command line")
        self.generation = int(plan_event.get("generation", 0)) + 1
        determined: Dict[int, Dict[str, Any]] = {}
        for key, payload in (plan_event.get("resolved") or {}).items():
            determined[int(key)] = payload
        units = plan_event.get("units") or []
        for event in events:
            if event["event"] != "commit":
                continue
            unit_id = event.get("unit")
            if not isinstance(unit_id, int) \
                    or not 0 <= unit_id < len(units):
                continue
            for idx, payload in zip(units[unit_id],
                                    event.get("outcomes") or []):
                determined[idx] = payload
        recovered: Dict[int, ScenarioOutcome] = {}
        for idx, payload in determined.items():
            if not 0 <= idx < len(self.specs):
                continue
            try:
                outcome = ScenarioOutcome.from_dict(payload)
            except ValueError:
                continue
            if outcome.spec.to_dict() == self.specs[idx].to_dict():
                recovered[idx] = outcome
        return recovered

    def _open_generation(self, plan: GridPlan,
                         journal_file: Path) -> None:
        """Rotate any previous journal aside and start a fresh one.

        The new generation's ``plan`` event carries every cell already
        determined (journal-recovered, cache-served, rejected), so each
        generation's journal is *self-contained*: a second kill only
        ever needs the newest file.
        """
        if journal_file.exists():
            suffix = 1
            while journal_file.with_name(
                    journal_file.name + f".{suffix}").exists():
                suffix += 1
            journal_file.rename(journal_file.with_name(
                journal_file.name + f".{suffix}"))
        self.journal = Journal(journal_file)
        resolved = {
            str(idx): outcome.to_dict()
            for idx, outcome in enumerate(plan.outcomes)
            if outcome is not None}
        self.journal.append({
            "event": "plan", "generation": self.generation,
            "grid": self.grid, "cells": len(self.specs),
            "units": [list(unit) for unit in plan.units],
            "resolved": resolved})

    # -- routes (called from acceptor threads) -------------------------

    def handle_lease(self, payload: Any) -> Reply:
        worker = parse_lease_request(payload)
        with self._lock:
            self._lease_requests += 1
        grant = self.queue.lease(worker)
        if grant is None:
            return 200, {"unit": None, "done": self.queue.done,
                         "retry_after": IDLE_RETRY_AFTER,
                         "protocol_version": FABRIC_PROTOCOL_VERSION}
        config = self.config
        unit = {
            "unit_id": grant.unit_id,
            "attempt": grant.attempt,
            "speculative": grant.speculative,
            "deadline_seconds": grant.deadline_seconds,
            "specs": [self.specs[idx].to_dict()
                      for idx in grant.indices],
            "fingerprints": [self.plan.fingerprints[idx]
                             for idx in grant.indices],
        }
        if config.budget_limits:
            unit["budget"] = dict(config.budget_limits)
        if config.self_check is not None:
            unit["self_check"] = config.self_check
        return 200, {"unit": unit, "done": False,
                     "protocol_version": FABRIC_PROTOCOL_VERSION}

    def handle_heartbeat(self, payload: Any) -> Reply:
        worker, unit_id = parse_heartbeat_request(
            payload, len(self.queue.units))
        alive = self.queue.heartbeat(worker, unit_id)
        return 200, {"ok": True, "lease_valid": alive,
                     "protocol_version": FABRIC_PROTOCOL_VERSION}

    def handle_commit(self, payload: Any) -> Reply:
        worker, unit_id, payloads = parse_commit_request(
            payload, len(self.queue.units))
        indices = self.queue.units[unit_id].indices
        outcomes = self._validate_commit(unit_id, indices, payloads)
        verdict = self.queue.commit(worker, unit_id, payloads)
        if verdict == "duplicate":
            with self._lock:
                self._duplicates += 1
            return 200, {"accepted": True, "duplicate": True,
                         "protocol_version": FABRIC_PROTOCOL_VERSION}
        with self._lock:
            self._commits += 1
        self._checkpoint(indices, outcomes)
        self._maybe_die(outcomes)
        return 200, {"accepted": True, "duplicate": False,
                     "protocol_version": FABRIC_PROTOCOL_VERSION}

    def _validate_commit(self, unit_id: int, indices: Sequence[int],
                         payloads: List[Dict[str, Any]]
                         ) -> List[ScenarioOutcome]:
        """Reject a commit whose outcomes don't match the unit's cells."""
        from repro.validation.diagnostics import FATAL, ValidationReport
        report = ValidationReport(subject="/fabric/commit request")
        if len(payloads) != len(indices):
            report.add("protocol.bad_field", FATAL,
                       f"unit {unit_id} has {len(indices)} cell(s); "
                       f"commit carries {len(payloads)} outcome(s)",
                       ["field:outcomes"])
            raise ProtocolError(report)
        outcomes: List[ScenarioOutcome] = []
        for position, (idx, payload) in enumerate(zip(indices,
                                                      payloads)):
            try:
                outcome = ScenarioOutcome.from_dict(payload)
            except ValueError as exc:
                report.add("protocol.bad_field", FATAL,
                           f"outcomes[{position}] is malformed: {exc}",
                           [f"field:outcomes[{position}]"])
                raise ProtocolError(report)
            if outcome.spec.to_dict() != self.specs[idx].to_dict():
                report.add("protocol.bad_field", FATAL,
                           f"outcomes[{position}] is for a different "
                           f"scenario than the unit's cell",
                           [f"field:outcomes[{position}]"])
                raise ProtocolError(report)
            outcomes.append(outcome)
        return outcomes

    def _checkpoint(self, indices: Sequence[int],
                    outcomes: Sequence[ScenarioOutcome]) -> None:
        """Write-behind committed outcomes to the shared cache."""
        for idx, outcome in zip(indices, outcomes):
            checkpoint(self.cache, self.plan.fingerprints[idx], outcome)

    def _maybe_die(self, outcomes: Sequence[ScenarioOutcome]) -> None:
        """Injected COORDINATOR_KILL: die right *after* the journaled
        commit — the resume path's worst case (commit durable, queue
        gone, workers orphaned)."""
        plan = FaultPlan.load()
        if plan is not None and plan.should_kill_coordinator(
                [outcome.spec.label for outcome in outcomes]):
            os._exit(5)

    # -- lifecycle -----------------------------------------------------

    @property
    def address(self) -> Tuple[str, int]:
        return self.acceptor.address

    @property
    def url(self) -> str:
        return self.acceptor.url

    def start(self) -> "Coordinator":
        """Plan (or resume) and start serving leases in the background."""
        if self.plan is None:
            self.prepare()
        self.acceptor = JsonAcceptor(
            self.config.host, self.config.port,
            server_version="repro-fabric/" + str(FABRIC_PROTOCOL_VERSION),
            get_routes={"/healthz": lambda: (200, {"ok": True,
                                                   "done": self.queue.done}),
                        "/readyz": lambda: (200, {"ready": True}),
                        "/fabric/v1/status": lambda: (200, self.status())},
            post_routes={"/fabric/v1/lease": self.handle_lease,
                         "/fabric/v1/heartbeat": self.handle_heartbeat,
                         "/fabric/v1/commit": self.handle_commit},
            # a commit carries a whole unit's outcome payloads.
            max_body_bytes=32 << 20, verbose=self.verbose).start()
        return self

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until every unit is committed or failed.

        Keeps sweeping lease deadlines while waiting, so crashed or
        partitioned workers are detected even when no healthy worker is
        polling for leases.  Returns False on timeout.
        """
        deadline = None if timeout is None \
            else time.monotonic() + timeout
        while not self.queue.done:
            if deadline is not None and time.monotonic() >= deadline:
                return False
            self.queue.expire_overdue()
            time.sleep(POLL_INTERVAL)
        return True

    def shutdown(self) -> None:
        """Stop serving and close the journal (idempotent, kill-safe)."""
        if self.acceptor is not None:
            self.acceptor.shutdown()
        if self.journal is not None:
            self.journal.close()

    # -- results -------------------------------------------------------

    def trace(self, wall_seconds: float, workers: int = 0) -> SweepTrace:
        """The finished (or interrupted) run as a ``SweepTrace``.

        Cells whose unit exhausted its retry budget are recorded as
        ``crashed`` with the unit's failure reason; cells still pending
        at interrupt time are simply absent (they resume next
        generation).
        """
        outcomes: List[Optional[ScenarioOutcome]] = \
            list(self.plan.outcomes)
        committed = self.queue.committed_outcomes()
        for idx, payload in committed.items():
            if outcomes[idx] is None:
                try:
                    outcomes[idx] = ScenarioOutcome.from_dict(payload)
                except ValueError:
                    continue
        for unit in self.queue.failed_units():
            for idx in unit.indices:
                if outcomes[idx] is None:
                    outcomes[idx] = ScenarioOutcome(
                        spec=self.specs[idx],
                        fingerprint=self.plan.fingerprints[idx],
                        status=CRASHED, attempts=unit.dispatches,
                        error=unit.failure or "unit failed")
        return SweepTrace(
            outcomes=[o for o in outcomes if o is not None],
            wall_seconds=wall_seconds,
            workers=workers, mode="fabric",
            cache_dir=str(self.cache.root) if self.cache else None,
            cache_rejected=self.plan.cache_rejected)

    def status(self) -> Dict[str, Any]:
        stats = self.queue.stats()
        with self._lock:
            stats.update({
                "lease_requests": self._lease_requests,
                "commits": self._commits,
                "duplicate_commits": self._duplicates,
            })
        stats.update({
            "grid": self.grid,
            "generation": self.generation,
            "resumed": self.resumed,
            "cells_total": len(self.specs),
            "cells_resolved_at_plan": sum(
                1 for o in self.plan.outcomes if o is not None),
            "cache_hits": self.plan.cache_hits,
            "journal_recovered": self.journal_recovered,
            "done": self.queue.done,
        })
        return stats
