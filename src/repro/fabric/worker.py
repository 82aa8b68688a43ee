"""A headless fabric worker: lease → compute → commit, forever.

``python -m repro worker --connect HOST:PORT`` runs this loop against a
coordinator.  Transport is the analysis service's
:class:`~repro.service.client.ServiceClient` (exponential backoff,
jitter, ``Retry-After``), so transient coordinator hiccups — a paused
process, a dropped connection — are retried; only *exhausted* retries
mean the coordinator is gone, and the worker then exits cleanly with
code 2 instead of spinning.

Per leased unit the worker runs the cells through the kernel's
:func:`~repro.runner.engine.run_unit` — the unit runner the supervised
sweep and the analysis service use — on its own warm
:class:`~repro.runner.engine.SessionPool`, which per cell

1. serves any cell the shared result cache already has a verified
   answer for (pays off for re-dispatched units whose first copy
   checkpointed before dying),
2. runs the rest on a warm analyzer (one encoding per group,
   incremental re-solves), and
3. checkpoints each computed outcome to the shared cache *before* the
   commit (write-behind: a coordinator killed between our cache write
   and our commit loses nothing — the resume pass read-throughs the
   cache).

It then commits the unit's outcomes.  A ``duplicate`` acknowledgement
means a speculative copy won the race — success, just not ours.

A background thread heartbeats each held lease at a third of its TTL.
The chaos suite injects the fault plan's lease-level kinds
(:data:`~repro.testing.faults.LEASE_KINDS`, plan named by
``REPRO_FAULTS``): crash, hang, straggle, partition (heartbeats
suppressed while the work continues) and lease-loss (silent
abandonment).
"""

from __future__ import annotations

import os
import socket
import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.fabric.protocol import FABRIC_PROTOCOL_VERSION
from repro.runner.cache import ResultCache
from repro.runner.engine import SessionPool, run_unit
from repro.runner.spec import ScenarioSpec
from repro.runner.trace import ScenarioOutcome
from repro.service.client import ServiceClient, ServiceError, \
    ServiceUnavailable
from repro.testing.faults import (
    CRASH_WORKER,
    HANG_WORKER,
    LEASE_LOSS,
    PARTITION,
    STRAGGLER,
    FaultPlan,
)

__all__ = ["FabricWorker", "WorkerConfig",
           "EXIT_DONE", "EXIT_COORDINATOR_GONE"]

#: the grid is finished; nothing left to lease.
EXIT_DONE = 0
#: retries against the coordinator exhausted: it is gone.
EXIT_COORDINATOR_GONE = 2

#: ceiling on the heartbeat period (the grant's TTL/3 caps it too).
HEARTBEAT_INTERVAL = 5.0
#: seconds to wait before re-polling when the coordinator gives no hint.
IDLE_SLEEP = 0.2


@dataclass
class WorkerConfig:
    """Worker knobs."""

    worker_id: str = ""
    #: the shared result cache (None: no cache).
    cache_dir: Optional[str] = None
    #: stop after this many leased units (tests; None: run to done).
    max_units: Optional[int] = None


class _Heartbeat:
    """Background lease keep-alive for one held unit."""

    def __init__(self, client: ServiceClient, worker_id: str,
                 unit_id: int, interval: float) -> None:
        self._client = client
        self._worker_id = worker_id
        self._unit_id = unit_id
        self._interval = interval
        self._stop = threading.Event()
        #: the PARTITION fault sets this: beats are silently skipped
        #: while the computation continues.
        self.suppressed = False
        self._thread = threading.Thread(
            target=self._run, daemon=True,
            name=f"fabric-heartbeat-{unit_id}")

    def start(self) -> "_Heartbeat":
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        self._thread.join(2.0)

    def _run(self) -> None:
        while not self._stop.wait(self._interval):
            if self.suppressed:
                continue
            try:
                self._client.request(
                    "POST", "/fabric/v1/heartbeat",
                    {"worker": self._worker_id, "unit": self._unit_id,
                     "protocol_version": FABRIC_PROTOCOL_VERSION})
            except (ServiceError, OSError):
                # A missed beat is survivable (the lease has slack) and
                # a dead coordinator is detected by the main loop's
                # lease/commit calls; never crash the computation.
                pass


class FabricWorker:
    """The lease → compute → commit loop against one coordinator."""

    def __init__(self, base_url: str,
                 config: Optional[WorkerConfig] = None) -> None:
        self.config = config or WorkerConfig()
        if not self.config.worker_id:
            self.config.worker_id = \
                f"{socket.gethostname()}-{os.getpid()}"
        self.client = ServiceClient(base_url, retries=4,
                                    backoff_seconds=0.05,
                                    backoff_cap=1.0)
        #: separate low-retry client so a slow heartbeat can never
        #: block the unit's computation thread behind long backoffs.
        self.beat_client = ServiceClient(base_url, retries=0)
        self.cache = ResultCache(self.config.cache_dir) \
            if self.config.cache_dir else None
        self.sessions = SessionPool()
        self.units_done = 0
        self.cells_done = 0
        self.duplicates = 0
        self.cache_hits = 0

    # -- the loop ------------------------------------------------------

    def run(self) -> int:
        """Work until the grid is done (0) or the coordinator dies (2)."""
        config = self.config
        while True:
            if config.max_units is not None \
                    and self.units_done >= config.max_units:
                return EXIT_DONE
            try:
                body = self.client.request(
                    "POST", "/fabric/v1/lease",
                    {"worker": config.worker_id,
                     "protocol_version": FABRIC_PROTOCOL_VERSION})
            except ServiceUnavailable:
                return EXIT_COORDINATOR_GONE
            except ServiceError:
                # 400/404: a coordinator speaking a different protocol
                # is as unusable as a dead one.
                return EXIT_COORDINATOR_GONE
            unit = body.get("unit")
            if unit is None:
                if body.get("done"):
                    return EXIT_DONE
                time.sleep(float(body.get("retry_after") or IDLE_SLEEP))
                continue
            try:
                self._work_unit(unit)
            except ServiceUnavailable:
                return EXIT_COORDINATOR_GONE
            self.units_done += 1

    def _work_unit(self, unit: Dict[str, Any]) -> None:
        config = self.config
        unit_id = int(unit["unit_id"])
        specs = [ScenarioSpec.from_dict(s) for s in unit["specs"]]
        fingerprints = [str(f) for f in unit["fingerprints"]]
        budget = unit.get("budget")
        self_check = unit.get("self_check")

        plan = FaultPlan.load()
        fault = None if plan is None \
            else plan.unit_fault([spec.label for spec in specs])
        kind = None if fault is None else fault.kind
        if kind == CRASH_WORKER:
            os._exit(23)
        if kind == LEASE_LOSS:
            # Silent abandonment: no heartbeat, no commit, no error —
            # recovery rides entirely on the coordinator's lease expiry.
            return
        if kind == HANG_WORKER:
            # Hung before even a first heartbeat: the lease lapses,
            # then the unit resumes late (its commit should lose).
            time.sleep(fault.sleep_seconds)

        ttl = float(unit.get("deadline_seconds") or 15.0)
        beat = _Heartbeat(self.beat_client, config.worker_id, unit_id,
                          min(HEARTBEAT_INTERVAL,
                              max(0.05, ttl / 3.0))).start()
        if kind == PARTITION:
            beat.suppressed = True
        try:
            if kind == STRAGGLER:
                # Heartbeats keep the lease alive while the unit sits
                # idle — only speculative re-dispatch can finish the
                # grid on time.
                time.sleep(fault.sleep_seconds)
            outcomes = self._execute(specs, fingerprints, budget,
                                     self_check)
        finally:
            beat.stop()
        body = self.client.request(
            "POST", "/fabric/v1/commit",
            {"worker": config.worker_id, "unit": unit_id,
             "outcomes": [outcome.to_dict() for outcome in outcomes],
             "protocol_version": FABRIC_PROTOCOL_VERSION})
        if body.get("duplicate"):
            self.duplicates += 1
        self.cells_done += len(outcomes)

    # -- execution -----------------------------------------------------

    def _execute(self, specs: List[ScenarioSpec],
                 fingerprints: List[str],
                 budget: Optional[Dict[str, Any]],
                 self_check: Optional[bool]
                 ) -> List[ScenarioOutcome]:
        """The unit's outcomes, each checkpointed before the commit."""
        outcomes = list(run_unit(specs, fingerprints, self.cache, budget,
                                 self_check, sessions=self.sessions))
        self.cache_hits += sum(outcome.cache_hit for outcome in outcomes)
        return outcomes

    def stats(self) -> Dict[str, Any]:
        return {"worker": self.config.worker_id,
                "units": self.units_done,
                "cells": self.cells_done,
                "duplicates": self.duplicates,
                "cache_hits": self.cache_hits}
