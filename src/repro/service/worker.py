"""The service's worker process: warm session pools + cache read-through.

One worker owns a :class:`~repro.runner.engine.SessionPool` of warm
analyzers keyed by :meth:`~repro.runner.spec.ScenarioSpec.encoding_group`
fingerprints — the same grouping the sweep engine batches warm units by,
so repeated requests against one (case, analyzer, state-infection)
encoding re-solve incrementally inside solver scopes instead of
re-encoding per request.

A job is a unit of one or more cells (a service request is a unit of
one; a supervised sweep sends a planned unit), and every cell runs
through the kernel's :func:`~repro.runner.engine.run_unit` on this
pool.  Workers are crash-disposable by design: all durable state lives
in the shared on-disk result cache (read-through before computing, a
checkpoint as each cell finishes), so the supervisor can kill and
restart a worker at any moment and lose nothing but warmth and the cell
in flight.  Each cell gets a fresh :class:`~repro.smt.budget.SolverBudget`
with its wall limit clamped to the job's per-cell deadline, so a slow
solve degrades to a ``budget_exhausted`` partial outcome *inside* the
deadline — the supervisor's hard kill is the backstop, not the norm.

The pipe protocol (parent <-> worker) is tiny::

    {"op": "job", "id", "specs", "fingerprints"?, "budget"?,
     "self_check"?, "deadline"?, "use_cache"?}
                                        -> {"op": "result", "id",
                                            "outcomes", "stats"}
    {"op": "ping", "id"}                -> {"op": "pong", "id", "stats"}
    {"op": "shutdown"}                  -> (worker exits 0)
"""

from __future__ import annotations

import os
import signal
import threading
import time
from typing import Any, Dict, Optional

from repro.runner.cache import ResultCache
from repro.runner.engine import SessionPool, outcome_from_exception, \
    run_unit
from repro.runner.spec import ScenarioSpec
from repro.runner.trace import ERROR, ScenarioOutcome
from repro.smt.budget import SolverBudget
from repro.testing.faults import FaultPlan, InjectedFault


class ServiceWorker:
    """Executes jobs against a warm session pool (one per process)."""

    def __init__(self, worker_id: int,
                 options: Optional[Dict[str, Any]] = None) -> None:
        options = options or {}
        self.worker_id = worker_id
        self.pool = SessionPool(limit=int(options.get("session_limit", 8)))
        cache_dir = options.get("cache_dir")
        self._cache = ResultCache(cache_dir) if cache_dir else None
        self._self_check_default = options.get("self_check")
        self.jobs = 0
        self.cache_hits = 0
        self.cache_misses = 0
        self.cache_write_errors = 0
        self.encode_seconds = 0.0
        self.solve_seconds = 0.0
        self.analysis_seconds = 0.0

    # -- stats ----------------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        payload = {"pid": os.getpid(), "jobs": self.jobs,
                   "cache_hits": self.cache_hits,
                   "cache_misses": self.cache_misses,
                   "cache_write_errors": self.cache_write_errors,
                   "encode_seconds": self.encode_seconds,
                   "solve_seconds": self.solve_seconds,
                   "analysis_seconds": self.analysis_seconds}
        payload.update(self.pool.stats())
        return payload

    def _absorb(self, outcome: ScenarioOutcome) -> None:
        self.jobs += 1
        self.analysis_seconds += outcome.analysis_seconds
        session = (outcome.trace or {}).get("session", {})
        self.encode_seconds += session.get("encode_seconds", 0.0)
        self.solve_seconds += session.get("solve_seconds", 0.0)

    # -- job execution --------------------------------------------------

    def run_job(self, message: Dict[str, Any]) -> Dict[str, Any]:
        """Execute one job message; always returns a result message
        with one outcome per cell of the job."""
        specs = message.get("specs") or []
        fingerprints = message.get("fingerprints") or [None] * len(specs)
        outcomes = [self._execute(payload, message, fingerprint)
                    for payload, fingerprint in zip(specs, fingerprints)]
        for outcome in outcomes:
            self._absorb(outcome)
        return {"op": "result", "id": message.get("id"),
                "outcomes": [outcome.to_dict() for outcome in outcomes],
                "stats": self.stats()}

    def _execute(self, payload: Any, message: Dict[str, Any],
                 fingerprint: Optional[str]) -> ScenarioOutcome:
        """One cell of a job: fault injection (chaos plans only), then
        the unit runner on this worker's warm session pool.

        A sweep unit carries the fingerprints its planner computed; a
        cell without one (a service request) is fingerprinted here.
        """
        started = time.perf_counter()
        try:
            spec = ScenarioSpec.from_dict(payload)
        except ValueError as exc:
            # The protocol layer rejects these before dispatch; this is
            # the defensive belt for direct pipe speakers.
            return ScenarioOutcome(
                spec=ScenarioSpec(case="<malformed>"), fingerprint="",
                status=ERROR, error=str(exc), worker_pid=os.getpid())
        limits = message.get("budget")
        deadline = message.get("deadline")
        if deadline is not None:
            limits = (SolverBudget.from_dict(limits) if limits
                      else SolverBudget()).clamped(deadline).to_dict()
        cache = self._cache if message.get("use_cache", True) else None
        plan = FaultPlan.load()
        if plan is not None:
            try:
                injected, limits, cache = plan.inject(spec, limits, cache)
            except InjectedFault as exc:
                return outcome_from_exception(ScenarioOutcome(
                    spec=spec, fingerprint="", worker_pid=os.getpid()),
                    exc, started)
            if injected is not spec:
                # The planned fingerprint keys the submitted spec, not
                # the one analysed now: never cache under it.
                spec, fingerprint = injected, None
        [outcome] = run_unit(
            [spec], None if fingerprint is None else [fingerprint],
            cache=cache, budget_limits=limits,
            self_check=message.get("self_check", self._self_check_default),
            sessions=self.pool)
        if outcome.cache_hit:
            self.cache_hits += 1
        elif cache is not None and outcome.fingerprint:
            self.cache_misses += 1
        if outcome.cache_write_error is not None:
            self.cache_write_errors += 1
        return outcome


def worker_main(conn, worker_id: int,
                options: Optional[Dict[str, Any]] = None) -> None:
    """Process entry point: serve jobs from the pipe until shutdown."""
    if threading.current_thread() is threading.main_thread():
        # A worker process: the supervisor owns interrupts (Ctrl-C
        # reaches the whole process group) and stops workers with
        # SIGTERM, which must kill, not run an inherited handler.
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
    worker = ServiceWorker(worker_id, options)
    try:
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                break               # supervisor went away
            if not isinstance(message, dict):
                continue
            op = message.get("op")
            if op == "shutdown":
                break
            if op == "ping":
                conn.send({"op": "pong", "id": message.get("id"),
                           "stats": worker.stats()})
                continue
            if op == "job":
                conn.send(worker.run_job(message))
    finally:
        try:
            conn.close()
        except OSError:
            pass
