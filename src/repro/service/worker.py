"""The service's worker process: warm session pools + cache read-through.

One worker owns a :class:`SessionPool` of warm analyzers keyed by
:meth:`~repro.runner.spec.ScenarioSpec.encoding_group` fingerprints —
the same grouping the sweep engine batches warm units by, so repeated
requests against one (case, analyzer, state-infection) encoding re-solve
incrementally inside solver scopes instead of re-encoding per request.

Workers are crash-disposable by design: all durable state lives in the
shared on-disk result cache (read-through before computing, checkpoint
after), so the supervisor can kill and restart a worker at any moment
and lose nothing but warmth.  Each job's deadline is clamped into its
:class:`~repro.smt.budget.SolverBudget` wall budget, so a slow solve
degrades to a ``budget_exhausted`` partial outcome *inside* the
deadline — the supervisor's hard kill is the backstop, not the norm.

The pipe protocol (parent <-> worker) is tiny::

    {"op": "job", "id", "spec", "budget"?, "self_check"?, "deadline"?,
     "use_cache"?}                      -> {"op": "result", "id",
                                            "outcome", "stats"}
    {"op": "ping", "id"}                -> {"op": "pong", "id", "stats"}
    {"op": "shutdown"}                  -> (worker exits 0)
"""

from __future__ import annotations

import os
import time
from collections import OrderedDict
from typing import Any, Dict, Optional, Tuple

from repro.runner.cache import ResultCache
from repro.runner.engine import (
    build_analyzer,
    checkpoint,
    execute_with_analyzer,
    outcome_from_exception,
    plan_grid,
)
from repro.runner.spec import ScenarioSpec
from repro.runner.trace import ERROR, ScenarioOutcome
from repro.smt.budget import SolverBudget
from repro.smt.certificates import self_check_default
from repro.testing.faults import ServiceFaultPlan

#: os._exit code for a worker told to shut down while mid-recv.
_CLEAN_EXIT = 0


class SessionPool:
    """LRU pool of warm analyzers keyed by encoding-group fingerprint."""

    def __init__(self, limit: int = 8) -> None:
        if limit < 1:
            raise ValueError("session pool limit must be >= 1")
        self.limit = limit
        self._sessions: "OrderedDict[str, Tuple[Any, str]]" = \
            OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._sessions)

    def acquire(self, key: str, case, kind: str,
                backend: Optional[str] = None) -> Tuple[Any, str]:
        """The warm (analyzer, kind) for *key*, building on first use.

        ``key`` (the encoding group) already folds in the resolved
        backend, so two backends of the same case never share a session.
        """
        entry = self._sessions.get(key)
        if entry is not None:
            self._sessions.move_to_end(key)
            self.hits += 1
            return entry
        self.misses += 1
        entry = (build_analyzer(case, kind, warm=True, backend=backend),
                 kind)
        self._sessions[key] = entry
        while len(self._sessions) > self.limit:
            self._sessions.popitem(last=False)
            self.evictions += 1
        return entry

    def invalidate(self, key: str) -> None:
        """Drop a session whose solver state is no longer trusted."""
        self._sessions.pop(key, None)

    def stats(self) -> Dict[str, Any]:
        return {"sessions": len(self._sessions), "session_hits": self.hits,
                "session_misses": self.misses,
                "session_evictions": self.evictions}


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
        self._fault_plan = options.get("fault_plan")
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
        """Execute one job message; always returns a result message."""
        outcome = self._execute(message)
        self._absorb(outcome)
        return {"op": "result", "id": message.get("id"),
                "outcome": outcome.to_dict(), "stats": self.stats()}

    def _budget(self, message: Dict[str, Any]) -> Optional[SolverBudget]:
        limits = message.get("budget")
        deadline = message.get("deadline")
        if limits is None and deadline is None:
            return None
        budget = SolverBudget.from_dict(limits) if limits \
            else SolverBudget()
        return budget.clamped(deadline)

    def _execute(self, message: Dict[str, Any]) -> ScenarioOutcome:
        started = time.perf_counter()
        try:
            spec = ScenarioSpec.from_dict(message.get("spec") or {})
        except ValueError as exc:
            # The protocol layer rejects these before dispatch; this is
            # the defensive belt for direct pipe speakers.
            return ScenarioOutcome(
                spec=ScenarioSpec(case="<malformed>"), fingerprint="",
                status=ERROR, error=str(exc), worker_pid=os.getpid())

        plan = None
        try:
            plan = ServiceFaultPlan.load(self._fault_plan)
        except (OSError, ValueError, KeyError):
            plan = None
        if plan is not None:
            plan.apply_worker_fault(spec.label)

        budget = self._budget(message)
        self_check = message.get("self_check", self._self_check_default)
        if budget is not None:
            budget.start()   # covers fingerprint + case build too
        cache = self._cache if message.get("use_cache", True) else None
        if plan is not None:
            cache = plan.wrap_cache(spec.label, cache)
        grid = plan_grid([spec], cache, self_check_default(self_check))
        resolved = grid.outcomes[0]
        if resolved is not None:
            if resolved.cache_hit:
                self.cache_hits += 1
            else:
                # Rejected or failed while fingerprinting: nothing to run.
                resolved.worker_pid = os.getpid()
                resolved.task_seconds = time.perf_counter() - started
            return resolved
        if cache is not None:
            self.cache_misses += 1
        fingerprint = grid.fingerprints[0]
        outcome = ScenarioOutcome(spec=spec, fingerprint=fingerprint,
                                  worker_pid=os.getpid())
        try:
            case = spec.resolve_case()
            kind = spec.resolved_analyzer(case)
            group = spec.encoding_group()
            analyzer, kind = self.pool.acquire(
                group, case, kind, backend=spec.resolved_backend(case))
        except Exception as exc:
            return outcome_from_exception(outcome, exc, started)

        finished = execute_with_analyzer(
            spec, fingerprint, analyzer, kind, budget, self_check,
            started=started, outcome=outcome)
        if finished.status == ERROR:
            # The warm solver may be mid-scope after an arbitrary
            # failure: evict so the next request re-encodes cleanly.
            self.pool.invalidate(group)
        checkpoint(cache, fingerprint, finished)
        if finished.cache_write_error is not None:
            self.cache_write_errors += 1
        return finished


def worker_main(conn, worker_id: int,
                options: Optional[Dict[str, Any]] = None) -> None:
    """Process entry point: serve jobs from the pipe until shutdown."""
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
