"""Worker supervision for the analysis service.

The :class:`Supervisor` owns N worker processes (see
:mod:`repro.service.worker`), a bounded job queue, and one dispatcher
thread that multiplexes the worker pipes with
:func:`multiprocessing.connection.wait`.  Dispatch is immediate: a
submitter queues its job and writes one byte to a wake pipe the loop
waits on too, so an idle worker gets the job at once.  Only the loop
thread touches the worker pipes; the ``POLL_INTERVAL`` tick paces just
hang detection, restarts and pings.  Its job is to make worker
failure boring:

* a worker that **dies** (crash, OOM-kill, injected ``os._exit``) is
  detected via its closed pipe / dead process, restarted with a fresh
  (empty) session pool after an exponential restart backoff, and the
  job it was holding is re-queued — at most ``retry_limit`` times,
  after which the job fails cleanly with ``worker_failed`` instead of
  wedging its connection;
* a worker that **hangs** past its job's deadline (plus slack for the
  budget's own cooperative degrade) is killed and treated the same —
  the in-band :meth:`~repro.smt.budget.SolverBudget.clamped` wall
  budget is the soft limit, the supervisor's kill is the hard one.  A
  job is a *unit* of one or more cells run back to back, each with the
  job's deadline, so the kill horizon scales with the cell count; a job
  without a deadline is never killed;
* the queue is **bounded**: once ``queue_limit`` jobs are pending or
  in flight, :meth:`submit` raises :class:`QueueFull` and the acceptor
  sheds the request with 429 + ``Retry-After`` rather than building an
  unbounded backlog;
* **drain** (SIGTERM) flips submissions to :class:`ServiceDraining`
  (503 upstream) while in-flight and queued jobs run to completion and
  checkpoint into the shared cache, then workers shut down cleanly.

The service submits one request per job; ``repro sweep --workers N``
submits one planned unit per job and maps a job's failure onto its
cells.  If worker *processes* cannot be spawned at all (restricted
sandboxes), the supervisor degrades to daemon *threads* running the
same ``worker_main`` loop: full functionality, reduced isolation (a
hung thread can only be abandoned, not killed — the pipe is severed
and a fresh worker thread takes its slot).
"""

from __future__ import annotations

import collections
import multiprocessing
import multiprocessing.connection
import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.runner.cache import DEFAULT_CACHE_DIR
from repro.service.protocol import PROTOCOL_VERSION, ServiceRequest
from repro.service.worker import worker_main

#: multiplier on a job's deadline before the supervisor hard-kills: the
#: clamped wall budget should fire first; this is the backstop for code
#: that never reaches a budget hook (e.g. a sleep in C, a real hang).
HANG_MULTIPLIER = 1.25

#: seconds between housekeeping passes (hang kills, respawns, pings)
#: when no reply or submission wakes the loop first.
POLL_INTERVAL = 0.05

#: a crashed worker's first restart backoff in seconds; it doubles per
#: consecutive failure up to ``RESTART_BACKOFF_CAP``.
RESTART_BACKOFF = 0.05

#: ceiling on a crashed worker's exponential restart backoff.
RESTART_BACKOFF_CAP = 2.0

#: seconds a restarted worker must stay alive before its restart
#: *backoff* resets to ``RESTART_BACKOFF`` (the lifetime ``restarts``
#: counter is untouched).  Without this, backoff grows monotonically
#: over a worker's whole life and a transient crash burst months ago
#: would permanently slow recovery from the next one.
HEALTHY_RESET = 30.0


class QueueFull(Exception):
    """Load shed: the bounded queue is at capacity (HTTP 429)."""

    def __init__(self, retry_after: float) -> None:
        super().__init__(f"queue full; retry after {retry_after:.1f}s")
        self.retry_after = retry_after


class ServiceDraining(Exception):
    """The service is draining for shutdown (HTTP 503)."""


@dataclass
class ServiceConfig:
    """Tunables for one service instance."""

    workers: int = 2
    queue_limit: int = 16
    #: default per-job deadline when the request does not set one.
    request_timeout: float = 60.0
    #: extra seconds past deadline*HANG_MULTIPLIER before a hard kill.
    hang_grace: float = 1.0
    #: re-dispatches after a worker failure before the job fails.
    retry_limit: int = 1
    #: the shared result cache (None: no cache).
    cache_dir: Optional[str] = DEFAULT_CACHE_DIR
    session_limit: int = 8
    self_check: Optional[bool] = None
    drain_timeout: float = 30.0

    def worker_options(self) -> Dict[str, Any]:
        return {"session_limit": self.session_limit,
                "cache_dir": self.cache_dir,
                "self_check": self.self_check}


class ServiceJob:
    """One queued/in-flight unit of cells and its completion latch."""

    __slots__ = ("id", "payload", "deadline", "cells", "attempts",
                 "done", "result", "failure", "hung", "worker_id",
                 "submitted_at")

    def __init__(self, job_id: int, payload: Dict[str, Any],
                 deadline: Optional[float]) -> None:
        self.id = job_id
        self.payload = dict(payload, op="job", id=job_id,
                            deadline=deadline)
        #: per-cell seconds (None: the job is never hard-killed).
        self.deadline = deadline
        self.cells = max(1, len(payload.get("specs") or ()))
        self.attempts = 0
        self.done = threading.Event()
        self.result: Optional[Dict[str, Any]] = None
        self.failure: Optional[Tuple[str, str]] = None
        #: whether the last failed attempt hung (killed) or died.
        self.hung = False
        self.worker_id: Optional[int] = None
        self.submitted_at = time.monotonic()

    def finish(self, result: Dict[str, Any]) -> None:
        self.result = result
        self.done.set()

    def fail(self, code: str, message: str) -> None:
        self.failure = (code, message)
        self.done.set()

    def kill_after(self, hang_grace: float) -> Optional[float]:
        if self.deadline is None:
            return None
        return self.deadline * HANG_MULTIPLIER * self.cells + hang_grace


class WorkerHandle:
    """One supervised worker: its process/thread, pipe and bookkeeping."""

    def __init__(self, worker_id: int, options: Dict[str, Any],
                 ctx) -> None:
        self.worker_id = worker_id
        self.options = options
        self.ctx = ctx
        self.conn = None
        self.process = None
        self.thread = None
        self.restarts = 0
        #: consecutive-failure level the next restart backoff derives
        #: from; reset to 0 once the worker stays healthy for
        #: ``HEALTHY_RESET`` seconds (unlike ``restarts``,
        #: which counts for the worker's whole lifetime).
        self.backoff_level = 0
        self.spawned_at: Optional[float] = None
        self.busy: Optional[ServiceJob] = None
        self.dispatched_at: Optional[float] = None
        self.respawn_at: Optional[float] = None
        self.last_stats: Dict[str, Any] = {}
        self.pinged_at = 0.0

    # -- lifecycle -----------------------------------------------------

    def spawn(self) -> None:
        parent, child = self.ctx.Pipe(duplex=True)
        try:
            process = self.ctx.Process(
                target=worker_main,
                args=(child, self.worker_id, self.options),
                daemon=True, name=f"repro-worker-{self.worker_id}")
            process.start()
            child.close()
            self.process, self.thread = process, None
        except (OSError, ValueError):
            # Restricted sandbox: same loop in a daemon thread (reduced
            # isolation — hangs are abandoned, not killed).
            thread = threading.Thread(
                target=worker_main,
                args=(child, self.worker_id, self.options),
                daemon=True, name=f"repro-worker-{self.worker_id}")
            thread.start()
            self.process, self.thread = None, thread
        self.conn = parent
        self.busy = None
        self.dispatched_at = None
        self.respawn_at = None
        self.spawned_at = time.monotonic()
        self.last_stats = {}

    def alive(self) -> bool:
        if self.process is not None:
            return self.process.is_alive()
        if self.thread is not None:
            return self.thread.is_alive()
        return False

    def kill(self) -> None:
        if self.conn is not None:
            try:
                self.conn.close()
            except OSError:
                pass
            self.conn = None
        if self.process is not None:
            if self.process.is_alive():
                self.process.terminate()
                self.process.join(0.5)
                if self.process.is_alive():
                    self.process.kill()
                    self.process.join(0.5)
            self.process = None
        # A hung thread cannot be killed; severing the pipe lets a
        # healthy one exit and abandons a truly wedged one.
        self.thread = None

    def shutdown(self, timeout: float = 2.0) -> None:
        if self.conn is not None and self.busy is None:
            try:
                self.conn.send({"op": "shutdown"})
            except (OSError, ValueError, BrokenPipeError):
                pass
        process = self.process
        if process is not None:
            process.join(timeout)
        self.kill()

    # -- dispatch ------------------------------------------------------

    def dispatch(self, job: ServiceJob) -> bool:
        """Send *job* down the pipe; False means this worker is dead."""
        if self.conn is None:
            return False
        try:
            self.conn.send(job.payload)
        except (OSError, ValueError, BrokenPipeError):
            return False
        job.attempts += 1
        job.worker_id = self.worker_id
        self.busy = job
        self.dispatched_at = time.monotonic()
        return True

    def ping(self) -> None:
        if self.conn is None or self.busy is not None:
            return
        try:
            self.conn.send({"op": "ping", "id": -1})
            self.pinged_at = time.monotonic()
        except (OSError, ValueError, BrokenPipeError):
            pass

    def describe(self) -> Dict[str, Any]:
        return {"worker": self.worker_id, "alive": self.alive(),
                "mode": "thread" if self.thread is not None else "process",
                "restarts": self.restarts,
                "busy": self.busy.id if self.busy is not None else None,
                "stats": dict(self.last_stats)}


class Supervisor:
    """Dispatches jobs to supervised workers; restarts what breaks."""

    def __init__(self, config: Optional[ServiceConfig] = None) -> None:
        self.config = config or ServiceConfig()
        if self.config.workers < 1:
            raise ValueError("need at least one worker")
        if self.config.queue_limit < 1:
            raise ValueError("queue_limit must be >= 1")
        if self.config.session_limit < 1:
            # Checked here, not in the workers, where SessionPool would
            # refuse it on every spawn and crash-loop the service.
            raise ValueError("session_limit must be >= 1")
        self._ctx = multiprocessing.get_context()
        self._workers: List[WorkerHandle] = []
        self._pending: "collections.deque[ServiceJob]" = \
            collections.deque()
        self._lock = threading.Lock()
        self._job_ids = iter(range(1, 1 << 62)).__next__
        self._loop_thread: Optional[threading.Thread] = None
        #: one-way wake channel: submitters write a byte, the loop waits
        #: on the read end beside the worker pipes.
        self._wake_r, self._wake_w = self._ctx.Pipe(duplex=False)
        #: a wake byte is unread.  The byte is written and read, and the
        #: flag set and cleared, under _lock, so at most one byte is ever
        #: in the pipe (a submitter never blocks on it) and no wake is
        #: lost.
        self._wake_pending = False
        self._stop = threading.Event()
        self._draining = threading.Event()
        self.started_at: Optional[float] = None
        # counters (under _lock)
        self.submitted = 0
        self.completed = 0
        self.failed = 0
        self.retried = 0
        self.shed = 0
        #: first dispatches and their submit-to-dispatch seconds.
        self.dispatched = 0
        self.queue_wait_s = 0.0
        self.queue_wait_max_s = 0.0
        #: counters inherited from killed workers, so /stats totals
        #: survive restarts (gauges like "sessions"/"pid" excluded).
        self._retired_totals: Dict[str, float] = {}

    # -- lifecycle -----------------------------------------------------

    def start(self) -> "Supervisor":
        if self._loop_thread is not None:
            return self
        options = self.config.worker_options()
        for worker_id in range(self.config.workers):
            handle = WorkerHandle(worker_id, options, self._ctx)
            handle.spawn()
            self._workers.append(handle)
        self._loop_thread = threading.Thread(
            target=self._loop, daemon=True, name="repro-supervisor")
        self._loop_thread.start()
        self.started_at = time.monotonic()
        return self

    def stop(self) -> None:
        """Immediate shutdown: fail queued jobs, kill workers."""
        self._draining.set()
        self._stop.set()
        self._wake()
        if self._loop_thread is not None:
            self._loop_thread.join(2.0)
            if not self._loop_thread.is_alive():
                self._wake_r.close()
                self._wake_w.close()
            self._loop_thread = None
        with self._lock:
            pending = list(self._pending)
            self._pending.clear()
        for job in pending:
            job.fail("service_stopped", "service shut down before "
                                        "the job was dispatched")
        for handle in self._workers:
            if handle.busy is None:
                handle.shutdown()
                continue
            # A busy worker would not read a shutdown message before its
            # job ends: kill it now.
            handle.busy.fail("service_stopped",
                             "service shut down mid-job")
            handle.busy = None
            handle.kill()
        self._workers = []

    def begin_drain(self) -> None:
        """Stop accepting new jobs; in-flight work keeps running."""
        self._draining.set()

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Drain gracefully; True when every accepted job finished."""
        self.begin_drain()
        deadline = time.monotonic() + (timeout if timeout is not None
                                       else self.config.drain_timeout)
        while time.monotonic() < deadline:
            with self._lock:
                queued = len(self._pending)
            busy = sum(1 for h in self._workers if h.busy is not None)
            if queued == 0 and busy == 0:
                self.stop()
                return True
            time.sleep(POLL_INTERVAL)
        self.stop()
        return False

    @property
    def draining(self) -> bool:
        return self._draining.is_set()

    # -- submission ----------------------------------------------------

    def submit(self, request: ServiceRequest) -> ServiceJob:
        """Queue one request; raises QueueFull/ServiceDraining to shed."""
        deadline = request.deadline_seconds \
            if request.deadline_seconds is not None \
            else self.config.request_timeout
        return self.submit_unit(request.job_payload(), deadline)

    def submit_unit(self, payload: Dict[str, Any],
                    deadline: Optional[float]) -> ServiceJob:
        """Queue one unit ``{"specs", "budget"?, "self_check"?,
        "use_cache"?}`` whose cells each get *deadline* seconds (None:
        never killed); raises QueueFull/ServiceDraining to shed."""
        if self._draining.is_set():
            raise ServiceDraining("service is draining")
        with self._lock:
            in_flight = sum(1 for h in self._workers
                            if h.busy is not None)
            if len(self._pending) + in_flight >= self.config.queue_limit:
                self.shed += 1
                raise QueueFull(retry_after=max(
                    0.5, (deadline or self.config.request_timeout)
                    / max(1, self.config.workers)))
            job = ServiceJob(self._job_ids(), payload, deadline)
            self._pending.append(job)
            self.submitted += 1
        self._wake()
        return job

    def _wake(self) -> None:
        """Have the loop run a dispatch pass now, not on its next tick."""
        with self._lock:
            if self._wake_pending:
                return
            self._wake_pending = True
            try:
                self._wake_w.send_bytes(b"w")
            except OSError:
                pass            # closed by stop(): nothing left to wake

    def wait(self, job: ServiceJob,
             timeout: Optional[float] = None) -> ServiceJob:
        """Block until *job* finishes (or the safety timeout trips)."""
        per_attempt = job.kill_after(self.config.hang_grace)
        if timeout is None and per_attempt is not None:
            # Generous backstop: every allowed attempt at its hard-kill
            # horizon, plus queueing/restart slack.  The dispatcher
            # should always beat this.
            timeout = (self.config.retry_limit + 1) * per_attempt \
                + self.config.drain_timeout
        if not job.done.wait(timeout):
            job.fail("service_timeout",
                     f"job {job.id} did not complete within {timeout:.1f}s")
        return job

    # -- the dispatcher loop -------------------------------------------

    def _loop(self) -> None:
        while not self._stop.is_set():
            try:
                self._respawn_due()
                self._dispatch_pending()
                self._collect_replies()
                self._reap_dead_and_hung()
                self._reset_recovered_backoff()
                self._ping_idle()
            except Exception:
                # The loop must never die: a wedged dispatcher is the
                # one failure the service cannot recover from.
                time.sleep(POLL_INTERVAL)

    def _respawn_due(self) -> None:
        now = time.monotonic()
        for handle in self._workers:
            if handle.conn is None and handle.respawn_at is not None \
                    and now >= handle.respawn_at:
                handle.spawn()

    def _dispatch_pending(self) -> None:
        for handle in self._workers:
            if handle.conn is None or handle.busy is not None:
                continue
            if not handle.alive():
                continue
            with self._lock:
                job = self._pending.popleft() if self._pending else None
            if job is None:
                return
            first = job.attempts == 0
            if not handle.dispatch(job):
                with self._lock:
                    self._pending.appendleft(job)
                self._worker_failed(handle, requeue=False)
            elif first:
                waited = handle.dispatched_at - job.submitted_at
                with self._lock:
                    self.dispatched += 1
                    self.queue_wait_s += waited
                    self.queue_wait_max_s = max(self.queue_wait_max_s,
                                                waited)

    def _collect_replies(self) -> None:
        conns = {handle.conn: handle for handle in self._workers
                 if handle.conn is not None}
        ready = multiprocessing.connection.wait(
            [self._wake_r, *conns], timeout=POLL_INTERVAL)
        for conn in ready:
            if conn is self._wake_r:
                with self._lock:
                    self._wake_r.recv_bytes()
                    self._wake_pending = False
                continue
            handle = conns[conn]
            try:
                message = conn.recv()
            except (EOFError, OSError):
                self._worker_failed(handle, requeue=True)
                continue
            if not isinstance(message, dict):
                continue
            handle.last_stats = message.get("stats") or handle.last_stats
            if message.get("op") != "result":
                continue
            job = handle.busy
            handle.busy = None
            handle.dispatched_at = None
            if job is None or message.get("id") != job.id:
                continue
            job.finish(message)
            with self._lock:
                self.completed += 1

    def _reap_dead_and_hung(self) -> None:
        now = time.monotonic()
        for handle in self._workers:
            if handle.conn is None:
                continue
            if not handle.alive() and handle.process is not None:
                self._worker_failed(handle, requeue=True)
                continue
            job = handle.busy
            horizon = None if job is None \
                else job.kill_after(self.config.hang_grace)
            if horizon is not None and handle.dispatched_at is not None \
                    and now - handle.dispatched_at > horizon:
                self._worker_failed(handle, requeue=True, hung=True)

    def _reset_recovered_backoff(self) -> None:
        """Forget the failure burst once a worker proves healthy.

        A worker that has stayed alive for ``HEALTHY_RESET`` seconds
        since its last (re)spawn gets its backoff level zeroed — the
        next crash restarts at the base backoff instead of wherever the
        last burst left off.  The lifetime ``restarts`` counter is
        deliberately untouched (it is an observability total, not a
        policy input).
        """
        now = time.monotonic()
        for handle in self._workers:
            if handle.backoff_level == 0 or handle.conn is None:
                continue
            if handle.spawned_at is not None and handle.alive() \
                    and now - handle.spawned_at \
                    >= HEALTHY_RESET:
                handle.backoff_level = 0

    def _ping_idle(self) -> None:
        now = time.monotonic()
        for handle in self._workers:
            if now - handle.pinged_at >= 1.0:
                handle.ping()

    def _worker_failed(self, handle: WorkerHandle, requeue: bool,
                       hung: bool = False) -> None:
        """Kill + schedule respawn; re-queue or fail the held job."""
        job = handle.busy
        handle.busy = None
        handle.dispatched_at = None
        self._retire_stats(handle.last_stats)
        handle.last_stats = {}      # don't report a dead worker's gauges
        handle.kill()
        handle.restarts += 1
        # Exponential backoff over the *recent* failure burst only: the
        # level resets after a healthy interval, so a worker that
        # crashed repeatedly last week still restarts promptly today.
        backoff = min(RESTART_BACKOFF_CAP,
                      RESTART_BACKOFF * (2 ** min(handle.backoff_level, 10)))
        handle.backoff_level += 1
        handle.respawn_at = time.monotonic() + backoff
        if job is None or not requeue:
            return
        job.hung = hung
        why = "hung past its deadline" if hung else "died"
        if job.attempts <= self.config.retry_limit:
            with self._lock:
                self._pending.appendleft(job)
                self.retried += 1
        else:
            job.fail("worker_failed",
                     f"worker {handle.worker_id} {why} and the job "
                     f"already used its {job.attempts} attempt(s)")
            with self._lock:
                self.failed += 1

    def _retire_stats(self, last_stats: Dict[str, Any]) -> None:
        with self._lock:
            for key, value in (last_stats or {}).items():
                if key in ("pid", "sessions"):
                    continue        # gauges, not counters
                if isinstance(value, (int, float)):
                    self._retired_totals[key] = \
                        self._retired_totals.get(key, 0) + value

    # -- introspection -------------------------------------------------

    def healthz(self) -> Dict[str, Any]:
        workers = [handle.describe() for handle in self._workers]
        return {"ok": bool(workers)
                      and any(w["alive"] for w in workers),
                "draining": self.draining,
                "workers": workers,
                "restarts": sum(w["restarts"] for w in workers)}

    def readyz(self) -> Dict[str, Any]:
        alive = sum(1 for h in self._workers if h.alive())
        ready = alive > 0 and not self.draining
        return {"ready": ready, "alive_workers": alive,
                "draining": self.draining}

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            queued = len(self._pending)
            counters = {"submitted": self.submitted,
                        "completed": self.completed,
                        "failed": self.failed,
                        "retried": self.retried,
                        "shed": self.shed}
            dispatch = {"jobs": self.dispatched,
                        "queue_wait_s": self.queue_wait_s,
                        "queue_wait_max_s": self.queue_wait_max_s}
        busy = sum(1 for h in self._workers if h.busy is not None)
        worker_stats = [h.describe() for h in self._workers]
        with self._lock:
            totals: Dict[str, float] = dict(self._retired_totals)
        for entry in worker_stats:
            for key, value in entry["stats"].items():
                if isinstance(value, (int, float)) and key != "pid":
                    totals[key] = totals.get(key, 0) + value
        hits = totals.get("session_hits", 0)
        misses = totals.get("session_misses", 0)
        warm = hits / (hits + misses) if hits + misses else None
        uptime = None if self.started_at is None \
            else time.monotonic() - self.started_at
        return {"queued": queued, "busy": busy, "uptime": uptime,
                "queue_limit": self.config.queue_limit,
                "draining": self.draining, "counters": counters,
                "dispatch": dispatch,
                "workers": worker_stats, "totals": totals,
                "warm_hit_ratio": warm,
                "protocol_version": PROTOCOL_VERSION}
