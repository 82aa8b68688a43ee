"""The analysis service: the supervisor behind the shared acceptor.

:class:`ServiceServer` hands the
:class:`~repro.service.acceptor.JsonAcceptor` (body parsing, 404/413,
400 on malformed or schema-invalid payloads — see
:mod:`repro.service.protocol` — and 500 without a traceback) its routes,
and keeps the service's own status mapping.  Each request is submitted
to the :class:`~repro.service.supervisor.Supervisor` and its handler
thread blocks on the job's completion latch:

* bounded-queue shed → **429** + ``Retry-After``,
* draining, worker-failure after retry, service timeout → **503**
  (+ ``Retry-After`` where retrying is sensible),
* everything else — including ``budget_exhausted`` partial answers and
  ``invalid_input`` rejections — is a **200** whose outcome carries its
  own status, because the *service* worked even when the analysis
  degraded.

``GET /healthz`` (liveness + restart counts), ``GET /readyz``
(dispatchable right now?) and ``GET /stats`` (queue depth, warm-session
hit ratio, per-worker counters, the acceptor's ``http`` counters) feed
orchestration and the soak tests.
"""

from __future__ import annotations

import functools
from typing import Any, Dict, Optional, Tuple

from repro.service.acceptor import JsonAcceptor, Reply
from repro.service.protocol import (
    PROTOCOL_VERSION,
    error_body,
    parse_request,
    parse_sweep_request,
)
from repro.service.supervisor import (
    QueueFull,
    ServiceConfig,
    ServiceDraining,
    Supervisor,
)
from repro.testing.faults import FaultPlan

#: Retry-After hint when shedding because of drain/shutdown.
DRAIN_RETRY_AFTER = 2.0


class ServiceServer:
    """Owns the acceptor + supervisor pair and their lifecycles."""

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 config: Optional[ServiceConfig] = None,
                 verbose: bool = False) -> None:
        self.config = config or ServiceConfig()
        self.supervisor = Supervisor(self.config)
        self.acceptor = JsonAcceptor(
            host, port,
            server_version="repro-serve/" + str(PROTOCOL_VERSION),
            get_routes={"/healthz": self._healthz,
                        "/readyz": self._readyz,
                        "/stats": self._stats},
            post_routes={
                "/v1/analyze": functools.partial(self.run_one,
                                                 kind="analyze"),
                "/v1/maximize": functools.partial(self.run_one,
                                                  kind="maximize"),
                "/v1/sweep": self.run_sweep},
            max_body_bytes=4 << 20,
            should_drop=self.should_drop, verbose=verbose)

    # -- lifecycle -----------------------------------------------------

    @property
    def address(self) -> Tuple[str, int]:
        return self.acceptor.address

    @property
    def url(self) -> str:
        return self.acceptor.url

    def start(self) -> "ServiceServer":
        self.supervisor.start()
        self.acceptor.start()
        return self

    def serve_forever(self) -> None:
        """Foreground mode for the CLI (blocks until request_stop())."""
        self.supervisor.start()
        self.acceptor.serve_forever()

    def begin_drain(self) -> None:
        self.supervisor.begin_drain()

    def request_stop(self) -> None:
        """Signal-handler-safe stop: drain + async accept-loop halt."""
        self.begin_drain()
        self.acceptor.stop()

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Graceful stop: shed new work, finish in-flight, shut down."""
        self.begin_drain()
        drained = self.supervisor.drain(timeout)
        self.shutdown()
        return drained

    def shutdown(self) -> None:
        self.acceptor.shutdown()
        self.supervisor.stop()

    # -- routes (called from acceptor threads) -------------------------

    def _healthz(self) -> Reply:
        body = self.supervisor.healthz()
        return (200 if body["ok"] else 503), body

    def _readyz(self) -> Reply:
        body = self.supervisor.readyz()
        return (200 if body["ready"] else 503), body

    def _stats(self) -> Reply:
        body = self.supervisor.stats()
        body["http"] = self.http_stats()
        return 200, body

    def http_stats(self) -> Dict[str, Any]:
        return self.acceptor.stats()

    def _submit_and_wait(self, request) -> Reply:
        supervisor = self.supervisor
        try:
            job = supervisor.submit(request)
        except QueueFull as exc:
            return 429, error_body(
                "queue_full", "request queue is at capacity",
                retry_after=exc.retry_after)
        except ServiceDraining:
            return 503, error_body(
                "draining", "service is draining for shutdown",
                retry_after=DRAIN_RETRY_AFTER)
        supervisor.wait(job)
        if job.failure is not None:
            code, message = job.failure
            retry = DRAIN_RETRY_AFTER if code == "worker_failed" \
                else None
            return 503, error_body(code, message, retry_after=retry)
        # A request is a unit of one cell.
        outcomes = (job.result or {}).get("outcomes") or [None]
        body = {"outcome": outcomes[0],
                "served_by": job.worker_id,
                "attempts": job.attempts,
                "protocol_version": PROTOCOL_VERSION}
        return 200, body

    def run_one(self, payload: Any, kind: str) -> Reply:
        request = parse_request(payload, kind)
        status, body = self._submit_and_wait(request)
        if status == 200:
            body["label"] = request.label
        return status, body

    def run_sweep(self, payload: Any) -> Reply:
        cells = []
        for request in parse_sweep_request(payload):
            status, body = self._submit_and_wait(request)
            if status != 200:
                # Shed/fail the whole sweep with the cell that broke it;
                # completed cells are already checkpointed in the cache,
                # so a client retry resumes warm.
                body["completed_cells"] = cells
                return status, body
            cells.append({"label": request.label,
                          "outcome": body["outcome"],
                          "served_by": body["served_by"],
                          "attempts": body["attempts"]})
        return 200, {"cells": cells, "count": len(cells),
                     "protocol_version": PROTOCOL_VERSION}

    # -- chaos hooks ---------------------------------------------------

    def should_drop(self, body: Dict[str, Any]) -> bool:
        """Injected DROP_CONNECTION fault for the finished request."""
        plan = FaultPlan.load()
        if plan is None:
            return False
        label = body.get("label") or ""
        if not label:
            outcome = body.get("outcome") or {}
            spec = outcome.get("spec") if isinstance(outcome, dict) \
                else {}
            label = (spec or {}).get("label") or ""
        if not label:
            return False
        return plan.should_drop_connection(label)
