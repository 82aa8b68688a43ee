"""The HTTP acceptor in front of the supervisor.

A stdlib :class:`~http.server.ThreadingHTTPServer`: each connection
gets a thread that parses the request strictly (see
:mod:`repro.service.protocol`), submits it to the
:class:`~repro.service.supervisor.Supervisor`, and blocks on the job's
completion latch.  Failure surfaces map onto plain HTTP:

* malformed / version-skewed payloads → **400** with the structured
  ``diagnostics`` report (never a stack trace),
* bounded-queue shed → **429** + ``Retry-After``,
* draining, worker-failure after retry, service timeout → **503**
  (+ ``Retry-After`` where retrying is sensible),
* everything else — including ``budget_exhausted`` partial answers and
  ``invalid_input`` rejections — is a **200** whose outcome carries its
  own status, because the *service* worked even when the analysis
  degraded.

``GET /healthz`` (liveness + restart counts), ``GET /readyz``
(dispatchable right now?) and ``GET /stats`` (queue depth, warm-session
hit ratio, per-worker counters) feed orchestration and the soak tests.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional, Tuple

from repro.service.protocol import (
    MALFORMED,
    PROTOCOL_VERSION,
    ProtocolError,
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
from repro.testing.faults import ServiceFaultPlan

#: refuse request bodies past this size before reading them fully.
MAX_BODY_BYTES = 4 << 20

#: Retry-After hint when shedding because of drain/shutdown.
DRAIN_RETRY_AFTER = 2.0


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server_version = "repro-serve/" + str(PROTOCOL_VERSION)

    # quiet by default; the CLI flips this on with --verbose.
    def log_message(self, format, *args):  # noqa: A002
        if getattr(self.server, "verbose", False):
            super().log_message(format, *args)

    # -- plumbing ------------------------------------------------------

    @property
    def service(self) -> "ServiceServer":
        return self.server.service    # type: ignore[attr-defined]

    def _send_json(self, status: int, body: Dict[str, Any],
                   retry_after: Optional[float] = None) -> None:
        payload = json.dumps(body).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        if retry_after is not None:
            self.send_header("Retry-After",
                             str(max(1, int(round(retry_after)))))
        self.end_headers()
        self.wfile.write(payload)

    def _read_body(self) -> Any:
        length = int(self.headers.get("Content-Length") or 0)
        if length <= 0:
            raise _HttpError(400, error_body(
                MALFORMED, "request has no body"))
        if length > MAX_BODY_BYTES:
            raise _HttpError(413, error_body(
                MALFORMED,
                f"request body exceeds {MAX_BODY_BYTES} bytes"))
        raw = self.rfile.read(length)
        try:
            return json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise _HttpError(400, error_body(
                MALFORMED, f"request body is not valid JSON: {exc}"))

    # -- GET -----------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802
        service = self.service
        if self.path == "/healthz":
            body = service.supervisor.healthz()
            self._send_json(200 if body["ok"] else 503, body)
        elif self.path == "/readyz":
            body = service.supervisor.readyz()
            self._send_json(200 if body["ready"] else 503, body)
        elif self.path == "/stats":
            body = service.supervisor.stats()
            body["http"] = service.http_stats()
            self._send_json(200, body)
        else:
            self._send_json(404, error_body(
                "not_found", f"no such endpoint: {self.path}"))

    # -- POST ----------------------------------------------------------

    def do_POST(self) -> None:  # noqa: N802
        service = self.service
        route = {"/v1/analyze": "analyze", "/v1/maximize": "maximize",
                 "/v1/sweep": "sweep"}.get(self.path)
        if route is None:
            self._send_json(404, error_body(
                "not_found", f"no such endpoint: {self.path}"))
            return
        service.note_request()
        try:
            payload = self._read_body()
            if route == "sweep":
                status, body, retry_after = service.run_sweep(payload)
            else:
                status, body, retry_after = service.run_one(payload,
                                                            route)
        except _HttpError as exc:
            status, body, retry_after = exc.status, exc.body, None
        except Exception as exc:
            # Last-resort containment: the acceptor never leaks a
            # traceback onto the wire.
            status = 500
            body = error_body("internal_error",
                              f"{type(exc).__name__}: {exc}")
            retry_after = None
        if service.should_drop(body):
            # Injected connection fault: sever without responding so
            # clients exercise their retry path.
            self.close_connection = True
            try:
                self.connection.close()
            except OSError:
                pass
            return
        self._send_json(status, body, retry_after)


class _HttpError(Exception):
    def __init__(self, status: int, body: Dict[str, Any]) -> None:
        super().__init__(body.get("message", ""))
        self.status = status
        self.body = body


class ServiceServer:
    """Owns the HTTP server + supervisor pair and their lifecycles."""

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 config: Optional[ServiceConfig] = None,
                 verbose: bool = False) -> None:
        self.config = config or ServiceConfig()
        self.supervisor = Supervisor(self.config)
        self._httpd = ThreadingHTTPServer((host, port), _Handler)
        self._httpd.daemon_threads = True
        self._httpd.allow_reuse_address = True
        self._httpd.service = self      # type: ignore[attr-defined]
        self._httpd.verbose = verbose   # type: ignore[attr-defined]
        self._serve_thread: Optional[threading.Thread] = None
        self._lock = threading.Lock()
        self.requests = 0
        self.rejected = 0
        self.dropped = 0

    # -- lifecycle -----------------------------------------------------

    @property
    def address(self) -> Tuple[str, int]:
        host, port = self._httpd.server_address[:2]
        return str(host), int(port)

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def start(self) -> "ServiceServer":
        self.supervisor.start()
        self._serve_thread = threading.Thread(
            target=self._httpd.serve_forever,
            kwargs={"poll_interval": 0.1},
            daemon=True, name="repro-acceptor")
        self._serve_thread.start()
        return self

    def serve_forever(self) -> None:
        """Foreground mode for the CLI (blocks until shutdown())."""
        self.supervisor.start()
        self._httpd.serve_forever(poll_interval=0.1)

    def begin_drain(self) -> None:
        self.supervisor.begin_drain()

    def request_stop(self) -> None:
        """Signal-handler-safe stop: drain + async accept-loop halt.

        ``BaseServer.shutdown()`` deadlocks when called from the thread
        running ``serve_forever`` (which is where signal handlers run in
        foreground mode), so the halt is issued from a side thread.
        """
        self.begin_drain()
        threading.Thread(target=self._httpd.shutdown,
                         daemon=True).start()

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Graceful stop: shed new work, finish in-flight, shut down."""
        self.begin_drain()
        drained = self.supervisor.drain(timeout)
        self.shutdown()
        return drained

    def shutdown(self) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._serve_thread is not None:
            self._serve_thread.join(2.0)
            self._serve_thread = None
        self.supervisor.stop()

    # -- request execution (called from handler threads) ---------------

    def note_request(self) -> None:
        with self._lock:
            self.requests += 1

    def http_stats(self) -> Dict[str, Any]:
        with self._lock:
            return {"requests": self.requests,
                    "rejected": self.rejected,
                    "dropped": self.dropped}

    def _submit_and_wait(self, request) -> Tuple[int, Dict[str, Any],
                                                 Optional[float]]:
        supervisor = self.supervisor
        try:
            job = supervisor.submit(request)
        except QueueFull as exc:
            return 429, error_body(
                "queue_full", "request queue is at capacity",
                retry_after=exc.retry_after), exc.retry_after
        except ServiceDraining:
            return 503, error_body(
                "draining", "service is draining for shutdown",
                retry_after=DRAIN_RETRY_AFTER), DRAIN_RETRY_AFTER
        supervisor.wait(job)
        if job.failure is not None:
            code, message = job.failure
            retry = DRAIN_RETRY_AFTER if code == "worker_failed" \
                else None
            return 503, error_body(code, message,
                                   retry_after=retry), retry
        # A request is a unit of one cell.
        outcomes = (job.result or {}).get("outcomes") or [None]
        body = {"outcome": outcomes[0],
                "served_by": job.worker_id,
                "attempts": job.attempts,
                "protocol_version": PROTOCOL_VERSION}
        return 200, body, None

    def run_one(self, payload: Any, kind: str
                ) -> Tuple[int, Dict[str, Any], Optional[float]]:
        try:
            request = parse_request(payload, kind)
        except ProtocolError as exc:
            with self._lock:
                self.rejected += 1
            return 400, error_body(
                "bad_request", str(exc), report=exc.report), None
        status, body, retry_after = self._submit_and_wait(request)
        if status == 200:
            body["label"] = request.label
        return status, body, retry_after

    def run_sweep(self, payload: Any
                  ) -> Tuple[int, Dict[str, Any], Optional[float]]:
        try:
            requests = parse_sweep_request(payload)
        except ProtocolError as exc:
            with self._lock:
                self.rejected += 1
            return 400, error_body(
                "bad_request", str(exc), report=exc.report), None
        cells = []
        for request in requests:
            status, body, retry_after = self._submit_and_wait(request)
            if status != 200:
                # Shed/fail the whole sweep with the cell that broke it;
                # completed cells are already checkpointed in the cache,
                # so a client retry resumes warm.
                body["completed_cells"] = cells
                return status, body, retry_after
            cells.append({"label": request.label,
                          "outcome": body["outcome"],
                          "served_by": body["served_by"],
                          "attempts": body["attempts"]})
        return 200, {"cells": cells, "count": len(cells),
                     "protocol_version": PROTOCOL_VERSION}, None

    # -- chaos hooks ---------------------------------------------------

    def should_drop(self, body: Dict[str, Any]) -> bool:
        """Injected DROP_CONNECTION fault for the finished request."""
        plan_path = self.config.fault_plan
        try:
            plan = ServiceFaultPlan.load(plan_path)
        except (OSError, ValueError, KeyError):
            return False
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
        if plan.should_drop_connection(label):
            with self._lock:
                self.dropped += 1
            return True
        return False
