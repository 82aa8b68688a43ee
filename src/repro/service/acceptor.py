"""The JSON/HTTP acceptor shared by ``repro serve`` and ``repro coordinate``.

A stdlib :class:`~http.server.ThreadingHTTPServer` (a thread per
connection, HTTP/1.1 keep-alive) whose owner supplies a GET table of
``() -> (status, body)`` and a POST table of ``payload -> (status,
body)`` callables.  Everything else is shared: an unknown path is 404
``not_found``; a missing, negative or non-integer ``Content-Length`` or
a non-JSON body is 400 ``protocol.malformed`` and a body past the
owner's cap is 413, refused unread; a route's ``ProtocolError`` is 400
``bad_request`` with ``diagnostics`` and any other exception is 500
``internal_error``, never a traceback.  ``Retry-After`` is sent exactly
when a non-2xx body carries ``retry_after``.  ``should_drop(body)`` is
the service's ``DROP_CONNECTION`` chaos hook: it severs a finished POST
without a response.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable, Dict, Mapping, Optional, Tuple

from repro.service.protocol import MALFORMED, ProtocolError, error_body

__all__ = ["JsonAcceptor", "Reply"]

#: what every route returns: an HTTP status and a JSON body.
Reply = Tuple[int, Dict[str, Any]]


class _BodyError(Exception):
    """The request body could not be read as JSON (a 400 or 413)."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.reply: Reply = (status, error_body(MALFORMED, message))


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"

    @property
    def acceptor(self) -> "JsonAcceptor":
        return self.server.acceptor    # type: ignore[attr-defined]

    @property
    def server_version(self) -> str:  # type: ignore[override]
        return self.acceptor.server_version

    # quiet by default; the CLI flips this on with --verbose.
    def log_message(self, format, *args):  # noqa: A002
        if self.acceptor.verbose:
            super().log_message(format, *args)

    def _send_json(self, status: int, body: Dict[str, Any]) -> None:
        payload = json.dumps(body).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        if status >= 300 and body.get("retry_after") is not None:
            self.send_header("Retry-After",
                             str(max(1, int(round(body["retry_after"])))))
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(payload)

    def _read_body(self) -> Any:
        cap = self.acceptor.max_body_bytes
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            length = -1
        if length == 0:
            raise _BodyError(400, "request has no body")
        if length < 0 or length > cap:
            # The body stays unread, so this stream cannot carry another
            # request: answer, then close.
            self.close_connection = True
            if length < 0:
                raise _BodyError(400, "Content-Length is not a "
                                      "non-negative integer")
            raise _BodyError(413, f"request body exceeds {cap} bytes")
        raw = self.rfile.read(length)
        try:
            return json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise _BodyError(400, f"request body is not valid JSON: "
                                  f"{exc}")

    def _dispatch(self, routes: Mapping[str, Callable[..., Reply]],
                  post: bool) -> None:
        acceptor = self.acceptor
        route = routes.get(self.path)
        if route is None:
            self._send_json(404, error_body(
                "not_found", f"no such endpoint: {self.path}"))
            return
        if post:
            acceptor.count("requests")
        try:
            status, body = route(self._read_body()) if post else route()
        except _BodyError as exc:
            status, body = exc.reply
        except ProtocolError as exc:
            acceptor.count("rejected")
            status, body = 400, error_body("bad_request", str(exc),
                                           report=exc.report)
        except Exception as exc:
            # Last-resort containment: the acceptor never leaks a
            # traceback onto the wire.
            status, body = 500, error_body(
                "internal_error", f"{type(exc).__name__}: {exc}")
        if post and acceptor.should_drop is not None \
                and acceptor.should_drop(body):
            # Injected connection fault: sever without responding so
            # clients exercise their retry path.
            acceptor.count("dropped")
            self.close_connection = True
            try:
                self.connection.close()
            except OSError:
                pass
            return
        self._send_json(status, body)

    def do_GET(self) -> None:  # noqa: N802
        self._dispatch(self.acceptor.get_routes, post=False)

    def do_POST(self) -> None:  # noqa: N802
        self._dispatch(self.acceptor.post_routes, post=True)


class JsonAcceptor:
    """A bound JSON/HTTP server plus its accept thread and counters."""

    def __init__(self, host: str, port: int, *, server_version: str,
                 get_routes: Mapping[str, Callable[[], Reply]],
                 post_routes: Mapping[str, Callable[[Any], Reply]],
                 max_body_bytes: int,
                 should_drop: Optional[Callable[[Dict[str, Any]],
                                                bool]] = None,
                 verbose: bool = False) -> None:
        self.server_version = server_version
        self.get_routes = dict(get_routes)
        self.post_routes = dict(post_routes)
        self.max_body_bytes = max_body_bytes
        self.should_drop = should_drop
        self.verbose = verbose
        self._lock = threading.Lock()
        self._counts = {"requests": 0, "rejected": 0, "dropped": 0}
        self._httpd = ThreadingHTTPServer((host, port), _Handler)
        self._httpd.daemon_threads = True
        self._httpd.acceptor = self     # type: ignore[attr-defined]
        self._thread: Optional[threading.Thread] = None
        #: ``BaseServer.shutdown()`` waits for a serve loop to end, so
        #: it must not be called when none was ever started.
        self._serving = False
        self._closed = False

    @property
    def address(self) -> Tuple[str, int]:
        host, port = self._httpd.server_address[:2]
        return str(host), int(port)

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def count(self, name: str) -> None:
        with self._lock:
            self._counts[name] += 1

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return dict(self._counts)

    def start(self) -> "JsonAcceptor":
        """Serve from a background daemon thread."""
        self._serving = True
        self._thread = threading.Thread(
            target=self.serve_forever, daemon=True, name="repro-acceptor")
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread until :meth:`stop` or
        :meth:`shutdown`."""
        self._serving = True
        self._httpd.serve_forever(poll_interval=0.1)

    def stop(self) -> None:
        """Halt the accept loop without blocking (signal-handler safe).

        ``BaseServer.shutdown()`` deadlocks when called from the thread
        running ``serve_forever`` (where signal handlers run in
        foreground mode), so the halt is issued from a side thread.
        """
        threading.Thread(target=self._httpd.shutdown, daemon=True).start()

    def shutdown(self) -> None:
        """Stop accepting and release the socket (idempotent)."""
        if self._closed:
            return
        self._closed = True
        if self._serving:
            self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(2.0)
            self._thread = None
