"""The fault-tolerant analysis service (``python -m repro serve``).

A stdlib-only HTTP/JSON daemon around the warm
:class:`~repro.core.session.AnalysisSession` layer: the acceptor
(:mod:`repro.service.acceptor`, shared with ``repro coordinate``) and
:mod:`repro.service.server` route analyze/maximize/sweep requests to
N supervised worker processes (:mod:`repro.service.supervisor`,
:mod:`repro.service.worker`), each owning a pool of warm sessions keyed
by :meth:`~repro.runner.spec.ScenarioSpec.encoding_group` fingerprints,
with the on-disk ``.repro-cache`` as the shared read-through layer.

Robustness is the product:

* the supervisor detects worker crashes and hangs (reply deadlines on
  top of per-request budgets) and restarts them with a fresh session
  pool, re-dispatching the in-flight request exactly once before
  failing it cleanly;
* per-request deadlines propagate into
  :meth:`~repro.smt.budget.SolverBudget.clamped` wall budgets, so a
  slow probe degrades to a ``budget_exhausted`` partial result inside
  the deadline instead of wedging the connection;
* the request queue is bounded — excess load is shed with 429/503 +
  ``Retry-After``, and :class:`~repro.service.client.ServiceClient`
  retries with exponential backoff and jitter;
* SIGTERM drains gracefully: stop accepting, finish (and cache-
  checkpoint) in-flight cells, shut workers down, exit 0.
"""

from repro.service.client import (
    ProtocolRejected,
    ServiceClient,
    ServiceError,
    ServiceUnavailable,
)
from repro.service.protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    ServiceRequest,
    parse_request,
)
from repro.service.supervisor import (
    QueueFull,
    ServiceConfig,
    ServiceDraining,
    Supervisor,
)
from repro.service.server import ServiceServer

__all__ = [
    "PROTOCOL_VERSION",
    "ProtocolError",
    "ProtocolRejected",
    "QueueFull",
    "ServiceClient",
    "ServiceConfig",
    "ServiceDraining",
    "ServiceError",
    "ServiceRequest",
    "ServiceServer",
    "ServiceUnavailable",
    "Supervisor",
    "parse_request",
]
