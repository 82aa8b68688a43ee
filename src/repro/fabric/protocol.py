"""Wire protocol between fabric workers and the coordinator.

Same discipline as :mod:`repro.service.protocol` (strict parsing,
stable diagnostic codes, never a stack trace on the wire), with the
fabric's own three POST endpoints::

    POST /fabric/v1/lease      {"worker": "w1"}
    POST /fabric/v1/heartbeat  {"worker": "w1", "unit": 3}
    POST /fabric/v1/commit     {"worker": "w1", "unit": 3,
                                "outcomes": [{...}, ...]}

A lease response either carries a unit…::

    {"unit": {"unit_id": 3, "attempt": 1, "speculative": false,
              "deadline_seconds": 15.0,
              "specs": [...], "fingerprints": [...],
              "budget": {...}?, "self_check": true?},
     "done": false}

…or ``{"unit": null, "done": <bool>, "retry_after": <seconds>}`` —
``done: true`` tells the worker the whole grid is finished and it
should exit 0; ``done: false`` with no unit means "nothing leasable
right now, poll again after ``retry_after``".

Commit responses are ``{"accepted": true, "duplicate": <bool>}``; a
duplicate is a *success* from the worker's point of view (its work was
correct, someone else just got there first).  ``GET /fabric/v1/status``
exposes queue statistics, and ``GET /healthz`` / ``GET /readyz`` answer
200 while the coordinator serves, so
:meth:`repro.service.client.ServiceClient.wait_ready` works against it.
The coordinator serves these over the service's JSON/HTTP acceptor
(:mod:`repro.service.acceptor`), so body, 404, 413 and 400/500 handling
are the service's too.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from repro.service.protocol import (
    BAD_FIELD,
    MALFORMED,
    VERSION_MISMATCH,
    ProtocolError,
    _check_unknown,
)
from repro.validation.diagnostics import FATAL, ValidationReport

__all__ = ["FABRIC_PROTOCOL_VERSION", "parse_commit_request",
           "parse_heartbeat_request", "parse_lease_request",
           "ProtocolError"]

#: bump on incompatible fabric wire-format changes.
FABRIC_PROTOCOL_VERSION = 1


def _base(payload: Any, endpoint: str,
          known: Tuple[str, ...]) -> Tuple[Dict[str, Any],
                                           ValidationReport]:
    report = ValidationReport(subject=f"/fabric/{endpoint} request")
    if not isinstance(payload, dict):
        report.add(MALFORMED, FATAL,
                   "request body must be a JSON object")
        raise ProtocolError(report)
    _check_unknown(payload, known + ("protocol_version",), report,
                   "request")
    version = payload.get("protocol_version")
    if version is not None and version != FABRIC_PROTOCOL_VERSION:
        report.add(VERSION_MISMATCH, FATAL,
                   f"request pins fabric protocol {version!r}; this "
                   f"coordinator speaks {FABRIC_PROTOCOL_VERSION}",
                   ["field:protocol_version"])
    worker = payload.get("worker")
    if not isinstance(worker, str) or not worker:
        report.add(BAD_FIELD, FATAL,
                   "worker must be a non-empty string id",
                   ["field:worker"])
    return payload, report


def _unit_id(payload: Dict[str, Any], report: ValidationReport,
             unit_count: int) -> int:
    unit = payload.get("unit")
    if not isinstance(unit, int) or isinstance(unit, bool) \
            or not 0 <= unit < unit_count:
        report.add(BAD_FIELD, FATAL,
                   f"unit must be an integer in [0, {unit_count})",
                   ["field:unit"])
        return -1
    return unit


def parse_lease_request(payload: Any) -> str:
    """Returns the validated worker id."""
    payload, report = _base(payload, "lease", ("worker",))
    if not report.ok:
        raise ProtocolError(report)
    return payload["worker"]


def parse_heartbeat_request(payload: Any,
                            unit_count: int) -> Tuple[str, int]:
    """Returns the validated ``(worker, unit_id)`` pair."""
    payload, report = _base(payload, "heartbeat", ("worker", "unit"))
    unit = _unit_id(payload, report, unit_count)
    if not report.ok:
        raise ProtocolError(report)
    return payload["worker"], unit


def parse_commit_request(payload: Any, unit_count: int
                         ) -> Tuple[str, int, List[Dict[str, Any]]]:
    """Returns the validated ``(worker, unit_id, outcomes)`` triple.

    Outcome payloads are only shape-checked here (a list of objects);
    the coordinator re-validates each through
    :meth:`ScenarioOutcome.from_dict` before trusting it, exactly as it
    does for cache entries.
    """
    payload, report = _base(payload, "commit",
                            ("worker", "unit", "outcomes"))
    unit = _unit_id(payload, report, unit_count)
    outcomes = payload.get("outcomes")
    if not isinstance(outcomes, list) or not outcomes \
            or not all(isinstance(o, dict) for o in outcomes):
        report.add(BAD_FIELD, FATAL,
                   "outcomes must be a non-empty array of outcome "
                   "objects", ["field:outcomes"])
    if not report.ok:
        raise ProtocolError(report)
    return payload["worker"], unit, list(outcomes)
