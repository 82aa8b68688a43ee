"""Wire protocol for the analysis service.

Requests and responses are plain JSON.  Parsing is *strict*: unknown
fields, wrong types and version-skewed payloads are rejected with a
:class:`ProtocolError` carrying a structured
:class:`~repro.validation.diagnostics.ValidationReport` — the acceptor
turns that into an HTTP 400 with the same stable-coded diagnostics the
preflight subsystem uses, never a stack trace.

Protocol error codes (stable, machine-matchable):

* ``protocol.malformed`` — the body is not a JSON object (or a
  required sub-object is missing/mistyped),
* ``protocol.unknown_field`` — a field the protocol does not define
  (components name each offender as ``field:<name>``),
* ``protocol.bad_field`` — a defined field with an invalid value,
* ``protocol.version_mismatch`` — the request pins a protocol or cache
  format version this server does not speak.

Request shape (``POST /v1/analyze`` | ``/v1/maximize``)::

    {
      "spec": { ... ScenarioSpec fields ... },
      "deadline_seconds": 30,          # optional per-request deadline
      "budget": {"max_conflicts": ...},  # optional SolverBudget limits
      "self_check": true,              # optional certified mode
      "use_cache": true,               # optional read-through toggle
      "protocol_version": 1,           # optional pin
      "cache_format": 5                # optional pin
    }

``POST /v1/sweep`` carries ``{"specs": [spec, ...], ...}`` with the
same shared options.  Successful responses wrap one scenario outcome::

    {"outcome": {...}, "served_by": 0, "attempts": 1,
     "protocol_version": 1}
"""

from __future__ import annotations

from dataclasses import dataclass
from dataclasses import fields as dataclass_fields
from typing import Any, Dict, List, Optional

from repro.runner.spec import CACHE_FORMAT_VERSION, ScenarioSpec
from repro.validation.diagnostics import FATAL, ValidationReport

#: bump on incompatible wire-format changes.
PROTOCOL_VERSION = 1

#: stable protocol diagnostic codes.
MALFORMED = "protocol.malformed"
UNKNOWN_FIELD = "protocol.unknown_field"
BAD_FIELD = "protocol.bad_field"
VERSION_MISMATCH = "protocol.version_mismatch"

#: request fields shared by every analysis endpoint.
_OPTION_FIELDS = ("deadline_seconds", "budget", "self_check",
                  "use_cache", "protocol_version", "cache_format")

#: legal SolverBudget limit keys on the wire.
_BUDGET_FIELDS = ("wall_seconds", "max_conflicts", "max_decisions",
                  "max_pivots", "check_interval")

_SPEC_FIELDS = {f.name: f for f in dataclass_fields(ScenarioSpec)}

#: spec fields that must arrive as JSON integers (``attacker_seed`` may
#: also be null); never coerced from bools, floats or strings.
_SPEC_INT_FIELDS = ("state_samples", "sample_seed", "attacker_seed")


class ProtocolError(Exception):
    """A request the protocol refuses; carries the diagnostics."""

    def __init__(self, report: ValidationReport) -> None:
        summary = "; ".join(d.code for d in report.fatal) or "rejected"
        super().__init__(summary)
        self.report = report


@dataclass
class ServiceRequest:
    """One parsed, validated analysis request."""

    kind: str                       # "analyze" | "maximize"
    spec: ScenarioSpec
    deadline_seconds: Optional[float] = None
    budget: Optional[Dict[str, Any]] = None   # SolverBudget limits
    self_check: Optional[bool] = None
    use_cache: bool = True

    @property
    def label(self) -> str:
        return self.spec.label

    def job_payload(self) -> Dict[str, Any]:
        """The message a worker executes (JSON/pickle-clean)."""
        payload: Dict[str, Any] = {"spec": self.spec.to_dict(),
                                   "use_cache": self.use_cache}
        if self.budget is not None:
            payload["budget"] = dict(self.budget)
        if self.self_check is not None:
            payload["self_check"] = self.self_check
        return payload


def _report(subject: str) -> ValidationReport:
    return ValidationReport(subject=subject)


def _check_unknown(payload: Dict[str, Any], known, report,
                   where: str) -> None:
    unknown = sorted(set(payload) - set(known))
    if unknown:
        report.add(
            UNKNOWN_FIELD, FATAL,
            f"unknown {where} field(s): {', '.join(unknown)}",
            [f"field:{name}" for name in unknown],
            hint="remove the field(s) or upgrade the server")


def _check_spec_types(payload: Dict[str, Any],
                      report: ValidationReport) -> None:
    """Reject spec flags and counts that are not JSON bools / ints."""
    if not isinstance(payload.get("with_state_infection", False), bool):
        report.add(BAD_FIELD, FATAL,
                   "spec.with_state_infection must be a boolean",
                   ["field:with_state_infection"])
    for name in _SPEC_INT_FIELDS:
        value = payload.get(name, 0)
        if value is None and name == "attacker_seed":
            continue
        if not isinstance(value, int) or isinstance(value, bool):
            report.add(BAD_FIELD, FATAL, f"spec.{name} must be an integer",
                       [f"field:{name}"])


def _parse_spec(payload: Any, kind: str,
                report: ValidationReport) -> Optional[ScenarioSpec]:
    if not isinstance(payload, dict):
        report.add(MALFORMED, FATAL,
                   "request 'spec' must be a JSON object",
                   ["field:spec"])
        return None
    _check_unknown(payload, _SPEC_FIELDS, report, "spec")
    _check_spec_types(payload, report)
    if not isinstance(payload.get("case"), str) or not payload["case"]:
        report.add(BAD_FIELD, FATAL,
                   "spec.case must be a non-empty string "
                   "(a bundled case name or a label for case_text)",
                   ["field:case"])
    expected_search = "maximize" if kind == "maximize" else "decision"
    declared = payload.get("search")
    if declared is not None and declared != expected_search:
        report.add(BAD_FIELD, FATAL,
                   f"spec.search {declared!r} conflicts with the "
                   f"/{kind} endpoint (expects {expected_search!r})",
                   ["field:search"],
                   hint=f"drop spec.search or post to the matching "
                        f"endpoint")
    if not report.ok:
        return None
    data = dict(payload)
    data["search"] = expected_search
    try:
        # build() re-validates analyzer/search/tolerance semantics and
        # derives a label when none is given.
        return ScenarioSpec.build(
            data.pop("case"),
            analyzer=data.pop("analyzer", "auto"),
            case_text=data.pop("case_text", None),
            attacker_seed=data.pop("attacker_seed", None),
            target=data.pop("target", None),
            with_state_infection=data.pop("with_state_infection", False),
            state_samples=data.pop("state_samples", 24),
            sample_seed=data.pop("sample_seed", 0),
            search=data.pop("search"),
            tolerance=data.pop("tolerance", None),
            label=str(data.pop("label", "") or ""))
    except Exception as exc:
        report.add(BAD_FIELD, FATAL, f"invalid scenario spec: {exc}",
                   ["field:spec"])
        return None


def _parse_options(payload: Dict[str, Any],
                   report: ValidationReport) -> Dict[str, Any]:
    options: Dict[str, Any] = {}

    deadline = payload.get("deadline_seconds")
    if deadline is not None:
        if not isinstance(deadline, (int, float)) \
                or isinstance(deadline, bool) or deadline <= 0:
            report.add(BAD_FIELD, FATAL,
                       "deadline_seconds must be a positive number",
                       ["field:deadline_seconds"])
        else:
            options["deadline_seconds"] = float(deadline)

    budget = payload.get("budget")
    if budget is not None:
        if not isinstance(budget, dict):
            report.add(BAD_FIELD, FATAL,
                       "budget must be an object of SolverBudget limits",
                       ["field:budget"])
        else:
            _check_unknown(budget, _BUDGET_FIELDS, report, "budget")
            bad = [k for k, v in budget.items()
                   if k in _BUDGET_FIELDS
                   and (not isinstance(v, (int, float))
                        or isinstance(v, bool) or v <= 0)]
            for name in bad:
                report.add(BAD_FIELD, FATAL,
                           f"budget.{name} must be a positive number",
                           [f"field:budget.{name}"])
            if report.ok:
                options["budget"] = dict(budget)

    self_check = payload.get("self_check")
    if self_check is not None:
        if not isinstance(self_check, bool):
            report.add(BAD_FIELD, FATAL, "self_check must be a boolean",
                       ["field:self_check"])
        else:
            options["self_check"] = self_check

    use_cache = payload.get("use_cache")
    if use_cache is not None:
        if not isinstance(use_cache, bool):
            report.add(BAD_FIELD, FATAL, "use_cache must be a boolean",
                       ["field:use_cache"])
        else:
            options["use_cache"] = use_cache

    version = payload.get("protocol_version")
    if version is not None and version != PROTOCOL_VERSION:
        report.add(VERSION_MISMATCH, FATAL,
                   f"request pins protocol version {version!r}; this "
                   f"server speaks {PROTOCOL_VERSION}",
                   ["field:protocol_version"])
    cache_format = payload.get("cache_format")
    if cache_format is not None and cache_format != CACHE_FORMAT_VERSION:
        report.add(VERSION_MISMATCH, FATAL,
                   f"request pins cache format {cache_format!r}; this "
                   f"server reads/writes format {CACHE_FORMAT_VERSION}",
                   ["field:cache_format"],
                   hint="clear the client's cache assumptions or "
                        "upgrade to a matching release")
    return options


def parse_request(payload: Any, kind: str) -> ServiceRequest:
    """Parse and strictly validate one analyze/maximize request.

    Raises :class:`ProtocolError` (structured diagnostics, stable
    codes) on any malformation; never lets a ``TypeError``/``KeyError``
    stack trace escape to the transport.
    """
    report = _report(f"/{kind} request")
    if not isinstance(payload, dict):
        report.add(MALFORMED, FATAL,
                   "request body must be a JSON object")
        raise ProtocolError(report)
    _check_unknown(payload, ("spec",) + _OPTION_FIELDS, report,
                   "request")
    options = _parse_options(payload, report)
    spec = None
    if "spec" not in payload:
        report.add(MALFORMED, FATAL, "request has no 'spec' object",
                   ["field:spec"])
    else:
        spec = _parse_spec(payload["spec"], kind, report)
    if not report.ok or spec is None:
        raise ProtocolError(report)
    return ServiceRequest(kind=kind, spec=spec, **options)


def parse_sweep_request(payload: Any) -> List[ServiceRequest]:
    """Parse a ``/v1/sweep`` request into per-cell requests."""
    report = _report("/sweep request")
    if not isinstance(payload, dict):
        report.add(MALFORMED, FATAL,
                   "request body must be a JSON object")
        raise ProtocolError(report)
    _check_unknown(payload, ("specs", "search") + _OPTION_FIELDS,
                   report, "request")
    options = _parse_options(payload, report)
    search = payload.get("search", "decision")
    if search not in ("decision", "maximize"):
        report.add(BAD_FIELD, FATAL,
                   f"search must be 'decision' or 'maximize', "
                   f"got {search!r}", ["field:search"])
    specs = payload.get("specs")
    if not isinstance(specs, list) or not specs:
        report.add(MALFORMED, FATAL,
                   "request 'specs' must be a non-empty array",
                   ["field:specs"])
        raise ProtocolError(report)
    if not report.ok:
        raise ProtocolError(report)
    kind = "maximize" if search == "maximize" else "analyze"
    requests = []
    for index, entry in enumerate(specs):
        cell = _report(f"/sweep request specs[{index}]")
        spec = _parse_spec(entry, kind, cell)
        if spec is None or not cell.ok:
            report.extend(cell)
            raise ProtocolError(report)
        requests.append(ServiceRequest(kind=kind, spec=spec, **options))
    return requests


def error_body(code: str, message: str,
               report: Optional[ValidationReport] = None,
               retry_after: Optional[float] = None) -> Dict[str, Any]:
    """The JSON body of a non-200 response."""
    body: Dict[str, Any] = {"error": code, "message": message,
                            "protocol_version": PROTOCOL_VERSION}
    if report is not None:
        body["diagnostics"] = report.to_dict()
    if retry_after is not None:
        body["retry_after"] = retry_after
    return body
