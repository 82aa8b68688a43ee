"""Structured diagnostics for the preflight validation subsystem.

Every failed check produces a :class:`Diagnostic`: a *stable* error code
(machine-matchable, never reworded), a severity, the offending component
ids and — where the repair is obvious — a hint.  A
:class:`ValidationReport` aggregates the diagnostics of one validated
input and classifies fatal outcomes into the two rejection statuses the
analyzers report:

* ``invalid_input`` — the input is structurally malformed (dangling
  references, inconsistent limits, unparsable fields).  Nothing
  meaningful can be computed from it.
* ``degenerate_case`` — the input is well-formed but describes a system
  the analysis is undefined on: an islanded bus, a disconnected
  in-service topology, load exceeding total generation capacity.
  Topology *exclusion attacks routinely create* exactly these topologies
  (a single spoofed breaker status can island a bus), so degeneracy is a
  reportable verdict, never a crash.

Severities:

* ``fatal`` — the input must be rejected,
* ``degraded`` — analysis can proceed but the result quality is reduced
  (e.g. an unobservable measurement set),
* ``warning`` — suspicious but harmless (e.g. a secured line marked
  alterable).

Diagnostics are JSON-clean values: they round-trip through the sweep
result cache (:meth:`Diagnostic.to_dict` / :meth:`Diagnostic.from_dict`
validate strictly so corrupt cached payloads are rejected at the
boundary, like every other cached field).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

#: severity levels, most severe first.
FATAL = "fatal"
DEGRADED = "degraded"
WARNING = "warning"

_SEVERITY_RANK = {FATAL: 0, DEGRADED: 1, WARNING: 2}

#: fatal codes that classify as ``degenerate_case`` instead of
#: ``invalid_input``: the input parses and is internally consistent, but
#: the described system is analytically degenerate.
DEGENERATE_CODES = frozenset({
    "topology.disconnected",
    "topology.isolated_bus",
    "topology.no_lines",
    "grid.no_generators",
    "grid.load_exceeds_capacity",
    "grid.min_generation_exceeds_load",
    "opf.base_infeasible",
})

#: the two rejection statuses fatal diagnostics map to.
INVALID_INPUT = "invalid_input"
DEGENERATE_CASE = "degenerate_case"


@dataclass(frozen=True)
class Diagnostic:
    """One failed validation check.

    ``code`` is stable across releases (documented in the README error
    table); ``components`` name the offending parts as ``"kind:index"``
    strings (``"bus:3"``, ``"line:6"``, ``"measurement:12"``,
    ``"field:topology[2].admittance"``).
    """

    code: str
    severity: str
    message: str
    components: tuple = ()
    hint: Optional[str] = None

    def __post_init__(self) -> None:
        if self.severity not in _SEVERITY_RANK:
            raise ValueError(f"unknown severity {self.severity!r}")
        object.__setattr__(self, "components",
                           tuple(str(c) for c in self.components))

    def to_dict(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "code": self.code,
            "severity": self.severity,
            "message": self.message,
            "components": list(self.components),
        }
        if self.hint is not None:
            payload["hint"] = self.hint
        return payload

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "Diagnostic":
        """Strictly rebuild a diagnostic from a cached JSON payload.

        Raises :class:`ValueError` on any malformation so a corrupt cache
        entry is detected at the boundary instead of poisoning a sweep.
        """
        if not isinstance(payload, dict):
            raise ValueError("diagnostic payload is not a JSON object")
        code = payload.get("code")
        severity = payload.get("severity")
        message = payload.get("message")
        components = payload.get("components", [])
        hint = payload.get("hint")
        if not isinstance(code, str) or not code:
            raise ValueError(f"diagnostic has invalid code {code!r}")
        if severity not in _SEVERITY_RANK:
            raise ValueError(
                f"diagnostic has invalid severity {severity!r}")
        if not isinstance(message, str):
            raise ValueError("diagnostic has no message")
        if not isinstance(components, list) \
                or not all(isinstance(c, str) for c in components):
            raise ValueError("diagnostic components must be strings")
        if hint is not None and not isinstance(hint, str):
            raise ValueError("diagnostic hint must be a string")
        return cls(code=code, severity=severity, message=message,
                   components=tuple(components), hint=hint)

    def render(self) -> str:
        where = f" [{', '.join(self.components)}]" if self.components \
            else ""
        text = f"{self.severity:8} {self.code}: {self.message}{where}"
        if self.hint:
            text += f" (hint: {self.hint})"
        return text


@dataclass
class ValidationReport:
    """All diagnostics of one validated input."""

    subject: str = ""
    diagnostics: List[Diagnostic] = field(default_factory=list)

    def add(self, code: str, severity: str, message: str,
            components: Sequence = (), hint: Optional[str] = None) -> None:
        self.diagnostics.append(Diagnostic(code, severity, message,
                                           tuple(components), hint))

    def extend(self, other: "ValidationReport") -> None:
        self.diagnostics.extend(other.diagnostics)

    # -- classification -------------------------------------------------

    @property
    def fatal(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == FATAL]

    @property
    def degraded(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == DEGRADED]

    @property
    def warnings(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == WARNING]

    @property
    def ok(self) -> bool:
        """No fatal diagnostics — the input may proceed to analysis."""
        return not self.fatal

    def codes(self) -> List[str]:
        return [d.code for d in self.diagnostics]

    def has(self, code: str) -> bool:
        return any(d.code == code for d in self.diagnostics)

    def fatal_status(self) -> Optional[str]:
        """``invalid_input`` / ``degenerate_case`` / None (accepted).

        A mix of structural and degeneracy errors classifies as
        ``invalid_input``: structural malformation dominates because the
        degeneracy findings may themselves be artifacts of it.
        """
        fatal = self.fatal
        if not fatal:
            return None
        if all(d.code in DEGENERATE_CODES for d in fatal):
            return DEGENERATE_CASE
        return INVALID_INPUT

    # -- serialization --------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return {"subject": self.subject,
                "diagnostics": [d.to_dict() for d in self.diagnostics]}

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "ValidationReport":
        if not isinstance(payload, dict):
            raise ValueError("validation payload is not a JSON object")
        entries = payload.get("diagnostics")
        if not isinstance(entries, list):
            raise ValueError("validation payload has no diagnostics list")
        return cls(subject=str(payload.get("subject", "")),
                   diagnostics=[Diagnostic.from_dict(e) for e in entries])

    def render(self) -> str:
        """Human-readable diagnostic listing, most severe first."""
        if not self.diagnostics:
            return f"{self.subject or 'input'}: no findings"
        ordered = sorted(self.diagnostics,
                         key=lambda d: _SEVERITY_RANK[d.severity])
        lines = [f"preflight findings for {self.subject or 'input'}:"]
        lines += [f"  {d.render()}" for d in ordered]
        return "\n".join(lines)
