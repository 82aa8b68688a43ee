"""Structured sweep tracing.

:class:`ScenarioOutcome` is the JSON-able record of one executed (or
cache-served) scenario: verdict summary, work counters, and the
:class:`~repro.core.results.AnalysisTrace` threaded up from the analyzers
(SMT decisions/conflicts/simplex pivots, OPF solve counts and times,
per-stage wall timings).  :class:`SweepTrace` aggregates outcomes plus
engine-level metadata into the per-sweep trace JSON that ``python -m
repro sweep --trace`` emits.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

from repro.runner.spec import ScenarioSpec, code_fingerprint
from repro.validation.diagnostics import ValidationReport

#: outcome statuses.
OK = "ok"
ERROR = "error"        # the analysis itself raised (deterministic; no retry)
TIMEOUT = "timeout"    # exceeded the per-task budget
CRASHED = "crashed"    # worker process died and retries were exhausted
UNKNOWN = "unknown"    # the in-solver resource budget ran out mid-search
#: self-check mode rejected an answer's certificate: the verdict is not
#: trusted and deliberately never rendered as sat/unsat.
CERTIFICATE_ERROR = "certificate_error"
#: preflight validation rejected the input before any encoding:
#: structurally malformed (``invalid_input``) or well-formed but
#: analytically degenerate, e.g. an islanded topology
#: (``degenerate_case``).  Both carry structured ``diagnostics``.
INVALID_INPUT = "invalid_input"
DEGENERATE_CASE = "degenerate_case"
#: the guarded linear-algebra layer refused to return an unverified
#: result (ill-conditioned matrices, unverifiable solves).  A graceful
#: degradation like ``unknown``: the verdict is withheld, never rendered
#: as sat/unsat.  Deterministic for a given case and numerics policy
#: (the policy is part of the cache fingerprint), so cacheable.
NUMERICAL_UNSTABLE = "numerical_unstable"

_KNOWN_STATUSES = (OK, ERROR, TIMEOUT, CRASHED, UNKNOWN,
                   CERTIFICATE_ERROR, INVALID_INPUT, DEGENERATE_CASE,
                   NUMERICAL_UNSTABLE)
#: statuses that are deterministic verdicts about the *input* — safe to
#: cache (unlike transient errors/timeouts) and served like OK hits.
REJECTED_STATUSES = (INVALID_INPUT, DEGENERATE_CASE)


@dataclass
class ScenarioOutcome:
    """Everything the sweep records about one scenario."""

    spec: ScenarioSpec
    fingerprint: str
    status: str = OK
    satisfiable: Optional[bool] = None
    base_cost: Optional[str] = None            # str(Fraction): exact
    threshold: Optional[str] = None
    believed_min_cost: Optional[str] = None
    achieved_increase_percent: Optional[float] = None
    candidates_examined: int = 0
    solver_calls: int = 0
    analysis_seconds: float = 0.0              # the analyzer's own timer
    task_seconds: float = 0.0                  # incl. case build/decode
    cache_hit: bool = False
    worker_pid: Optional[int] = None
    attempts: int = 1
    error: Optional[str] = None
    #: the outcome itself is fine but checkpointing it failed (disk full,
    #: permissions, ...); the sweep degrades instead of aborting.
    cache_write_error: Optional[str] = None
    #: True when the analysis ran in certified mode and every answer
    #: passed its independent check; False when a check failed (status is
    #: then ``certificate_error``); None when self-check was off.
    certified: Optional[bool] = None
    #: structured preflight findings (a ``ValidationReport`` payload);
    #: always present for rejected outcomes, may carry degraded/warning
    #: findings on accepted ones.  Round-trips through the result cache.
    diagnostics: Optional[Dict[str, Any]] = None
    #: maximize-mode payload (a ``MaxImpactResult.to_dict()``): the I*
    #: bracket, witness vector and per-probe log.  Present exactly when
    #: the spec's ``search`` is ``"maximize"`` and the run was accepted.
    max_impact: Optional[Dict[str, Any]] = None
    trace: Dict[str, Any] = field(default_factory=dict)

    @property
    def verdict(self) -> str:
        if self.status != OK:
            return self.status
        return "sat" if self.satisfiable else "unsat"

    @property
    def cacheable(self) -> bool:
        """The result-cache admission rule.

        Definitive ``ok`` outcomes, preflight rejections and numeric
        refusals are deterministic for a fingerprint (the numerics
        policy is part of it); budget-dependent (``unknown``/``timeout``)
        and transient failures must recompute next run.
        """
        return self.status == OK or self.status in REJECTED_STATUSES \
            or self.status == NUMERICAL_UNSTABLE

    def diagnostics_report(self) -> Optional[ValidationReport]:
        """The findings as a :class:`ValidationReport` (None if absent)."""
        if self.diagnostics is None:
            return None
        return ValidationReport.from_dict(self.diagnostics)

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "ScenarioOutcome":
        """Rebuild an outcome, validating shape and field types.

        Raises :class:`ValueError` on any malformation, so a corrupt or
        stale cached payload is detected at the boundary (and treated as
        a cache miss by the engine) instead of poisoning a sweep.
        """
        if not isinstance(payload, dict):
            raise ValueError("outcome payload is not a JSON object")
        data = dict(payload)
        spec = data.get("spec")
        if not isinstance(spec, dict):
            raise ValueError("outcome payload has no spec object")
        try:
            data["spec"] = ScenarioSpec.from_dict(spec)
        except TypeError as exc:
            raise ValueError(f"malformed scenario spec: {exc}") from exc
        data["trace"] = dict(data.get("trace") or {})
        try:
            outcome = cls(**data)
        except TypeError as exc:
            raise ValueError(f"malformed outcome payload: {exc}") from exc
        outcome._validate()
        return outcome

    def _validate(self) -> None:
        if self.status not in _KNOWN_STATUSES:
            raise ValueError(f"unknown outcome status {self.status!r}")
        checks = (
            ("fingerprint", self.fingerprint, str, False),
            ("satisfiable", self.satisfiable, bool, True),
            ("base_cost", self.base_cost, str, True),
            ("threshold", self.threshold, str, True),
            ("believed_min_cost", self.believed_min_cost, str, True),
            ("achieved_increase_percent", self.achieved_increase_percent,
             (int, float), True),
            ("candidates_examined", self.candidates_examined, int, False),
            ("solver_calls", self.solver_calls, int, False),
            ("analysis_seconds", self.analysis_seconds, (int, float),
             False),
            ("task_seconds", self.task_seconds, (int, float), False),
            ("cache_hit", self.cache_hit, bool, False),
            ("worker_pid", self.worker_pid, int, True),
            ("attempts", self.attempts, int, False),
            ("error", self.error, str, True),
            ("cache_write_error", self.cache_write_error, str, True),
            ("certified", self.certified, bool, True),
            ("diagnostics", self.diagnostics, dict, True),
            ("max_impact", self.max_impact, dict, True),
            ("trace", self.trace, dict, False),
        )
        for name, value, types, optional in checks:
            if optional and value is None:
                continue
            if not isinstance(value, types):
                raise ValueError(f"outcome field {name!r} has invalid "
                                 f"value {value!r}")
        if self.diagnostics is not None:
            # Raises ValueError on malformed entries — a corrupt cached
            # diagnostics payload is a cache miss, not a crash.
            ValidationReport.from_dict(self.diagnostics)
        if self.status in REJECTED_STATUSES:
            report = self.diagnostics_report()
            if report is None or report.fatal_status() != self.status:
                raise ValueError(
                    f"{self.status} outcome must carry fatal diagnostics "
                    f"matching its status")
        if self.status == NUMERICAL_UNSTABLE and self.error is None:
            raise ValueError(
                "numerical_unstable outcome must carry its numeric "
                "reason in the error field")
        search = getattr(self.spec, "search", "decision")
        if self.status == OK:
            if search == "maximize" and self.max_impact is None:
                raise ValueError(
                    "ok maximize outcome must carry a max_impact payload")
            if search != "maximize" and self.max_impact is not None:
                raise ValueError(
                    "decision outcome must not carry a max_impact payload")


#: outcome fields that legitimately differ between two correct runs of
#: the same scenario: timings, process identity, retry counts, cache
#: luck and the per-run trace counters.  Everything else — the verdict,
#: the exact costs, the diagnostics — must be bit-identical.
VOLATILE_OUTCOME_FIELDS = ("analysis_seconds", "task_seconds",
                           "cache_hit", "worker_pid", "attempts",
                           "cache_write_error", "trace")


def deterministic_outcome_view(payload: Dict[str, Any]
                               ) -> Dict[str, Any]:
    """The outcome payload minus its run-volatile fields.

    Differential checks (fabric vs. serial sweep, resume vs. fresh run)
    compare outcomes through this view: two executions of the same
    scenario must agree on it exactly, even though their timings, worker
    pids and cache histories differ.  ``max_impact`` probe logs carry
    per-probe timings too, so those are stripped from the nested payload
    the same way.
    """
    view = {key: value for key, value in payload.items()
            if key not in VOLATILE_OUTCOME_FIELDS}
    max_impact = view.get("max_impact")
    if isinstance(max_impact, dict):
        # Per-probe timings and session-warmth counters (how many
        # encodings a probe built depends on which unit it shared a
        # session with) are volatile too.
        max_impact = {k: v for k, v in max_impact.items()
                      if k not in ("elapsed_seconds", "warm_solves",
                                   "encodings_built")}
        probes = max_impact.get("probes")
        if isinstance(probes, list):
            max_impact["probes"] = [
                {k: v for k, v in probe.items() if k != "seconds"}
                if isinstance(probe, dict) else probe
                for probe in probes]
        view["max_impact"] = max_impact
    return view


#: the per-outcome counters of the sweep trace's ``totals``: each counts
#: the outcomes its predicate holds for.
_OUTCOME_COUNTS: Dict[str, Callable[[ScenarioOutcome], bool]] = {
    "failures": lambda o: o.status != OK,
    "unknown": lambda o: o.status == UNKNOWN,
    "certificate_errors": lambda o: o.status == CERTIFICATE_ERROR,
    "invalid_input": lambda o: o.status == INVALID_INPUT,
    "degenerate_case": lambda o: o.status == DEGENERATE_CASE,
    "numerical_unstable": lambda o: o.status == NUMERICAL_UNSTABLE,
    "certified": lambda o: o.certified is True,
    "max_impact_cells": lambda o: o.max_impact is not None,
    "cache_write_errors": lambda o: o.cache_write_error is not None,
}


def _encoding_total(outcome: ScenarioOutcome, key: str):
    """A cell's ``encodings_built`` or ``encode_seconds``: for a
    maximize cell, its whole search's, not only its witness probe's."""
    session = outcome.trace.get("session", {})
    return session.get("search", session).get(key, 0)


@dataclass
class SweepTrace:
    """The sweep-level trace: engine metadata plus all outcomes."""

    outcomes: List[ScenarioOutcome]
    wall_seconds: float
    workers: int
    mode: str                                  # "parallel" | "serial"
    cache_dir: Optional[str] = None
    #: cached payloads that failed the load-time re-verification and were
    #: recomputed instead of served (stale/corrupt entries).
    cache_rejected: int = 0

    @property
    def cache_hits(self) -> int:
        return sum(outcome.cache_hit for outcome in self.outcomes)

    @property
    def failures(self) -> List[ScenarioOutcome]:
        return [outcome for outcome in self.outcomes
                if outcome.status != OK]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "generator": "repro sweep",
            "code_fingerprint": code_fingerprint(),
            "workers": self.workers,
            "mode": self.mode,
            "cache_dir": self.cache_dir,
            "totals": {
                "scenarios": len(self.outcomes),
                "cache_hits": self.cache_hits,
                "cache_rejected": self.cache_rejected,
                **{name: sum(map(counts, self.outcomes))
                   for name, counts in _OUTCOME_COUNTS.items()},
                "wall_seconds": self.wall_seconds,
                "analysis_seconds": sum(o.analysis_seconds
                                        for o in self.outcomes),
                "solver_calls": sum(o.solver_calls
                                    for o in self.outcomes),
                "opf_solves": sum(o.trace.get("opf", {}).get("solves", 0)
                                  for o in self.outcomes),
                "encodings_built": sum(
                    _encoding_total(o, "encodings_built")
                    for o in self.outcomes),
                "encode_seconds": float(sum(
                    _encoding_total(o, "encode_seconds")
                    for o in self.outcomes)),
            },
            "scenarios": [outcome.to_dict()
                          for outcome in self.outcomes],
        }

    def write(self, path) -> Path:
        """Write the trace JSON; returns the path written."""
        target = Path(path)
        if target.parent != Path(""):
            target.parent.mkdir(parents=True, exist_ok=True)
        with open(target, "w") as handle:
            json.dump(self.to_dict(), handle, indent=1)
        return target
