"""Greedy-minimal countermeasure planning over warm analysis sessions.

A *countermeasure* is a case transformation that removes attacker
capability: securing a line's status channel (its exclusion can no
longer be spoofed), integrity-protecting a measurement (it can no
longer be altered), or tightening the assumed attacker resource
budgets.  A countermeasure *kills* the attack when the analyzer proves
the defended case unsatisfiable at the impact target — only a
definitive (``status="complete"``) UNSAT counts as kill-confirmation;
budget-exhausted or certificate-error probes are inconclusive and never
credited to the defender.

Every case transformation goes through :func:`dataclasses.replace`, so
*all* fields — including ``reference_bus`` and anything added later —
survive the rebuild.  (The original ``examples/defense_planning.py``
hand-copied the field list and silently reset a non-default slack bus
back to bus 1; that bug is why this module exists as the single
blessed rebuild path.)

Every probe asks the planner's one
:class:`~repro.core.session.ImpactQuery` at its target, on a fresh copy
of the query's budget limits.

Probe economics: :class:`DefensePlanner` takes its analyzers from a
:class:`~repro.runner.engine.SessionPool` keyed by the defended case's
serialized text plus the analyzer kind, so re-probing a variant still
in the pool reuses the warm session instead of re-encoding.  The pool's
LRU limit bounds how many analyzers a plan holds at once.  Every
countermeasure changes attacker fields only, so on the fast analyzer
all variants of a plan run on one grid kernel: the grid's LPs are
solved once per plan, not once per probe.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.results import ImpactReport
from repro.core.session import ImpactQuery
from repro.exceptions import ModelError
from repro.grid.caseio import CaseDefinition, write_case
from repro.runner.engine import SessionPool
from repro.runner.spec import resolve_analyzer
from repro.smt.budget import SolverBudget
from repro.smt.rational import to_fraction

# ----------------------------------------------------------------------
# Case transformations (the blessed rebuild path)
# ----------------------------------------------------------------------


def with_secured_line(case: CaseDefinition, line: int) -> CaseDefinition:
    """The case with ``line``'s status channel integrity-protected."""
    specs = [replace(s, status_secured=True) if s.index == line else s
             for s in case.line_specs]
    return replace(case, line_specs=specs,
                   name=f"{case.name}+secure-line-{line}")


def with_secured_measurement(case: CaseDefinition,
                             index: int) -> CaseDefinition:
    """The case with measurement ``index`` integrity-protected."""
    specs = [replace(m, secured=True) if m.index == index else m
             for m in case.measurement_specs]
    return replace(case, measurement_specs=specs,
                   name=f"{case.name}+secure-m{index}")


def with_budgets(case: CaseDefinition, measurements: int,
                 buses: int) -> CaseDefinition:
    """The case with the attacker's resource budgets tightened."""
    return replace(case, resource_measurements=measurements,
                   resource_buses=buses,
                   name=f"{case.name}+budget-{measurements}-{buses}")


# ----------------------------------------------------------------------
# Countermeasures
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Countermeasure:
    """One deployable protection; ``apply`` yields the defended case."""

    def apply(self, case: CaseDefinition) -> CaseDefinition:
        raise NotImplementedError

    @property
    def label(self) -> str:
        raise NotImplementedError


@dataclass(frozen=True)
class SecureLineStatus(Countermeasure):
    line: int

    def apply(self, case: CaseDefinition) -> CaseDefinition:
        return with_secured_line(case, self.line)

    @property
    def label(self) -> str:
        return f"secure-line-{self.line}"


@dataclass(frozen=True)
class SecureMeasurement(Countermeasure):
    index: int

    def apply(self, case: CaseDefinition) -> CaseDefinition:
        return with_secured_measurement(case, self.index)

    @property
    def label(self) -> str:
        return f"secure-m{self.index}"


@dataclass(frozen=True)
class TightenBudgets(Countermeasure):
    measurements: int
    buses: int

    def apply(self, case: CaseDefinition) -> CaseDefinition:
        return with_budgets(case, self.measurements, self.buses)

    @property
    def label(self) -> str:
        return f"budget-{self.measurements}-{self.buses}"


def default_candidates(case: CaseDefinition) -> List[Countermeasure]:
    """Everything the operator could secure on this case.

    One countermeasure per attacker-reachable channel: each line whose
    status is alterable and not yet secured, and each taken measurement
    that is alterable and not yet secured.  (Budget cuts model
    *assumptions* about the attacker rather than deployable protections,
    so they are opt-in, not defaults.)
    """
    candidates: List[Countermeasure] = []
    for spec in case.line_specs:
        if spec.status_alterable and not spec.status_secured:
            candidates.append(SecureLineStatus(spec.index))
    for m in case.measurement_specs:
        if m.taken and m.alterable and not m.secured:
            candidates.append(SecureMeasurement(m.index))
    return candidates


# ----------------------------------------------------------------------
# The planner
# ----------------------------------------------------------------------


@dataclass
class DefensePlan:
    """Outcome of a planning run.

    ``status`` is ``"already_secure"`` (the undefended case admits no
    attack), ``"blocked"`` (``selected`` is a 1-minimal countermeasure
    set killing the attack: dropping any single member revives it),
    ``"unblockable"`` (even all candidates together leave the attack
    satisfiable), or ``"inconclusive"`` (a probe ended without a
    definitive verdict — its status is in ``probes``).
    """

    status: str
    target_increase_percent: Fraction
    analyzer: str
    selected: Tuple[Countermeasure, ...] = ()
    #: one entry per analyzer probe, in execution order.
    probes: List[Dict[str, Any]] = field(default_factory=list)
    sessions_built: int = 0
    sessions_reused: int = 0
    elapsed_seconds: float = 0.0
    #: the report of the probe that confirmed the final verdict.
    report: Optional[ImpactReport] = None

    @property
    def blocked(self) -> bool:
        return self.status in ("already_secure", "blocked")

    def to_dict(self) -> Dict[str, Any]:
        return {
            "status": self.status,
            "target_increase_percent": str(self.target_increase_percent),
            "analyzer": self.analyzer,
            "selected": [c.label for c in self.selected],
            "probes": list(self.probes),
            "sessions_built": self.sessions_built,
            "sessions_reused": self.sessions_reused,
            "elapsed_seconds": self.elapsed_seconds,
        }


class DefensePlanner:
    """Finds a 1-minimal countermeasure set that kills the attack.

    The search is the classic deletion-based minimization: confirm the
    full candidate set blocks the attack, then walk the set once,
    tentatively dropping each member and keeping the drop whenever the
    remainder still blocks.  Every kept member is *necessary* relative
    to the final set, so the result is 1-minimal (though not guaranteed
    globally minimum — that would need the full power-set search).
    """

    def __init__(self, case: CaseDefinition,
                 query: Optional[ImpactQuery] = None,
                 analyzer: str = "auto") -> None:
        self.case = case
        #: the question every probe asks of a case variant; its target
        #: defaults to the undefended case's value.
        self.query = query or ImpactQuery()
        self.target = to_fraction(
            self.query.target_increase_percent
            if self.query.target_increase_percent is not None
            else case.min_increase_percent)
        analyzer = resolve_analyzer(analyzer, case)
        if analyzer not in ("smt", "fast"):
            raise ModelError(f"unknown analyzer kind: {analyzer!r}")
        self.analyzer = analyzer
        #: warm analyzers keyed by analyzer kind plus case text.
        self.sessions = SessionPool()

    # -- probing -------------------------------------------------------

    def probe(self, case: CaseDefinition) -> ImpactReport:
        """One decision query on a (possibly defended) case variant.

        Each probe gets a *fresh* budget built from the query's limits,
        so a long plan never starves its later probes.
        """
        query = self.query
        if query.budget is not None:
            query = replace(query, budget=SolverBudget.from_dict(
                query.budget.to_dict()))
        analyzer = self.sessions.acquire(
            f"{self.analyzer}\n{write_case(case)}", case, self.analyzer)
        return analyzer.solve_at(self.target, query)

    def attack_survives(self, case: CaseDefinition) -> Optional[bool]:
        """True/False on a definitive verdict, None when inconclusive."""
        report = self.probe(case)
        if report.status != "complete":
            return None
        return report.satisfiable

    # -- planning ------------------------------------------------------

    def plan(self,
             candidates: Optional[Sequence[Countermeasure]] = None
             ) -> DefensePlan:
        started = time.perf_counter()
        if candidates is None:
            candidates = default_candidates(self.case)
        candidates = list(candidates)
        probes: List[Dict[str, Any]] = []

        def checked(label: str, case: CaseDefinition
                    ) -> Tuple[Optional[bool], ImpactReport]:
            report = self.probe(case)
            probes.append({
                "defense": label,
                "verdict": "sat" if report.satisfiable else "unsat",
                "status": report.status,
                "seconds": report.elapsed_seconds,
            })
            survives = None if report.status != "complete" \
                else report.satisfiable
            return survives, report

        def finish(status: str, selected: Sequence[Countermeasure],
                   report: ImpactReport) -> DefensePlan:
            return DefensePlan(
                status=status,
                target_increase_percent=self.target,
                analyzer=self.analyzer,
                selected=tuple(selected),
                probes=probes,
                sessions_built=self.sessions.misses,
                sessions_reused=self.sessions.hits,
                elapsed_seconds=time.perf_counter() - started,
                report=report)

        def apply_all(selected: Sequence[Countermeasure]) -> CaseDefinition:
            case = self.case
            for measure in selected:
                case = measure.apply(case)
            return case

        survives, report = checked("(undefended)", self.case)
        if survives is None:
            return finish("inconclusive", (), report)
        if not survives:
            return finish("already_secure", (), report)
        if not candidates:
            return finish("unblockable", (), report)

        survives, report = checked(
            "+".join(c.label for c in candidates), apply_all(candidates))
        if survives is None:
            return finish("inconclusive", candidates, report)
        if survives:
            return finish("unblockable", candidates, report)

        # Deletion-based 1-minimization of the (blocking) full set.
        selected = list(candidates)
        blocking_report = report
        for measure in list(selected):
            trial = [c for c in selected if c != measure]
            label = "+".join(c.label for c in trial) or "(undefended)"
            survives, report = checked(label, apply_all(trial))
            if survives is None:
                return finish("inconclusive", selected, blocking_report)
            if not survives:
                selected = trial
                blocking_report = report
        return finish("blocked", selected, blocking_report)
