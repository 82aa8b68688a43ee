"""Result types and reporting for the impact-analysis framework."""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from fractions import Fraction
from typing import Any, Dict, List, Optional

from repro.core.encoding import AttackVectorSolution
from repro.estimation.measurement import MeasurementPlan
from repro.validation.diagnostics import (
    DEGENERATE_CASE,
    INVALID_INPUT,
    ValidationReport,
)


@dataclass
class AnalysisTrace:
    """Structured per-stage timings and counters of one analysis run.

    ``smt`` carries the solver's :class:`~repro.smt.solver.SmtStatistics`
    snapshot (decisions, conflicts, theory conflicts, simplex pivots, …),
    ``opf`` the number and total wall time of OPF solves, and ``stages``
    coarse per-stage wall timings.  Everything is JSON-ready so the sweep
    engine can thread it into per-sweep trace files.
    """

    stages: Dict[str, float] = field(default_factory=dict)
    smt: Dict[str, Any] = field(default_factory=dict)
    opf: Dict[str, Any] = field(default_factory=dict)
    #: per-check certificate events of a self-checking run: counters
    #: (``models_checked``, ``unsat_checked``, ``terms_checked``,
    #: ``rup_steps``, ``theory_lemmas``, ``seconds``) plus an ``events``
    #: list with one entry per verification.  Empty when self-check off.
    certificates: Dict[str, Any] = field(default_factory=dict)
    #: session-layer bookkeeping: which search ran (``strategy``, the
    #: analyzer's ``kind``), whether the run reused a warm encoding
    #: (``warm``), how many encodings it built (``encodings_built``),
    #: and the ``encode_seconds`` (paid once per encoding) vs
    #: ``solve_seconds`` split that incremental sweeps optimize.
    session: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "AnalysisTrace":
        return cls(stages=dict(payload.get("stages", {})),
                   smt=dict(payload.get("smt", {})),
                   opf=dict(payload.get("opf", {})),
                   certificates=dict(payload.get("certificates", {})),
                   session=dict(payload.get("session", {})))


@dataclass
class ImpactReport:
    """Outcome of an impact-analysis query (the paper's sat/unsat answer).

    ``satisfiable`` mirrors the paper's verdict: an attack vector exists
    that raises the believed-optimal generation cost by at least the
    target percentage.  ``believed_min_cost`` is the exact optimal cost of
    the poisoned system the EMS will dispatch to.
    """

    satisfiable: bool
    base_cost: Fraction
    threshold: Fraction
    target_increase_percent: Fraction
    attack: Optional[AttackVectorSolution] = None
    believed_min_cost: Optional[Fraction] = None
    candidates_examined: int = 0
    elapsed_seconds: float = 0.0
    smt_opf_unsat_confirmed: Optional[bool] = None
    #: total SMT ``solve()`` invocations behind this report — including
    #: every iteration of the structure-extremization optimizer, which a
    #: bare candidate count under-reports.
    solver_calls: int = 0
    trace: Optional[AnalysisTrace] = None
    #: ``"complete"`` for a definitive verdict, ``"budget_exhausted"``
    #: when the analysis ran out of its resource budget mid-search; in
    #: the latter case ``satisfiable``/``attack`` describe the *best
    #: attack found so far* (if any) and the verdict is a lower bound,
    #: not a proof of absence.  ``"certificate_error"`` when self-check
    #: mode rejected an answer: the verdict is *not trusted* and is
    #: deliberately never conflated with sat/unsat.  ``"invalid_input"``
    #: / ``"degenerate_case"`` when preflight validation rejected the
    #: case before any encoding: ``diagnostics`` lists the findings and
    #: no analysis happened at all.  ``"numerical_unstable"`` when the
    #: guarded linear-algebra layer refused to return an unverified
    #: result (ill-conditioned matrices, unverifiable solves): like
    #: ``budget_exhausted`` this is a *degradation*, not a bug — the
    #: verdict is withheld, never conflated with a proven unsat.
    status: str = "complete"
    #: which budget limit ran out (None unless ``budget_exhausted``).
    budget_reason: Optional[str] = None
    #: what the numeric guard refused (None unless ``numerical_unstable``).
    numeric_reason: Optional[str] = None
    #: True when every answer behind this report passed its independent
    #: certificate check, False when a check failed (status is then
    #: ``certificate_error``), None when self-check mode was off.
    certified: Optional[bool] = None
    #: what the failed certificate check reported (None otherwise).
    certificate_error: Optional[str] = None
    #: preflight findings — always populated for rejected reports, and
    #: also carries degraded/warning findings of accepted runs.
    diagnostics: Optional[ValidationReport] = None
    #: what a ``complete`` verdict rests on, else None: ``"proved"`` (a
    #: sat with its witness, or an exhausted SMT search), ``"restricted"``
    #: (fast unsat: single-line attacks only, as in arXiv:1506.04303) or
    #: ``"sampled"`` (fast unsat with states: ``state_samples`` only).
    verdict_basis: Optional[str] = None

    @classmethod
    def rejected(cls, report: ValidationReport,
                 target_increase_percent: Fraction = Fraction(0),
                 elapsed_seconds: float = 0.0) -> "ImpactReport":
        """A report for a case preflight refused to analyze."""
        status = report.fatal_status()
        if status not in (INVALID_INPUT, DEGENERATE_CASE):
            raise ValueError(
                "rejected() needs a report with fatal diagnostics")
        return cls(satisfiable=False, base_cost=Fraction(0),
                   threshold=Fraction(0),
                   target_increase_percent=target_increase_percent,
                   status=status, diagnostics=report,
                   elapsed_seconds=elapsed_seconds)

    @property
    def is_rejected(self) -> bool:
        return self.status in (INVALID_INPUT, DEGENERATE_CASE)

    @property
    def is_partial(self) -> bool:
        return self.status != "complete"

    @property
    def achieved_increase_percent(self) -> Optional[Fraction]:
        if self.believed_min_cost is None or self.base_cost == 0:
            return None
        return (self.believed_min_cost / self.base_cost - 1) * 100

    def render(self, plan: Optional[MeasurementPlan] = None) -> str:
        """Human-readable report in the style of the paper's output file."""
        lines = []
        lines.append("=" * 64)
        lines.append("Impact analysis of stealthy topology poisoning on OPF")
        lines.append("=" * 64)
        if self.is_rejected:
            verdict = "invalid input (rejected by preflight)" \
                if self.status == INVALID_INPUT \
                else "degenerate case (analysis undefined)"
            lines.append(f"verdict                  : {verdict}")
            if self.diagnostics is not None:
                lines.append(self.diagnostics.render())
            lines.append("=" * 64)
            return "\n".join(lines)
        lines.append(f"attack-free optimal cost : {float(self.base_cost):.2f}")
        lines.append(f"target increase          : "
                     f"{float(self.target_increase_percent):.1f}%")
        lines.append(f"threshold cost           : "
                     f"{float(self.threshold):.2f}")
        if self.status == "certificate_error":
            lines.append("verdict                  : "
                         "certificate error (answer not trusted)")
            if self.certificate_error:
                lines.append(f"certificate              : "
                             f"{self.certificate_error}")
        elif self.status == "numerical_unstable":
            lines.append("verdict                  : "
                         "numerically unstable (verdict withheld)")
            if self.numeric_reason:
                lines.append(f"numeric guard            : "
                             f"{self.numeric_reason}")
        elif self.is_partial:
            verdict = "sat (partial)" if self.satisfiable \
                else "unknown (budget exhausted)"
            lines.append(f"verdict                  : {verdict}")
            if self.budget_reason:
                lines.append(f"budget                   : "
                             f"{self.budget_reason}")
        else:
            lines.append(f"verdict                  : "
                         f"{'sat' if self.satisfiable else 'unsat'}")
            if self.verdict_basis is not None:
                lines.append(f"verdict basis            : "
                             f"{self.verdict_basis}")
            if self.certified is not None:
                lines.append(f"certificates             : "
                             f"{'verified' if self.certified else 'FAILED'}")
        lines.append(f"attack vectors examined  : {self.candidates_examined}")
        if self.solver_calls:
            lines.append(f"SMT solver calls         : {self.solver_calls}")
        lines.append(f"analysis time            : "
                     f"{self.elapsed_seconds:.3f}s")
        if self.smt_opf_unsat_confirmed is not None:
            lines.append(f"SMT OPF check (Eq. 37)   : "
                         f"{'confirmed' if self.smt_opf_unsat_confirmed else 'FAILED'}")
        attack = self.attack
        if self.satisfiable and attack is not None:
            lines.append("-" * 64)
            if attack.excluded:
                lines.append(f"exclusion attack on line(s) "
                             f"{attack.excluded}: unmapped in the topology")
            if attack.included:
                lines.append(f"inclusion attack on line(s) "
                             f"{attack.included}: mapped into the topology")
            if attack.infected_states:
                lines.append(f"UFDI attack on state(s) "
                             f"{attack.infected_states}")
            lines.append(f"measurements to alter    : "
                         f"{attack.altered_measurements}")
            lines.append(f"distributed in buses     : "
                         f"{attack.compromised_buses}")
            if plan is not None:
                for m in attack.altered_measurements:
                    lines.append(f"    {plan.describe(m)}")
            loads = {bus: round(float(v), 4)
                     for bus, v in attack.believed_loads.items()}
            lines.append(f"believed loads after attack: {loads}")
            lines.append(f"believed optimal cost    : "
                         f"{float(self.believed_min_cost):.2f}")
            lines.append(f"achieved increase        : "
                         f"{float(self.achieved_increase_percent):.2f}%")
        if self.diagnostics is not None and self.diagnostics.diagnostics:
            lines.append("-" * 64)
            lines.append(self.diagnostics.render())
        lines.append("=" * 64)
        return "\n".join(lines)


@dataclass
class CandidateEvaluation:
    """One examined candidate in the fast analyzer's enumeration."""

    kind: str                        # "exclude" / "include"
    line_index: int
    feasible: bool
    reason: str = ""
    best_increase_percent: Optional[float] = None
    believed_loads: Dict[int, float] = field(default_factory=dict)
    altered_measurements: List[int] = field(default_factory=list)
