"""Maximum-impact search: the largest achievable cost increase I*.

The analyzers answer *decision* queries — does a stealthy attack exist
that raises the believed-optimal OPF cost by at least I percent?  The
verdict is monotone in I: an attack meeting a threshold also meets every
smaller one (paper Eq. 37 asks for an increase of *at least* I%), so the
satisfiable region is an interval ``[0, I*]`` and the attacker's real
question — the maximum achievable impact I* — is answered by bisection.

:class:`MaxImpactSearch` runs that bisection through
:meth:`~repro.core.session.AnalysisSession.solve_at`, asking its one
:class:`~repro.core.session.ImpactQuery` at each probe's target, so on
one session every probe after the first re-solves against the retained clause
database instead of re-encoding: I* to tolerance epsilon costs
O(log((hi-lo)/epsilon)) warm re-solves where a linear threshold sweep at
the same resolution costs (hi-lo)/epsilon.  The mitigation framing is
from "Hidden Attacks on Power Grid: Optimal Attack Strategies and
Mitigation" (arXiv:1401.3274): report I* per scenario, then plan
defenses that drive it down (:mod:`repro.defense`).

Exactness: every bound and midpoint is a :class:`~fractions.Fraction`
and the session's threshold derivation (``base * (1 + I/100)``) is
exact rational arithmetic, so the reported I* never disagrees with a
subsequent decision query: ``solve_at(I*)`` is satisfiable and
``solve_at(I* + tolerance)`` is not (both verdicts were reached during
the search; :attr:`MaxImpactResult.verdict_basis` says if the unsat end
is a proof).  The default bounds and tolerance
are dyadic rationals, so bisection midpoints stay exactly representable
as floats and the fast analyzer's float target conversion is lossless.

Resource budgets span the whole search: every probe asks the search's
one :class:`~repro.core.session.ImpactQuery`, so its
:class:`~repro.smt.budget.SolverBudget` is shared by every probe
(counters are cumulative, the deadline is armed once), and on
exhaustion the search stops with the partial bracket proved so far
(``status="budget_exhausted"``, ``lower_bound``/``upper_bound`` report
``I* in [lo, hi)``) instead of discarding the work.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Dict, List, Optional

from repro.core.encoding import AttackVectorSolution
from repro.core.results import ImpactReport
from repro.core.session import ImpactQuery
from repro.exceptions import ModelError
from repro.smt.rational import to_fraction
from repro.validation import ValidationReport

#: default bisection tolerance (dyadic, so fast-path float targets stay
#: exact and bisection midpoints never grow non-binary denominators).
DEFAULT_TOLERANCE = Fraction(1, 8)
#: default upper cap of the galloping phase: no bundled case admits an
#: attack anywhere near a 64% cost increase (the paper's five-bus tops
#: out below 9%), so the cap only bounds pathological inputs.
DEFAULT_HI_CAP = Fraction(64)

#: terminal search statuses.
COMPLETE = "complete"            # bracket narrowed to <= tolerance
CAPPED = "capped"                # still satisfiable at the upper cap
BUDGET_EXHAUSTED = "budget_exhausted"
CERTIFICATE_ERROR = "certificate_error"


@dataclass
class MaxImpactResult:
    """What the bisection proved about the maximum achievable impact.

    ``lower_bound`` is the largest percentage *proved satisfiable* (its
    witness is attached), ``upper_bound`` the smallest found unsat, a
    proof only when :attr:`verdict_basis` is ``"proved"`` (fast-analyzer
    unsats bound I* over the attacks that analyzer searches); I* lies in
    ``[lower_bound, upper_bound)``.  With
    ``status="complete"`` the bracket is at most ``tolerance`` wide and
    :attr:`max_increase_percent` reports I* = ``lower_bound``; a
    budget-exhausted search reports whatever partial bracket it reached
    (either bound may be None when no probe of that polarity finished).
    """

    status: str
    satisfiable: bool
    base_cost: Fraction
    tolerance: Fraction
    lower_bound: Optional[Fraction] = None
    upper_bound: Optional[Fraction] = None
    witness: Optional[AttackVectorSolution] = None
    witness_cost: Optional[Fraction] = None
    #: the full report of the probe that established ``lower_bound``.
    witness_report: Optional[ImpactReport] = None
    #: the full report of the probe that established ``upper_bound``.
    upper_report: Optional[ImpactReport] = None
    #: the last probe's report (trace/source even when no witness exists).
    last_report: Optional[ImpactReport] = None
    #: one entry per ``solve_at`` probe, in execution order.
    probes: List[Dict[str, Any]] = field(default_factory=list)
    solve_at_calls: int = 0
    solver_calls: int = 0
    candidates_examined: int = 0
    encodings_built: int = 0
    #: seconds the probes spent building encodings (kept out of
    #: :meth:`to_dict`: timings are not part of the search's answer).
    encode_seconds: float = 0.0
    warm_solves: int = 0
    elapsed_seconds: float = 0.0
    budget_reason: Optional[str] = None
    certificate_error: Optional[str] = None
    certified: Optional[bool] = None
    diagnostics: Optional[ValidationReport] = None

    @property
    def max_increase_percent(self) -> Optional[Fraction]:
        """I* (the bracket's proved-satisfiable end), None without one."""
        return self.lower_bound if self.satisfiable else None

    @property
    def verdict_basis(self) -> Optional[str]:
        """The basis of ``upper_bound``'s probe, else of the witness."""
        report = self.upper_report or self.witness_report
        return None if report is None else report.verdict_basis

    @property
    def is_rejected(self) -> bool:
        return self.status in ("invalid_input", "degenerate_case")

    @property
    def is_definitive(self) -> bool:
        return self.status in (COMPLETE, CAPPED)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-able payload (exact bounds as ``str(Fraction)``)."""
        witness = None
        if self.witness is not None:
            witness = {
                "excluded": list(self.witness.excluded),
                "included": list(self.witness.included),
                "infected_states": list(self.witness.infected_states),
                "altered_measurements":
                    list(self.witness.altered_measurements),
                "compromised_buses": list(self.witness.compromised_buses),
            }
        return {
            "status": self.status,
            "satisfiable": self.satisfiable,
            "max_increase_percent":
                None if self.max_increase_percent is None
                else str(self.max_increase_percent),
            "lower_bound": None if self.lower_bound is None
                else str(self.lower_bound),
            "upper_bound": None if self.upper_bound is None
                else str(self.upper_bound),
            "tolerance": str(self.tolerance),
            "base_cost": str(self.base_cost),
            "witness_cost": None if self.witness_cost is None
                else str(self.witness_cost),
            "witness": witness,
            "probes": list(self.probes),
            "solve_at_calls": self.solve_at_calls,
            "solver_calls": self.solver_calls,
            "candidates_examined": self.candidates_examined,
            "encodings_built": self.encodings_built,
            "warm_solves": self.warm_solves,
            "elapsed_seconds": self.elapsed_seconds,
            "budget_reason": self.budget_reason,
            "certificate_error": self.certificate_error,
            "certified": self.certified,
        }


class MaxImpactSearch:
    """Bisection for I* over one analysis session.

    ``analyzer`` is an :class:`~repro.core.session.AnalysisSession` —
    an :class:`~repro.core.framework.ImpactAnalyzer` or a
    :class:`~repro.core.fast.FastImpactAnalyzer` — of which only
    :meth:`~repro.core.session.AnalysisSession.solve_at` is used.  The
    search itself is analyzer-agnostic: every probe asks ``query`` (an
    :class:`~repro.core.session.ImpactQuery`, default the plain one)
    at the probe's target, so the probes share the query's budget.
    """

    def __init__(self, analyzer, query: Optional[ImpactQuery] = None,
                 tolerance=DEFAULT_TOLERANCE, lo=Fraction(0),
                 hi_cap=DEFAULT_HI_CAP) -> None:
        self.analyzer = analyzer
        self.query = query or ImpactQuery()
        self.tolerance = to_fraction(tolerance)
        if self.tolerance <= 0:
            raise ModelError("bisection tolerance must be positive")
        self.lo = to_fraction(lo)
        if self.lo < 0:
            raise ModelError("the impact bracket cannot start below 0%")
        self.hi_cap = to_fraction(hi_cap)
        if self.hi_cap <= self.lo:
            raise ModelError("hi_cap must exceed the bracket's lo")

    # ------------------------------------------------------------------
    # The search
    # ------------------------------------------------------------------

    def run(self) -> MaxImpactResult:
        """Bisect to I*; returns the proved bracket and its witness."""
        started = time.perf_counter()
        self._probes: List[Dict[str, Any]] = []
        self._counters = {"solve_at_calls": 0, "solver_calls": 0,
                          "candidates_examined": 0, "encodings_built": 0,
                          "encode_seconds": 0.0, "warm_solves": 0}
        self._lo: Optional[Fraction] = None    # proved satisfiable
        self._hi: Optional[Fraction] = None    # proved unsatisfiable
        self._sat_report: Optional[ImpactReport] = None
        self._unsat_report: Optional[ImpactReport] = None
        self._last_report: Optional[ImpactReport] = None
        self._abort: Optional[ImpactReport] = None
        self._certified_all = True

        # 1. Anchor: the bracket's low end must be achievable at all.
        verdict = self._probe(self.lo)
        if verdict is None:
            return self._finish(None, started)
        if not verdict:
            return self._finish(COMPLETE, started)

        # 2. Gallop to an unsatisfiable upper bound (doubling steps keep
        #    every probe dyadic when lo and the step are); staying
        #    satisfiable at the cap ends the search with the bracket
        #    [cap, None).
        step = Fraction(1)
        while True:
            percent = self.lo + step
            if percent >= self.hi_cap:
                percent = self.hi_cap
            verdict = self._probe(percent)
            if verdict is None:
                return self._finish(None, started)
            if not verdict:
                break
            if percent == self.hi_cap:
                return self._finish(CAPPED, started)
            step *= 2

        # 3. Bisect the bracket down to the tolerance.
        while self._hi - self._lo > self.tolerance:
            mid = (self._lo + self._hi) / 2
            if self._probe(mid) is None:
                return self._finish(None, started)
        return self._finish(COMPLETE, started)

    # ------------------------------------------------------------------
    # Probe bookkeeping
    # ------------------------------------------------------------------

    def _probe(self, percent: Fraction) -> Optional[bool]:
        """One decision query; None means the search must stop.

        A budget-exhausted *satisfiable* answer still carries a valid
        witness (monotonicity only needs the model's existence), so it
        tightens the lower bound before the search stops; an exhausted
        unsatisfiable answer proves nothing and is discarded.
        """
        report = self.analyzer.solve_at(percent, self.query)
        self._last_report = report
        counters = self._counters
        counters["solve_at_calls"] += 1
        counters["solver_calls"] += report.solver_calls
        counters["candidates_examined"] += report.candidates_examined
        session = report.trace.session if report.trace is not None else {}
        counters["encodings_built"] += int(
            session.get("encodings_built", 0))
        counters["encode_seconds"] += float(
            session.get("encode_seconds", 0.0))
        counters["warm_solves"] += 1 if session.get("warm") else 0
        if report.certified is not True:
            self._certified_all = False
        definitive = report.status == "complete"
        self._probes.append({
            "percent": str(percent),
            "verdict": "sat" if report.satisfiable else "unsat",
            "status": report.status,
            "seconds": report.elapsed_seconds,
        })
        if report.satisfiable and (definitive
                                   or report.status == "budget_exhausted"):
            if self._lo is None or percent > self._lo:
                self._lo = percent
                self._sat_report = report
        elif definitive and not report.satisfiable:
            if self._hi is None or percent < self._hi:
                self._hi = percent
                self._unsat_report = report
        if not definitive:
            self._abort = report
            return None
        return report.satisfiable

    def _finish(self, status: Optional[str],
                started: float) -> MaxImpactResult:
        abort = self._abort
        budget_reason = None
        certificate_error = None
        diagnostics = None
        if status is None:
            status = abort.status
            budget_reason = abort.budget_reason
            certificate_error = abort.certificate_error
            diagnostics = abort.diagnostics
        report = self._sat_report or self._last_report
        base_cost = Fraction(0)
        if report is not None and not report.is_rejected:
            base_cost = report.base_cost
        if diagnostics is None and report is not None:
            diagnostics = report.diagnostics
        certified: Optional[bool] = None
        if status == CERTIFICATE_ERROR:
            certified = False
        elif self._last_report is not None \
                and self._last_report.certified is not None:
            # A report without a verdict (a rejection, a numeric
            # refusal) was never up for certification.
            certified = self._certified_all
        witness = self._sat_report
        return MaxImpactResult(
            status=status,
            satisfiable=self._lo is not None,
            base_cost=base_cost,
            tolerance=self.tolerance,
            lower_bound=self._lo,
            upper_bound=self._hi,
            witness=None if witness is None else witness.attack,
            witness_cost=None if witness is None
                else witness.believed_min_cost,
            witness_report=witness,
            upper_report=self._unsat_report,
            last_report=self._last_report,
            probes=self._probes,
            solve_at_calls=self._counters["solve_at_calls"],
            solver_calls=self._counters["solver_calls"],
            candidates_examined=self._counters["candidates_examined"],
            encodings_built=self._counters["encodings_built"],
            encode_seconds=self._counters["encode_seconds"],
            warm_solves=self._counters["warm_solves"],
            elapsed_seconds=time.perf_counter() - started,
            budget_reason=budget_reason,
            certificate_error=certificate_error,
            certified=certified,
            diagnostics=diagnostics)
