"""The shared analysis-session layer behind both impact analyzers.

The paper's framework (Fig. 2) is *one* analysis loop — find a stealthy
attack vector, check the OPF cost threshold, block, repeat — yet the
repo used to implement its cross-cutting lifecycle twice, once per
analyzer.  :class:`AnalysisSession` now owns every concern that is
independent of *how* candidates are generated and evaluated:

* preflight validation and deferred rejection (``invalid_input`` /
  ``degenerate_case`` / ``case.model_error`` / ``opf.base_infeasible``);
* threshold derivation (``T_OPF = base * (1 + I/100)``, paper Eq. 37);
* resource-budget start and exhaustion handling (partial reports);
* certificate bookkeeping — the per-run stats dict, the
  :func:`verify_sat` / :func:`verify_unsat` wrappers, and the
  ``certificate_error`` escalation path;
* run-note collection (islanding warnings) and diagnostics merging;
* trace emission and every :class:`ImpactReport` shape (success, unsat,
  partial, certificate-error, rejected).

The analyzers differ only in their candidate search, which each
subclass supplies as the hooks :meth:`AnalysisSession.analyze` calls on
itself: :class:`~repro.core.framework.ImpactAnalyzer` runs the full SMT
loop, :class:`~repro.core.fast.FastImpactAnalyzer` the single-line
LODF/LCDF enumeration.  A search reports its findings as a
:class:`SearchOutcome`; everything else happens here, exactly once.  The
``strategy`` key of ``trace.session`` names the search that ran
(:attr:`AnalysisSession.kind`).

Both answer one question object, :class:`ImpactQuery`, defined here
beside the lifecycle that reads it.  An analyzer refuses with
:class:`ModelError` (:meth:`AnalysisSession.validate_query`) what it
cannot honour and ignores what it has no use for, so a caller — the
sweep engine, the CLI, :class:`~repro.search.MaxImpactSearch`,
:class:`~repro.defense.DefensePlanner` — builds the same query
whichever analyzer it holds.

Incremental scenario reuse: a session keeps its encoded model warm
between :meth:`analyze` calls — consecutive
queries that differ only in the cost threshold (a Fig.-4 style sweep)
re-solve against the same clause database via the solver's
guard-literal ``push()``/``pop()`` scopes, retaining learned clauses and
simplex state.  :meth:`solve_at` is the convenience entry point; the
sweep engine groups scenarios by encoding fingerprint and runs each
group through one warm session per worker.  The per-run trace records
the split in ``trace.session``: ``encode_seconds`` (paid once per
encoding) vs ``solve_seconds``, plus ``warm`` and ``encodings_built``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Any, Dict, Optional, Sequence, Tuple

from repro.core.results import AnalysisTrace, ImpactReport
from repro.exceptions import (
    BudgetExhausted,
    CertificateError,
    ModelError,
    NumericalInstability,
)
from repro.numerics import collect_diagnostics
from repro.smt.budget import SolverBudget
from repro.smt.certificates import (
    CheckReport,
    self_check_default,
    verify_sat,
    verify_unsat,
)
from repro.smt.rational import to_fraction
from repro.validation import (
    DEGRADED,
    FATAL,
    WARNING,
    ValidationReport,
    validate_case,
)

#: cap on the per-check event list kept in the trace (counters are exact).
_MAX_CERT_EVENTS = 200
#: cap on the per-run "candidate islands the network" notes recorded.
_MAX_ISLANDING_NOTES = 3
#: cap on the per-run numeric warning / escalation notes recorded.
_MAX_NUMERIC_NOTES = 3


@dataclass
class ImpactQuery:
    """The one question both analyzers answer (paper Eq. 37): is there
    a stealthy attack raising the believed OPF cost by at least I%?

    ``target_increase_percent`` defaults to the case's value.  An
    analyzer refuses, with :class:`ModelError` from
    :meth:`AnalysisSession.validate_query`, a field it cannot honour;
    fields it has no use for are ignored (the SMT search samples
    nothing, so it ignores ``state_samples`` and ``seed``, and decides
    in exact arithmetic, so it ignores ``escalation_band``).
    """

    target_increase_percent: Optional[Fraction] = None
    #: allow UFDI state infection (paper Section III-D); the fast
    #: analyzer samples ``state_samples`` seeded vertices of the
    #: believed-load box instead of searching it.
    with_state_infection: bool = False
    #: set False for the paper's "UFDI attacks alone" comparison: the
    #: topology stays faithful and only state infection is allowed.
    allow_topology_attack: bool = True
    #: confirm a successful attack with the paper's SMT OPF model
    #: (Eqs. 37/38).
    verify_with_smt_opf: bool = False
    state_samples: int = 24
    seed: int = 0
    #: Eq. 37 guard band (percentage points) of the fast analyzer: when
    #: the best candidate's float cost increase lands within this band
    #: of the target, the verdict is not trusted to floating point — the
    #: believed OPF is re-solved on the exact rational path and the
    #: threshold comparison decided in Fractions (boundary escalation,
    #: noted on the report).  The default covers the certified recheck's
    #: 1e-6 relative cost slack (~1e-4 percentage points), so a
    #: threshold replayed from an exact believed cost still escalates.
    escalation_band: float = 5e-4
    #: optional resource budget spanning the whole analysis and its only
    #: bound.  On exhaustion ``analyze`` returns a *partial* report with
    #: ``status="budget_exhausted"`` (carrying the best attack examined)
    #: instead of raising.
    budget: Optional[SolverBudget] = None
    #: certified mode: every answer is checked by an independent
    #: certificate before it is reported (:mod:`repro.smt.certificates`
    #: for SMT models and proofs, an independent B-theta OPF re-solve
    #: for a fast-path attack).  None (the default) defers to the
    #: ``REPRO_SELF_CHECK`` environment variable; a failed check yields
    #: ``status="certificate_error"``, never a silently wrong verdict.
    self_check: Optional[bool] = None


@dataclass
class SearchOutcome:
    """What an analyzer's search found (the session builds the report).

    ``status`` is ``"complete"`` for a definitive verdict or
    ``"budget_exhausted"`` when the search stopped early at a loop-top
    budget probe (a search may alternatively let
    :class:`BudgetExhausted` propagate; the session converts it to the
    same partial report).  ``confirmed`` carries the optional Eq.-37/38
    SMT OPF confirmation of a successful attack.
    """

    satisfiable: bool = False
    solution: Optional[Any] = None
    believed_min: Optional[Fraction] = None
    status: str = "complete"
    budget_reason: Optional[str] = None
    confirmed: Optional[bool] = None


class AnalysisSession:
    """Owns one case's full analysis lifecycle; a subclass supplies the
    candidate search as the hooks :meth:`analyze` calls on it.

    A subclass overrides every hook that raises; the other defaults
    cover a search without a per-case build, an inline-certified
    answer, or an SMT solver (``smt_trace`` zeros mirror what sweep
    traces expect for non-SMT cells).  A subclass sets the attributes
    its hooks read *before* calling this constructor, which runs
    :meth:`prepare`.
    """

    #: "smt" | "fast" — mirrored in traces (the ``strategy`` key of
    #: ``trace.session``) and the engine's grouping.
    kind: str = "?"

    def __init__(self, case, preflight: bool = True) -> None:
        self.case = case
        #: preflight findings; fatal ones mean :meth:`analyze` returns a
        #: rejected report instead of touching the search's machinery.
        self.preflight = validate_case(case) if preflight \
            else ValidationReport(subject=case.name)
        self._rejection = self.preflight.fatal_status()
        self.grid = None
        self._run_notes = ValidationReport(subject=case.name)
        self._certify = False
        self._cert_stats: Dict = {}
        self.candidates_examined = 0
        self._best_seen: Optional[Tuple[Any, Fraction]] = None
        self._boundary_escalations = 0
        #: guarded linear algebra refused the case's base matrices; every
        #: :meth:`analyze` call degrades to ``numerical_unstable``.
        self._numeric_failure: Optional[NumericalInstability] = None
        self._prepare_numeric_warnings = 0
        if self._rejection is None:
            try:
                with collect_diagnostics() as numeric_notes:
                    self.grid = case.build_grid()
                    self.prepare()
                self._note_numeric_warnings(numeric_notes,
                                            sink=self.preflight)
                self._prepare_numeric_warnings = len(numeric_notes)
            except ModelError as exc:
                # Safety net: preflight models the Grid invariants at the
                # spec level, but a construction failure it missed must
                # still reject, not crash.
                self.preflight.add("case.model_error", FATAL, str(exc))
                self._rejection = self.preflight.fatal_status()
            except NumericalInstability as exc:
                # The base topology's matrices are too ill-conditioned to
                # trust (near-singular B, pathological admittance spread).
                # Not a modelling error: the case is well-formed, the
                # arithmetic just cannot be verified at this precision.
                self._numeric_failure = exc

    # ------------------------------------------------------------------
    # The search hooks
    # ------------------------------------------------------------------

    def prepare(self) -> None:
        """Build per-case machinery (called once, after preflight).

        May raise :class:`ModelError` (→ ``case.model_error`` rejection)
        or call :meth:`note_base_infeasible`.
        """

    @property
    def base_cost(self) -> Fraction:
        """The attack-free optimal cost (may raise :class:`ModelError`)."""
        raise NotImplementedError

    def validate_query(self, query: ImpactQuery) -> None:
        """Raise :class:`ModelError` for a query this analyzer cannot
        honour."""
        raise NotImplementedError

    def begin(self, query: ImpactQuery, threshold: Fraction) -> None:
        """Per-run setup: (re)encode, wire the budget, reset counters."""
        raise NotImplementedError

    def search(self, query: ImpactQuery,
               threshold: Fraction) -> SearchOutcome:
        """Run the candidate search.  May raise :class:`BudgetExhausted`
        or :class:`CertificateError`; :meth:`analyze` builds the
        report."""
        raise NotImplementedError

    def certify_outcome(self, outcome: SearchOutcome,
                        threshold: Fraction) -> None:
        """Post-search cross-check of a successful attack (certified
        mode only).  A search that certifies inline leaves this a
        no-op; raise :class:`CertificateError` to reject the answer."""

    def encode_info(self) -> Dict[str, Any]:
        """``{"warm", "encodings_built", "encode_seconds"}`` for the run."""
        raise NotImplementedError

    def smt_trace(self) -> Dict[str, Any]:
        # A search that never touches the SMT solver reports explicit
        # zeros so sweep traces stay uniform.
        return {"solve_calls": 0, "decisions": 0, "conflicts": 0,
                "theory_conflicts": 0, "simplex_pivots": 0,
                "total_seconds": 0.0}

    def opf_trace(self) -> Dict[str, Any]:
        """``{"solves", "seconds"}`` of the run's believed-OPF solves."""
        raise NotImplementedError

    def solver_calls(self) -> int:
        return 0

    # ------------------------------------------------------------------
    # Threshold derivation and rejection
    # ------------------------------------------------------------------

    @property
    def rejected(self) -> bool:
        return self._rejection is not None

    @property
    def numerically_suspect(self) -> bool:
        """Did guarded linear algebra warn while preparing this case?

        Warn-band findings (condition/residual past *warn* but under
        *fail*) don't degrade the analysis, but a float verdict built on
        them should not be trusted unverified — the fast analyzer uses
        this to escalate its verdict to the exact path even when the
        result lands far from the Eq. 37 boundary.
        """
        return self._prepare_numeric_warnings > 0

    def threshold_for(self, percent) -> Fraction:
        """T_OPF = base * (1 + I/100)."""
        return self.base_cost * (1 + to_fraction(percent) / 100)

    def note_base_infeasible(self, message: str) -> None:
        """Record the attack-free OPF's infeasibility as a rejection.

        Preflight admits the case on aggregate load/capacity, but line
        limits can still make the base OPF infeasible; both analyzers
        funnel that discovery here.
        """
        self.preflight.add(
            "opf.base_infeasible", FATAL, message,
            hint="no dispatch satisfies the base case's line and "
                 "generation limits")
        self._rejection = self.preflight.fatal_status()

    # ------------------------------------------------------------------
    # The shared analyze() lifecycle
    # ------------------------------------------------------------------

    def analyze(self, query: Optional[ImpactQuery] = None) -> ImpactReport:
        started = time.perf_counter()
        query = query or ImpactQuery()
        percent = to_fraction(
            query.target_increase_percent
            if query.target_increase_percent is not None
            else self.case.min_increase_percent)
        self._run_notes = ValidationReport(subject=self.case.name)
        if self._rejection is not None:
            return ImpactReport.rejected(
                self.preflight, percent,
                elapsed_seconds=time.perf_counter() - started)
        if self._numeric_failure is not None:
            return self._numeric_report(
                None, percent, started, self._numeric_failure)
        try:
            threshold = self.threshold_for(percent)
        except ModelError as exc:
            self.note_base_infeasible(str(exc))
            return ImpactReport.rejected(
                self.preflight, percent,
                elapsed_seconds=time.perf_counter() - started)
        except NumericalInstability as exc:
            return self._numeric_report(None, percent, started, exc)
        self.validate_query(query)

        self._certify = self_check_default(query.self_check)
        self._cert_stats = self._fresh_cert_stats()
        self.candidates_examined = 0
        self._best_seen = None
        self._boundary_escalations = 0
        budget = query.budget
        if budget is not None:
            budget.start()

        with collect_diagnostics() as numeric_notes:
            self.begin(query, threshold)
            try:
                outcome = self.search(query, threshold)
                if outcome.satisfiable and self._certify:
                    self.certify_outcome(outcome, threshold)
                elif self._certify \
                        and self._verdict_basis(outcome, query) == "proved" \
                        and self._cert_stats["unsat_checked"] == 0:
                    # A proved unsat is only as good as its checked proof.
                    raise CertificateError(
                        "complete unsat reported without a checked "
                        "UNSAT proof")
            except BudgetExhausted as exc:
                outcome = SearchOutcome(status="budget_exhausted",
                                        budget_reason=exc.reason)
            except NumericalInstability as exc:
                self._note_numeric_warnings(numeric_notes)
                return self._numeric_report(threshold, percent, started, exc)
            except CertificateError as exc:
                self._note_numeric_warnings(numeric_notes)
                return self._certificate_error_report(
                    threshold, percent, started, str(exc))
        self._note_numeric_warnings(numeric_notes)
        return self._outcome_report(outcome, query, threshold, percent,
                                    started)

    def solve_at(self, percent=None,
                 query: Optional[ImpactQuery] = None) -> ImpactReport:
        """Analyze ``query`` at the target ``percent``, reusing the warm
        encoding.

        The incremental entry point for threshold sweeps: runs
        :meth:`analyze` on a copy of ``query`` (default
        :class:`ImpactQuery`) whose target is ``percent``, which
        re-solves against the retained clause database instead of
        re-encoding.  The copy shares the query's budget.  A ``None``
        percent falls back to ``case.min_increase_percent``, exactly as
        the one-shot :meth:`analyze` path does — on either analyzer.
        """
        if percent is None:
            percent = self.case.min_increase_percent
        return self.analyze(replace(query or ImpactQuery(),
                                    target_increase_percent=to_fraction(
                                        percent)))

    def max_impact(self, tolerance=None, query: Optional[ImpactQuery] = None,
                   **search_kwargs):
        """Bisect to the maximum achievable increase I* on this session.

        Convenience wrapper over :class:`repro.search.MaxImpactSearch`;
        every probe goes through :meth:`solve_at`, so on the SMT
        analyzer each probe after the first is a warm re-solve of one
        encoding.
        """
        from repro.search import DEFAULT_TOLERANCE, MaxImpactSearch
        if tolerance is None:
            tolerance = DEFAULT_TOLERANCE
        return MaxImpactSearch(self, query=query, tolerance=tolerance,
                               **search_kwargs).run()

    # ------------------------------------------------------------------
    # Run notes and diagnostics
    # ------------------------------------------------------------------

    def note_islanding(self, excluded: Sequence[int],
                       included: Sequence[int]) -> None:
        """Record that a candidate's believed topology is disconnected.

        Post-attack revalidation: the candidate is pruned (the EMS's OPF
        would not converge), and the report's diagnostics say so instead
        of the candidate silently vanishing.
        """
        notes = [d for d in self._run_notes.diagnostics
                 if d.code == "topology.attack_islands_network"]
        if len(notes) >= _MAX_ISLANDING_NOTES:
            return
        excluded = list(excluded)
        included = list(included)
        components = [f"line:{i}" for i in excluded] + \
            [f"line:{i}" for i in included]
        self._run_notes.add(
            "topology.attack_islands_network", WARNING,
            f"candidate attack (excluded={excluded}, "
            f"included={included}) islands the believed "
            f"topology; candidate pruned", components,
            hint="the EMS's OPF has no solution on this view")

    def note_boundary_escalation(self, kind: str, line_index: int,
                                 float_increase: float, target: float,
                                 satisfiable: bool,
                                 trigger: Optional[str] = None) -> None:
        """Record that a float verdict was not trusted and was
        re-derived on the exact path.

        ``trigger`` names why (defaults to the Eq. 37 guard band; the
        other trigger is ill-conditioning warnings during analysis).
        The invariant the degeneracy fuzzer pins: the fast and exact
        analyzers never *silently* disagree — an untrusted verdict is
        either escalated (this note) or degraded to
        ``numerical_unstable``.
        """
        self._boundary_escalations += 1
        notes = [d for d in self._run_notes.diagnostics
                 if d.code == "numeric.boundary_escalated"]
        if len(notes) >= _MAX_NUMERIC_NOTES:
            return
        why = trigger or (f"lies within the guard band of the Eq. 37 "
                          f"target {target:.12g}%")
        self._run_notes.add(
            "numeric.boundary_escalated", WARNING,
            f"candidate ({kind} line {line_index}) float cost increase "
            f"{float_increase:.12g}% {why}; verdict re-derived on the "
            f"exact OPF path ({'sat' if satisfiable else 'unsat'})",
            [f"line:{line_index}"],
            hint="untrusted float verdicts are decided in exact "
                 "arithmetic, never by float comparison")

    def _note_numeric_warnings(self, diagnostics,
                               sink: Optional[ValidationReport] = None
                               ) -> None:
        """Convert guarded-linalg warning diagnostics into run notes.

        Warnings (condition or residual past the *warn* threshold but
        under *fail*) degrade nothing — the solves were verified — but
        they belong in the report so an operator sees the case is near
        the cliff.  Capped like the islanding notes.
        """
        sink = sink if sink is not None else self._run_notes
        for diagnostic in diagnostics:
            notes = [d for d in sink.diagnostics
                     if d.code == "numeric.ill_conditioned"]
            if len(notes) >= _MAX_NUMERIC_NOTES:
                return
            sink.add(
                "numeric.ill_conditioned", WARNING, diagnostic.render(),
                hint="condition/residual warning from the guarded "
                     "linear-algebra layer; results verified but close "
                     "to the failure thresholds")

    def record_best(self, solution, believed_cost: Fraction) -> None:
        """Remember the most expensive believed optimum examined so a
        budget-exhausted run can still report its best attack."""
        if self._best_seen is None or believed_cost > self._best_seen[1]:
            self._best_seen = (solution, believed_cost)

    def _diagnostics(self) -> Optional[ValidationReport]:
        """Preflight findings + per-run notes, or None when clean."""
        merged = ValidationReport(subject=self.case.name)
        merged.extend(self.preflight)
        merged.extend(self._run_notes)
        return merged if merged.diagnostics else None

    # ------------------------------------------------------------------
    # Certificates
    # ------------------------------------------------------------------

    def _fresh_cert_stats(self) -> Dict:
        return {
            "enabled": self._certify,
            "models_checked": 0,
            "unsat_checked": 0,
            "terms_checked": 0,
            "rup_steps": 0,
            "theory_lemmas": 0,
            "seconds": 0.0,
            "events": [],
        }

    def record_check(self, report: CheckReport) -> None:
        stats = self._cert_stats
        if report.kind == "model":
            stats["models_checked"] += 1
        else:
            stats["unsat_checked"] += 1
        stats["terms_checked"] += report.terms_checked
        stats["rup_steps"] += report.rup_steps
        stats["theory_lemmas"] += report.theory_lemmas
        stats["seconds"] += report.seconds
        events = stats["events"]
        if len(events) < _MAX_CERT_EVENTS:
            events.append({"kind": report.kind,
                           "terms": report.terms_checked,
                           "rup_steps": report.rup_steps,
                           "theory_lemmas": report.theory_lemmas,
                           "seconds": report.seconds})

    def certify_model(self, solver, model=None, assumptions=None) -> None:
        """Check a SAT answer against the original assertions (no-op
        unless the analysis runs in certified mode)."""
        if not self._certify:
            return
        self.record_check(verify_sat(solver, model=model,
                                     assumptions=assumptions))

    def certify_unsat(self, solver) -> None:
        """Check an UNSAT answer against its recorded proof (no-op
        unless the analysis runs in certified mode)."""
        if not self._certify:
            return
        self.record_check(verify_unsat(solver))

    # ------------------------------------------------------------------
    # Trace and report assembly
    # ------------------------------------------------------------------

    def _trace(self, started: float) -> AnalysisTrace:
        info = self.encode_info()
        elapsed = time.perf_counter() - started
        encode_seconds = float(info.get("encode_seconds", 0.0))
        return AnalysisTrace(
            stages={
                "encode_seconds": encode_seconds,
                "total_seconds": elapsed,
            },
            smt=self.smt_trace(),
            opf=self.opf_trace(),
            certificates=dict(self._cert_stats) if self._certify else {},
            session={
                "strategy": self.kind,
                "warm": bool(info.get("warm", False)),
                "encodings_built": int(info.get("encodings_built", 0)),
                "encode_seconds": encode_seconds,
                "solve_seconds": max(elapsed - encode_seconds, 0.0),
                "boundary_escalations": self._boundary_escalations,
            })

    def _verdict_basis(self, outcome: SearchOutcome,
                       query) -> Optional[str]:
        """See :attr:`ImpactReport.verdict_basis`."""
        if outcome.status != "complete":
            return None
        if outcome.satisfiable or self.kind == "smt":
            return "proved"
        return "sampled" if query.with_state_infection else "restricted"

    def _outcome_report(self, outcome: SearchOutcome, query,
                        threshold: Fraction, percent: Fraction,
                        started: float) -> ImpactReport:
        """Success, definitive unsat, or budget-exhausted partial.

        On exhaustion ``satisfiable`` stays whatever the search proved
        (a success returns immediately, so an exhausted SMT search is
        always unsat-so-far), and the best sub-threshold attack examined
        is attached so the caller sees how close the search got.
        """
        attack, believed = outcome.solution, outcome.believed_min
        if not outcome.satisfiable and attack is None \
                and outcome.status == "budget_exhausted" \
                and self._best_seen is not None:
            attack, believed = self._best_seen
        return ImpactReport(
            outcome.satisfiable, self.base_cost, threshold, percent,
            attack, believed,
            candidates_examined=self.candidates_examined,
            elapsed_seconds=time.perf_counter() - started,
            smt_opf_unsat_confirmed=outcome.confirmed,
            solver_calls=self.solver_calls(),
            trace=self._trace(started),
            status=outcome.status,
            budget_reason=outcome.budget_reason,
            certified=True if self._certify else None,
            diagnostics=self._diagnostics(),
            verdict_basis=self._verdict_basis(outcome, query))

    def _numeric_report(self, threshold: Optional[Fraction],
                        percent: Fraction, started: float,
                        exc: NumericalInstability) -> ImpactReport:
        """Guarded linear algebra refused the run: degrade, don't guess.

        ``satisfiable`` is False but ``status="numerical_unstable"``
        marks the verdict as *absent*, exactly like ``budget_exhausted``
        marks it partial — callers must never read it as a proven unsat.
        A ``None`` threshold means the failure predates threshold
        derivation (the base matrices themselves were refused).
        """
        self._run_notes.add(
            "numeric.unstable", DEGRADED, str(exc),
            hint="guarded linear algebra refused to return an "
                 "unverified result; verdict withheld (see the "
                 "numerical-integrity thresholds)")
        base = Fraction(0)
        if self.grid is not None:
            try:
                base = self.base_cost
            except (ModelError, NumericalInstability):
                pass
        return ImpactReport(
            False, base, threshold if threshold is not None else base,
            percent,
            candidates_examined=self.candidates_examined,
            elapsed_seconds=time.perf_counter() - started,
            solver_calls=self.solver_calls(),
            trace=self._trace(started),
            status="numerical_unstable",
            numeric_reason=exc.reason,
            diagnostics=self._diagnostics())

    def _certificate_error_report(self, threshold, percent, started,
                                  message: str) -> ImpactReport:
        """An answer failed its certificate check: report *no* verdict.

        ``satisfiable`` is False but ``status="certificate_error"``
        marks the whole report as untrusted — callers must treat it like
        an error, never like a proven unsat.
        """
        self._cert_stats["error"] = message
        return ImpactReport(
            False, self.base_cost, threshold, percent,
            candidates_examined=self.candidates_examined,
            elapsed_seconds=time.perf_counter() - started,
            solver_calls=self.solver_calls(),
            trace=self._trace(started),
            status="certificate_error", certified=False,
            certificate_error=message,
            diagnostics=self._diagnostics())
