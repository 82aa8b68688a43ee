"""The scenario-sweep engine and the execution kernel it shares.

The paper's evaluation grids — (case × target-% × attacker-scenario)
cells, each an independent impact analysis — are embarrassingly parallel,
so :class:`SweepEngine` fans :class:`~repro.runner.spec.ScenarioSpec`
units out to the workers of the analysis service's
:class:`~repro.service.supervisor.Supervisor`, the one local process
supervisor.

The sweep, the distributed fabric and the analysis service are front ends
over one kernel defined here:

* :func:`plan_grid` fingerprints a grid, resolves what needs no solver
  (parse rejections, verified cache hits) and partitions the rest into
  units with :func:`plan_units`: scenarios that share an *encoding
  group* (same resolved case, analyzer kind and state-infection flag — a
  Fig. 4-style threshold sweep) are batched so one worker builds one
  :class:`~repro.core.encoding.AttackModelEncoding` and re-solves each
  threshold incrementally inside solver ``push()``/``pop()`` scopes.
  Groups are split so batching never drops below ``workers``-way
  parallelism, and verdicts are unchanged (SAT witness *vectors* may
  differ — any model is valid, and certified mode re-checks each
  independently);
* every unit, a unit of one cell included, runs through
  :func:`run_unit` — in the serial sweep, in every supervised worker and
  in the fabric worker — which maps analyzer statuses and escaping
  exceptions onto outcome statuses in one place and checkpoints each
  cell as it finishes;
* :func:`read_through` and :func:`checkpoint` are the only cache
  consumers: a hit is served only after :func:`verify_cached_outcome`,
  and only :attr:`ScenarioOutcome.cacheable` outcomes are admitted.

With ``workers > 1`` and more than one unit, the engine submits each
unit as one supervisor job, and the supervisor's failure policy is the
sweep's:

* each task has an optional wall-clock budget (``task_timeout``) that
  reaches the worker as an in-solver
  :class:`~repro.smt.budget.SolverBudget` deadline: a solver-bound cell
  comes back as ``unknown`` with partial statistics.  A worker stuck
  outside the solvers is hard-killed at the unit's kill horizon;
* a unit whose worker dies (OOM kill, segfault in a native library) or
  hangs is re-dispatched up to ``retries`` times, then every cell of it
  is recorded as ``crashed`` or ``timeout``.  Each worker has its own
  pipe, so a failure is charged to the unit that worker held and never
  to a neighbour;
* where processes cannot be spawned (restricted environments) the
  supervisor runs its workers as threads, with identical results.

With ``workers <= 1`` (or a single unit) the engine runs in-process,
including budget enforcement — the in-solver deadline works the same.
Execution is deterministic per scenario, so parallel and serial runs are
interchangeable; only wall-clock differs.
"""

from __future__ import annotations

import os
import time
import traceback
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Mapping, \
    Optional, Sequence, Tuple

from fractions import Fraction

from repro.core.fast import FastImpactAnalyzer, FastQuery
from repro.core.framework import ImpactAnalyzer, ImpactQuery
from repro.exceptions import BudgetExhausted, CaseFieldError, \
    InputFormatError, NumericalInstability
from repro.runner.cache import DEFAULT_CACHE_DIR, ResultCache
from repro.runner.spec import ScenarioSpec
from repro.runner.trace import (
    CERTIFICATE_ERROR,
    CRASHED,
    ERROR,
    INVALID_INPUT,
    NUMERICAL_UNSTABLE,
    OK,
    REJECTED_STATUSES,
    TIMEOUT,
    UNKNOWN,
    ScenarioOutcome,
    SweepTrace,
)
from repro.search import DEFAULT_TOLERANCE, MaxImpactResult, \
    MaxImpactSearch
from repro.smt.budget import SolverBudget
from repro.smt.certificates import self_check_default
from repro.validation import FATAL, ValidationReport, validate_case


def _exception_text(exc: BaseException) -> str:
    return "".join(traceback.format_exception_only(type(exc), exc)).strip()


def parse_failure_report(subject: str,
                         exc: Exception) -> ValidationReport:
    """A one-finding report for a case text that failed to parse."""
    report = ValidationReport(subject=subject)
    components = [f"field:{exc.path}"] \
        if isinstance(exc, CaseFieldError) else []
    report.add("parse.malformed", FATAL, str(exc), components,
               hint="fix the case text at the reported field path"
               if components else "the case text does not follow the "
               "paper's input format")
    return report


def _rejected_outcome(spec: ScenarioSpec, fingerprint: str,
                      report: ValidationReport) -> ScenarioOutcome:
    """An outcome for an input preflight (or the parser) refused."""
    fatal = [d.code for d in report.fatal]
    return ScenarioOutcome(
        spec=spec, fingerprint=fingerprint,
        status=report.fatal_status() or INVALID_INPUT,
        error="; ".join(fatal),
        diagnostics=report.to_dict())


@dataclass
class SweepConfig:
    """Engine knobs."""

    workers: int = 4
    #: per-task wall-clock budget in seconds (None: unlimited).  Enforced
    #: cooperatively inside the solvers in *both* modes (tasks come back
    #: ``unknown`` with partial statistics); parallel mode additionally
    #: hard-kills a worker stuck past its unit's kill horizon.
    task_timeout: Optional[float] = None
    #: how many times a unit is re-dispatched after its worker died or
    #: hung (parallel mode).
    retries: int = 1
    cache_dir: Optional[str] = DEFAULT_CACHE_DIR
    use_cache: bool = True
    #: extra per-task resource limits (conflicts/decisions/pivots/wall);
    #: every task gets a *fresh* budget built from these limits, with
    #: ``task_timeout`` folded in as a wall-clock bound.
    budget: Optional[SolverBudget] = None
    #: certified mode for every scenario: each analyzer answer is checked
    #: against an independent certificate before it is reported, and
    #: cache hits must additionally carry ``certified=True`` to be
    #: served.  None (the default) defers to ``REPRO_SELF_CHECK`` —
    #: resolved inside each worker, so the environment variable works in
    #: parallel mode too.
    self_check: Optional[bool] = None


def outcome_from_exception(outcome: ScenarioOutcome, exc: Exception,
                           started: float) -> ScenarioOutcome:
    """Record an exception that escaped an analysis on its outcome.

    The one failure mapping of every front end: :class:`BudgetExhausted`
    outside the analyzers' own loops (e.g. the base OPF while building
    the analyzer) is ``unknown``, a :class:`NumericalInstability` refusal
    outside ``analyze()`` is ``numerical_unstable``, anything else is an
    ``error``.
    """
    if isinstance(exc, BudgetExhausted):
        outcome.status, outcome.error = UNKNOWN, exc.reason
    elif isinstance(exc, NumericalInstability):
        outcome.status, outcome.error = NUMERICAL_UNSTABLE, exc.reason
    else:
        outcome.status, outcome.error = ERROR, _exception_text(exc)
    outcome.task_seconds = time.perf_counter() - started
    return outcome


#: analyzer/search degradations -> (outcome status, fallback reason).
_DEGRADATIONS = {
    "budget_exhausted": (UNKNOWN, "resource budget exhausted"),
    # The verdict failed its independent check: never sat/unsat.
    "certificate_error": (CERTIFICATE_ERROR, "certificate rejected"),
    # The guarded linear algebra refused to return an unverified result.
    "numerical_unstable": (NUMERICAL_UNSTABLE, "numerically unstable"),
}


def _apply_result(outcome: ScenarioOutcome, result,
                  numeric_reason: Optional[str]) -> None:
    """Status and summary fields of a finished report or I* search.

    The one place :class:`~repro.core.results.ImpactReport` and
    :class:`~repro.search.MaxImpactResult` statuses map onto outcome
    statuses: a degradation keeps its reason, a preflight rejection (a
    deterministic verdict, not an error) lists its fatal codes.
    """
    if result.status in _DEGRADATIONS:
        outcome.status, fallback = _DEGRADATIONS[result.status]
        reason = {"budget_exhausted": result.budget_reason,
                  "certificate_error": result.certificate_error,
                  "numerical_unstable": numeric_reason}[result.status]
        outcome.error = reason or fallback
    elif result.is_rejected:
        outcome.status = result.status
        if result.diagnostics is not None:
            outcome.error = "; ".join(
                d.code for d in result.diagnostics.fatal)
    outcome.certified = result.certified
    if result.diagnostics is not None:
        outcome.diagnostics = result.diagnostics.to_dict()
    outcome.satisfiable = result.satisfiable
    outcome.candidates_examined = result.candidates_examined
    outcome.solver_calls = result.solver_calls
    outcome.analysis_seconds = result.elapsed_seconds


def _outcome_from_report(outcome: ScenarioOutcome, report,
                         started: float) -> ScenarioOutcome:
    """Fill a scenario outcome from a finished analyzer report."""
    _apply_result(outcome, report, report.numeric_reason)
    outcome.base_cost = str(report.base_cost)
    outcome.threshold = str(report.threshold)
    if report.believed_min_cost is not None:
        outcome.believed_min_cost = str(report.believed_min_cost)
    if report.achieved_increase_percent is not None:
        outcome.achieved_increase_percent = float(
            report.achieved_increase_percent)
    if report.trace is not None:
        outcome.trace = report.trace.to_dict()
    outcome.task_seconds = time.perf_counter() - started
    return outcome


def _query_attrs(spec: ScenarioSpec, kind: str,
                 budget: Optional[SolverBudget],
                 self_check: Optional[bool]) -> Dict[str, Any]:
    """A spec's per-query fields, minus the target percentage."""
    attrs: Dict[str, Any] = {
        "with_state_infection": spec.with_state_infection,
        "budget": budget,
        "self_check": self_check,
    }
    if kind == "fast":
        attrs["state_samples"] = spec.state_samples
        attrs["seed"] = spec.sample_seed
    return attrs


def _analysis_query(spec: ScenarioSpec, kind: str,
                    budget: Optional[SolverBudget],
                    self_check: Optional[bool]):
    """The analyzer query a spec's parameters describe."""
    attrs = _query_attrs(spec, kind, budget, self_check)
    if kind == "smt":
        return ImpactQuery(
            target_increase_percent=spec.target_fraction(), **attrs)
    return FastQuery(
        target_increase_percent=spec.target_fraction(), **attrs)


def _run_max_impact(spec: ScenarioSpec, kind: str, analyzer,
                    budget: Optional[SolverBudget],
                    self_check: Optional[bool]) -> MaxImpactResult:
    """Bisect the spec's case to I* on the given (warm or cold) analyzer."""
    search = MaxImpactSearch(
        analyzer,
        tolerance=spec.tolerance_fraction() or DEFAULT_TOLERANCE,
        lo=spec.target_fraction() or Fraction(0))
    return search.run(**_query_attrs(spec, kind, budget, self_check))


def _outcome_from_max_result(outcome: ScenarioOutcome,
                             result: MaxImpactResult,
                             started: float) -> ScenarioOutcome:
    """Fill a scenario outcome from a finished maximize search.

    Verdict fields mirror the decision path's shape — ``threshold`` and
    ``believed_min_cost`` describe the *witness at I\\** — so downstream
    consumers (cache verification, trace totals, renderers) keep their
    arithmetic; the search-specific bracket lives in ``max_impact``.
    """
    source = result.witness_report or result.last_report
    _apply_result(outcome, result, None if result.last_report is None
                  else result.last_report.numeric_reason)
    if not result.is_rejected:
        # Partial brackets are worth keeping on unknown/cert-error
        # outcomes too (they are never cached).
        outcome.max_impact = result.to_dict()
        outcome.base_cost = str(result.base_cost)
        bound = result.lower_bound if result.satisfiable \
            else result.upper_bound
        if bound is not None:
            outcome.threshold = str(
                result.base_cost * (1 + bound / 100))
    if result.witness_cost is not None:
        outcome.believed_min_cost = str(result.witness_cost)
    if result.witness_report is not None and \
            result.witness_report.achieved_increase_percent is not None:
        outcome.achieved_increase_percent = float(
            result.witness_report.achieved_increase_percent)
    if source is not None and source.trace is not None:
        trace = source.trace.to_dict()
        trace.setdefault("session", {})["search"] = {
            "mode": "maximize",
            "status": result.status,
            "solve_at_calls": result.solve_at_calls,
            "solver_calls": result.solver_calls,
            "encodings_built": result.encodings_built,
            "warm_solves": result.warm_solves,
            "lower_bound": None if result.lower_bound is None
            else str(result.lower_bound),
            "upper_bound": None if result.upper_bound is None
            else str(result.upper_bound),
            "tolerance": str(result.tolerance),
        }
        outcome.trace = trace
    outcome.task_seconds = time.perf_counter() - started
    return outcome


def plan_units(specs: Sequence[ScenarioSpec], pending: Sequence[int],
               chunks: int = 1,
               max_cells: Optional[int] = None) -> List[List[int]]:
    """Group pending scenario indices into warm execution units.

    Scenarios with equal :meth:`ScenarioSpec.encoding_group` keys (same
    resolved case, analyzer kind and state-infection flag) are batched so
    one warm analyzer serves them all.  Each group is split into at most
    ``chunks`` pieces (the sweep engine passes its worker count so
    grouping never *reduces* parallelism), and ``max_cells`` additionally
    caps the unit size — the distributed fabric uses that to keep lease
    durations bounded.
    """
    groups: Dict[str, List[int]] = {}
    order: List[str] = []
    for idx in pending:
        try:
            key = specs[idx].encoding_group()
        except Exception:
            # An unresolvable spec cannot be grouped; run it alone so
            # its error surfaces as its own outcome.
            key = f"solo:{idx}"
        if key not in groups:
            groups[key] = []
            order.append(key)
        groups[key].append(idx)
    units: List[List[int]] = []
    for key in order:
        members = groups[key]
        pieces = max(1, min(max(1, chunks), len(members)))
        size = -(-len(members) // pieces)   # ceil division
        if max_cells is not None:
            size = max(1, min(size, max_cells))
        for start in range(0, len(members), size):
            units.append(members[start:start + size])
    return units


def build_analyzer(case, kind: str, warm: bool = False):
    """The analyzer a resolved case runs on (warm = incremental SMT)."""
    if kind == "smt":
        return ImpactAnalyzer(case, incremental=warm)
    return FastImpactAnalyzer(case)


def execute_with_analyzer(spec: ScenarioSpec, fingerprint: str,
                          analyzer, kind: str,
                          budget: Optional[SolverBudget] = None,
                          self_check: Optional[bool] = None,
                          started: Optional[float] = None,
                          outcome: Optional[ScenarioOutcome] = None
                          ) -> ScenarioOutcome:
    """Run one scenario on an already-built (possibly warm) analyzer.

    The shared execution core behind the unit runner and the
    analysis-service workers: runs the spec's decision or maximize
    query and maps the result (or an escaping exception) onto the
    outcome instead of letting it escape.
    """
    if started is None:
        started = time.perf_counter()
    if outcome is None:
        outcome = ScenarioOutcome(spec=spec, fingerprint=fingerprint,
                                  worker_pid=os.getpid())
    try:
        if budget is not None:
            budget.start()
        if spec.search == "maximize":
            result = _run_max_impact(spec, kind, analyzer, budget,
                                     self_check)
            return _outcome_from_max_result(outcome, result, started)
        report = analyzer.analyze(
            _analysis_query(spec, kind, budget, self_check))
    except Exception as exc:
        return outcome_from_exception(outcome, exc, started)
    return _outcome_from_report(outcome, report, started)


def run_unit(specs: Sequence[ScenarioSpec],
             fingerprints: Optional[Sequence[str]] = None,
             cache: Optional[ResultCache] = None,
             budget_limits: Optional[Dict[str, Any]] = None,
             self_check: Optional[bool] = None,
             sessions=None) -> Iterator[ScenarioOutcome]:
    """Run one execution unit, yielding each outcome as it finishes.

    The one unit runner of every front end: the serial sweep, the
    supervised sweep and service workers, and the fabric worker.  Per
    cell it

    1. arms a *fresh* budget built from ``budget_limits`` (so the
       deadline covers fingerprinting and case build too);
    2. plans the cell: without ``fingerprints`` the runner fingerprints
       the spec itself (:func:`plan_grid` — a case text that does not
       parse becomes a rejection, and the fingerprint is always the one
       of the spec actually analysed); with them, the caller's are
       trusted.  A verified cache hit (:func:`read_through`) is served;
    3. takes an analyzer — from ``sessions`` (a
       :class:`~repro.service.worker.SessionPool`, keyed by encoding
       group) when given, else one built for the unit: warm when the
       unit has more than one cell or the cell is a maximize search
       (which re-solves one encoding at many thresholds), so a single
       decision cell stays on the cold single-shot path;
    4. runs :func:`execute_with_analyzer` and checkpoints the outcome
       the moment it finishes, so an interrupt loses only the cell in
       flight.

    Verdicts are deterministic either way; SAT *witness vectors* may
    depend on the warm solver's accumulated learned clauses (any model
    is valid, and certified mode re-checks each one independently).
    """
    certify = self_check_default(self_check)
    analyzer = None
    for position, spec in enumerate(specs):
        started = time.perf_counter()
        budget = SolverBudget.from_dict(budget_limits) \
            if budget_limits else None
        if budget is not None:
            budget.start()
        if fingerprints is None:
            grid = plan_grid([spec], cache, certify)
            fingerprint, resolved = grid.fingerprints[0], grid.outcomes[0]
            if resolved is not None and not resolved.cache_hit:
                # Rejected or failed while fingerprinting.
                resolved.worker_pid = os.getpid()
                resolved.task_seconds = time.perf_counter() - started
        else:
            fingerprint = fingerprints[position]
            resolved = read_through(cache, fingerprint, spec, certify)[0]
        if resolved is not None:
            yield resolved
            continue
        outcome = ScenarioOutcome(spec=spec, fingerprint=fingerprint,
                                  worker_pid=os.getpid())
        group = None
        try:
            case = spec.resolve_case()
            kind = spec.resolved_analyzer(case)
            if sessions is not None:
                group = spec.encoding_group(case)
                analyzer, kind = sessions.acquire(group, case, kind)
            elif analyzer is None:
                analyzer = build_analyzer(
                    case, kind,
                    warm=len(specs) > 1 or spec.search == "maximize")
        except InputFormatError as exc:
            # A deterministic verdict about the input, not a runtime
            # failure: reject with a structured diagnostic.
            outcome = _rejected_outcome(
                spec, fingerprint, parse_failure_report(spec.case, exc))
            outcome.worker_pid = os.getpid()
            outcome.task_seconds = time.perf_counter() - started
        except Exception as exc:
            outcome = outcome_from_exception(outcome, exc, started)
        else:
            outcome = execute_with_analyzer(
                spec, fingerprint, analyzer, kind, budget, self_check,
                started=started, outcome=outcome)
        if outcome.status == ERROR:
            # The warm solver state may be mid-scope after an arbitrary
            # failure; rebuild for the remaining scenarios.
            analyzer = None
            if group is not None:
                sessions.invalidate(group)
        checkpoint(cache, fingerprint, outcome)
        yield outcome


def execute_scenario(spec: ScenarioSpec, fingerprint: str = "",
                     budget: Optional[SolverBudget] = None,
                     self_check: Optional[bool] = None
                     ) -> ScenarioOutcome:
    """Run one scenario in-process and uncached: a one-cell unit."""
    limits = budget.to_dict() if budget is not None else None
    return next(run_unit([spec], [fingerprint], budget_limits=limits,
                         self_check=self_check))


def _verify_cached_max_impact(outcome: ScenarioOutcome,
                              spec: ScenarioSpec, base: Fraction,
                              threshold: Fraction) -> None:
    """Semantic re-verification of a cached maximize outcome.

    The bracket must parse, respect the spec's anchor and tolerance, and
    agree with the verdict fields mirrored onto the outcome; any
    inconsistency raises :class:`ValueError` (a cache miss upstream).
    """
    payload = outcome.max_impact
    if not isinstance(payload, dict):
        raise ValueError(
            "cached maximize outcome has no max_impact payload")
    status = payload.get("status")
    if status not in ("complete", "capped"):
        raise ValueError(
            f"cached maximize outcome has non-definitive search "
            f"status {status!r}")
    try:
        tolerance = Fraction(payload["tolerance"])
        lower = None if payload.get("lower_bound") is None \
            else Fraction(payload["lower_bound"])
        upper = None if payload.get("upper_bound") is None \
            else Fraction(payload["upper_bound"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"cached max_impact bounds unparsable: {exc}")
    if tolerance != (spec.tolerance_fraction() or DEFAULT_TOLERANCE):
        raise ValueError(
            "cached max_impact tolerance disagrees with the spec")
    anchor = spec.target_fraction() or Fraction(0)
    if bool(outcome.satisfiable) != (lower is not None):
        raise ValueError(
            "cached maximize verdict disagrees with its bounds")
    if lower is not None:
        if lower < anchor:
            raise ValueError(
                "cached max_impact lower bound is below the spec anchor")
        if threshold != base * (1 + lower / 100):
            raise ValueError(
                "cached maximize threshold is inconsistent with I*")
        if outcome.believed_min_cost is None:
            raise ValueError("cached sat maximize outcome has no "
                             "believed cost")
        try:
            believed = Fraction(outcome.believed_min_cost)
        except (TypeError, ValueError) as exc:
            raise ValueError(
                f"cached believed cost is unparsable: {exc}")
        if float(believed) < float(threshold) * (1 - 1e-6) - 1e-9:
            raise ValueError(
                "cached maximize witness cost is below its threshold")
        if outcome.achieved_increase_percent is not None:
            expected = float((believed / base - 1) * 100)
            if abs(outcome.achieved_increase_percent - expected) > 1e-6:
                raise ValueError(
                    "cached achieved-increase disagrees with its costs")
        if status == "complete" and (upper is None
                                     or upper - lower > tolerance):
            raise ValueError(
                "cached complete maximize bracket is wider than its "
                "tolerance")
        if status == "capped" and upper is not None:
            raise ValueError(
                "cached capped maximize outcome carries an upper bound")
    else:
        if status != "complete" or upper is None or upper != anchor:
            raise ValueError(
                "cached unsat maximize outcome must close the bracket "
                "at its anchor")
        if threshold != base * (1 + upper / 100):
            raise ValueError(
                "cached maximize threshold is inconsistent with the "
                "anchor bound")
        if outcome.believed_min_cost is not None:
            raise ValueError(
                "cached unsat maximize outcome carries a believed cost")


def verify_cached_outcome(outcome: ScenarioOutcome, spec: ScenarioSpec,
                          require_certified: bool = False) -> None:
    """Re-verify a cache-served outcome before trusting it.

    Structural validation (:meth:`ScenarioOutcome.from_dict`) already ran;
    this checks the *semantics*: the recorded numbers must be internally
    consistent with the spec's query, and in certified mode the outcome
    must have been produced with its certificates verified.  Raises
    :class:`ValueError` on any inconsistency — the engine treats that as
    a cache miss and recomputes.
    """
    if outcome.status in REJECTED_STATUSES:
        # Structural validation already guaranteed fatal diagnostics
        # matching the status; re-run preflight on the resolved case so a
        # stale rejection (case since repaired, or aliased) is recomputed
        # instead of served.  Preflight involves no solver answers, so
        # certified sweeps may serve rejections too.
        try:
            case = spec.resolve_case()
        except InputFormatError:
            raise ValueError(
                "cached rejection is for a case that no longer parses")
        report = validate_case(case, observability=False)
        if report.fatal_status() != outcome.status:
            raise ValueError(
                f"cached {outcome.status} rejection no longer matches "
                f"preflight (now {report.fatal_status()!r})")
        return
    if outcome.status == NUMERICAL_UNSTABLE:
        # Deterministic for a given case and numerics policy — and the
        # active policy is part of the fingerprint, so a threshold change
        # misses the cache instead of serving a stale refusal.  The
        # numeric reason is guaranteed by structural validation; costs
        # may legitimately be absent or zero (the guard can refuse
        # before the base OPF exists).  No solver answer is involved, so
        # certified sweeps may serve these like rejections.
        if outcome.satisfiable is True:
            raise ValueError(
                "cached numerical_unstable outcome claims a verdict")
        return
    if outcome.status != OK:
        raise ValueError(
            f"cached outcome has non-definitive status {outcome.status!r}")
    if outcome.satisfiable is None:
        raise ValueError("cached ok outcome has no verdict")
    try:
        base = Fraction(outcome.base_cost)
        threshold = Fraction(outcome.threshold)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"cached outcome has unparsable costs: {exc}")
    if base <= 0:
        raise ValueError(f"cached base cost {base} is not positive")
    if spec.search == "maximize":
        _verify_cached_max_impact(outcome, spec, base, threshold)
        if require_certified and outcome.certified is not True:
            raise ValueError(
                "certified sweep: cached outcome was not produced with "
                "certificates verified")
        return
    target = spec.target_fraction()
    if target is not None and threshold != base * (1 + target / 100):
        raise ValueError(
            "cached threshold is inconsistent with the spec's target")
    if outcome.satisfiable:
        if outcome.believed_min_cost is None:
            raise ValueError("cached sat outcome has no believed cost")
        try:
            believed = Fraction(outcome.believed_min_cost)
        except (TypeError, ValueError) as exc:
            raise ValueError(
                f"cached believed cost is unparsable: {exc}")
        # The fast analyzer's believed cost travels through floats, so
        # allow the same relative slack its certification uses.
        if float(believed) < float(threshold) * (1 - 1e-6) - 1e-9:
            raise ValueError(
                "cached sat outcome's believed cost is below threshold")
        if outcome.achieved_increase_percent is not None:
            expected = float((believed / base - 1) * 100)
            if abs(outcome.achieved_increase_percent - expected) > 1e-6:
                raise ValueError(
                    "cached achieved-increase disagrees with its costs")
    elif outcome.believed_min_cost is not None:
        # Definitive unsat outcomes carry no believed cost (partial ones
        # do, but those are never cached): a leftover cost means the
        # verdict was rewritten in place.
        raise ValueError("cached unsat outcome carries a believed cost")
    if require_certified and outcome.certified is not True:
        raise ValueError(
            "certified sweep: cached outcome was not produced with "
            "certificates verified")


def read_through(cache: Optional[ResultCache], fingerprint: str,
                 spec: ScenarioSpec, certify: bool
                 ) -> Tuple[Optional[ScenarioOutcome], bool]:
    """A verified cache hit for one cell: ``(hit or None, rejected)``.

    Every cache consumer reads through here.  A cached payload is served
    only if it rebuilds (:meth:`ScenarioOutcome.from_dict`) and passes
    :func:`verify_cached_outcome` (``certify``: certified outcomes only);
    a malformed, stale or semantically inconsistent entry is a miss with
    ``rejected`` set, so the caller can count it — the cell recomputes
    and its checkpoint overwrites the bad entry.
    """
    payload = cache.get(fingerprint) \
        if cache is not None and fingerprint else None
    if payload is None:
        return None, False
    try:
        outcome = ScenarioOutcome.from_dict(payload)
        verify_cached_outcome(outcome, spec, require_certified=certify)
    except ValueError:
        return None, True
    outcome.cache_hit = True
    return outcome, False


def checkpoint(cache: Optional[ResultCache], fingerprint: str,
               outcome: ScenarioOutcome) -> None:
    """Admit an outcome to the cache if :attr:`~ScenarioOutcome.cacheable`.

    A failed write (full disk, permissions) does not raise: it degrades
    to the outcome's ``cache_write_error``.
    """
    if cache is None or not fingerprint or not outcome.cacheable:
        return
    error = cache.try_put(fingerprint, outcome.to_dict())
    if error is not None:
        outcome.cache_write_error = error


@dataclass
class GridPlan:
    """A planned grid: per-cell fingerprints, the cells resolved without
    a solver, and execution units (lists of indices) over the rest."""

    fingerprints: List[str]
    outcomes: List[Optional[ScenarioOutcome]]
    units: List[List[int]]
    #: cells served by verified cache hits.
    cache_hits: int = 0
    #: cache entries that failed re-verification (recomputed instead).
    cache_rejected: int = 0


def plan_grid(specs: Sequence[ScenarioSpec],
              cache: Optional[ResultCache], certify: bool,
              partition: Optional[Callable[[Sequence[ScenarioSpec],
                                            List[int]],
                                           List[List[int]]]] = None,
              known: Optional[Mapping[int, ScenarioOutcome]] = None
              ) -> GridPlan:
    """Plan a grid: the one prelude of the sweep, fabric and service.

    Per cell: fingerprinting resolves the case, so a case text that does
    not parse becomes a rejection (no fingerprint, hence never cached)
    and any other failure (unknown case name, ...) an ``error`` outcome
    instead of aborting the grid; a cell still open takes its ``known``
    outcome (the fabric's journal-recovered cells) or else a verified
    cache hit (:func:`read_through`).  ``partition(specs, pending)``
    splits the remaining indices into units (default: one cell each).
    """
    known = known or {}
    plan = GridPlan(fingerprints=[], outcomes=[], units=[])
    for idx, spec in enumerate(specs):
        fingerprint, outcome = "", None
        try:
            fingerprint = spec.fingerprint()
        except InputFormatError as exc:
            outcome = _rejected_outcome(
                spec, "", parse_failure_report(spec.case, exc))
        except Exception as exc:
            outcome = ScenarioOutcome(spec=spec, fingerprint="",
                                      status=ERROR,
                                      error=_exception_text(exc))
        if outcome is None:
            outcome = known.get(idx)
        if outcome is None:
            outcome, stale = read_through(cache, fingerprint, spec,
                                          certify)
            plan.cache_hits += outcome is not None
            plan.cache_rejected += stale
        plan.fingerprints.append(fingerprint)
        plan.outcomes.append(outcome)
    pending = [idx for idx, outcome in enumerate(plan.outcomes)
               if outcome is None]
    plan.units = partition(specs, pending) if partition is not None \
        else [[idx] for idx in pending]
    return plan


class SweepEngine:
    """Runs scenario grids with caching, parallelism and retry."""

    def __init__(self, config: Optional[SweepConfig] = None,
                 cache: Optional[ResultCache] = None) -> None:
        self.config = config or SweepConfig()
        #: injectable for tests (e.g. a cache whose writes fail); serial
        #: runs use it as is, supervised workers open its directory.
        self._cache = cache

    # -- public API -----------------------------------------------------

    def run(self, specs: Sequence[ScenarioSpec]) -> SweepTrace:
        started = time.perf_counter()
        config = self.config
        if self._cache is not None:
            cache = self._cache if config.use_cache else None
        else:
            cache = ResultCache(config.cache_dir) \
                if config.use_cache and config.cache_dir else None
        plan = plan_grid(specs, cache, self_check_default(config.self_check),
                         self._plan_units)
        workers = 1
        if config.workers > 1 and len(plan.units) > 1:
            workers = self._run_supervised(specs, plan, cache)
        else:
            self._run_serial(specs, plan, cache)

        return SweepTrace(
            outcomes=[o for o in plan.outcomes if o is not None],
            wall_seconds=time.perf_counter() - started,
            workers=workers,
            mode="parallel" if workers > 1 else "serial",
            cache_dir=str(cache.root) if cache else None,
            cache_rejected=plan.cache_rejected)

    # -- unit planning ----------------------------------------------------

    def _plan_units(self, specs: Sequence[ScenarioSpec],
                    pending: Sequence[int]) -> List[List[int]]:
        """Execution units for this engine (see :func:`plan_units`)."""
        return plan_units(specs, pending,
                          chunks=max(1, self.config.workers))

    # -- task plumbing ---------------------------------------------------

    def _task_budget(self) -> Optional[Dict[str, Any]]:
        """Per-task budget limits (a fresh budget is built per task)."""
        config = self.config
        limits = dict(config.budget.to_dict()) \
            if config.budget is not None else {}
        if config.task_timeout is not None:
            wall = limits.get("wall_seconds")
            limits["wall_seconds"] = config.task_timeout if wall is None \
                else min(wall, config.task_timeout)
        return limits or None

    def _unit_payload(self, unit: Sequence[int], specs,
                      fingerprints) -> Dict[str, Any]:
        """The job a supervised worker runs for one unit."""
        payload: Dict[str, Any] = {
            "specs": [specs[idx].to_dict() for idx in unit],
            "fingerprints": [fingerprints[idx] for idx in unit]}
        budget = self._task_budget()
        if budget is not None:
            payload["budget"] = budget
        if self.config.self_check is not None:
            payload["self_check"] = self.config.self_check
        return payload

    def _parse_unit_payloads(self, unit, payloads, specs,
                             fingerprints) -> List[ScenarioOutcome]:
        """Outcomes of a finished unit; ERROR outcomes on bad payloads."""
        try:
            if len(payloads) != len(unit):
                raise ValueError(
                    f"unit returned {len(payloads)} outcomes for "
                    f"{len(unit)} scenarios")
            return [ScenarioOutcome.from_dict(p) for p in payloads]
        except Exception as exc:
            message = _exception_text(exc)
            return [ScenarioOutcome(
                spec=specs[idx], fingerprint=fingerprints[idx],
                status=ERROR, error=message) for idx in unit]

    def _settle(self, specs, plan: GridPlan, unit: Sequence[int],
                job) -> List[ScenarioOutcome]:
        """The per-cell outcomes a finished supervisor job came to.

        A job whose every attempt failed turns each of its cells into
        ``timeout`` (the last attempt hung past the kill horizon) or
        ``crashed`` (it died); either way ``attempts`` is the job's.
        """
        if job.failure is None:
            outcomes = self._parse_unit_payloads(
                unit, (job.result or {}).get("outcomes"), specs,
                plan.fingerprints)
        else:
            code, message = job.failure
            if code != "worker_failed":
                status, error = ERROR, message
            elif job.hung:
                status, error = TIMEOUT, \
                    f"exceeded {self.config.task_timeout}s task budget"
            else:
                status, error = CRASHED, message
            outcomes = [ScenarioOutcome(
                spec=specs[idx], fingerprint=plan.fingerprints[idx],
                status=status, error=error) for idx in unit]
        for outcome in outcomes:
            outcome.attempts = job.attempts
        return outcomes

    # -- execution strategies -------------------------------------------

    def _run_serial(self, specs, plan: GridPlan,
                    cache: Optional[ResultCache]) -> None:
        """In-process: each cell is checkpointed the moment it finishes,
        so an interrupt (KeyboardInterrupt deliberately propagates)
        loses only the cell in flight and the sweep resumes from the
        cache."""
        for unit in plan.units:
            outcomes = run_unit([specs[idx] for idx in unit],
                                [plan.fingerprints[idx] for idx in unit],
                                cache, self._task_budget(),
                                self.config.self_check)
            for idx, outcome in zip(unit, outcomes):
                plan.outcomes[idx] = outcome

    def _run_supervised(self, specs, plan: GridPlan,
                        cache: Optional[ResultCache]) -> int:
        """Run every unit as one job on a
        :class:`~repro.service.supervisor.Supervisor`; returns the
        number of workers it ran.

        Workers checkpoint each cell as it finishes.  A unit whose
        worker dies or hangs is re-dispatched up to ``retries`` times;
        with ``task_timeout`` t, a unit of k cells is hard-killed after
        t × 1.25 × k + 0.25 s (each cell's own in-solver deadline is t,
        so a solver-bound cell comes back ``unknown`` first), and
        without one it is never killed.
        """
        from repro.service.supervisor import ServiceConfig, Supervisor
        config = self.config
        supervisor = Supervisor(ServiceConfig(
            workers=min(config.workers, len(plan.units)),
            queue_limit=len(plan.units),
            hang_grace=0.25,
            retry_limit=config.retries,
            cache_dir=str(cache.root) if cache is not None else None,
            use_cache=cache is not None,
            self_check=config.self_check)).start()
        try:
            jobs = [supervisor.submit_unit(
                self._unit_payload(unit, specs, plan.fingerprints),
                config.task_timeout) for unit in plan.units]
            for unit, job in zip(plan.units, jobs):
                supervisor.wait(job)
                for idx, outcome in zip(unit, self._settle(specs, plan,
                                                           unit, job)):
                    plan.outcomes[idx] = outcome
        finally:
            supervisor.stop()
        return supervisor.config.workers
