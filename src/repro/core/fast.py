"""Scalable impact analysis (paper Section IV-A enhancements).

The full SMT model becomes costly past ~14 buses (the paper reports the
same), so this analyzer restricts attention to *single-line* exclusion or
inclusion attacks — exactly the restriction the paper adopts for its
LODF/LCDF evaluation — and exploits problem structure:

* For a pure (no state infection) single-line attack the believed-load
  vector is a **one-parameter family**: both endpoint loads shift by the
  attacked line's flow ``f``.  The Eq.-36 load windows of the two
  endpoint buses bound ``f`` without any LP, so a candidate whose
  endpoint carries no load is dropped before anything is solved.  The
  attacker-reachable range of ``f`` is an interval: at most two LPs (min
  and max ``f``) over the case's operating polytope, which is built once
  per case.  Only the part of that range inside the window W (both load
  windows and the line capacity) is used, so an LP runs only while its
  result can still matter: a closed-form bound over the generator box
  and power balance (a continuous knapsack) settles a range lying
  wholly outside W with no LP, and otherwise the extreme on the side W
  cuts is solved first and, when it already misses W, settles it
  alone.  The believed system's feasible set of ``f`` is an interval too
  and the believed optimal cost is convex in ``f``, so the worst case
  sits on a boundary of that set.  A feasible endpoint is its own
  boundary; only toward an infeasible endpoint is the boundary located
  by bisection.  Each distinct ``f`` costs one OPF solve.

* OPF evaluations use the PTDF-based formulation with LODF/LCDF
  corrections (:class:`~repro.opf.shift_factor.ShiftFactorOpf`), so the
  network matrices are factored once per case.

* With state infection the believed loads gain extra degrees of freedom;
  the analyzer samples seeded vertices of the believed-load box
  (worst cases of a convex function lie on the boundary) and validates
  each sample against the attacker model by reconstructing the required
  state shift and measurement alterations.

:class:`FastImpactAnalyzer` holds the search: candidate enumeration and
evaluation.  Preflight, budgets, certificate bookkeeping, run notes and
report assembly live once in its base class
:class:`repro.core.session.AnalysisSession`, which calls the search
through its hooks.  It answers the shared
:class:`~repro.core.session.ImpactQuery` and refuses, with
:class:`~repro.exceptions.ModelError`, the two fields it cannot honour:
``allow_topology_attack=False`` (it enumerates topology attacks only)
and ``verify_with_smt_opf=True`` (it has no SMT OPF model).  Its one
independent re-solve (:meth:`FastImpactAnalyzer._independent_opf`)
serves both the Eq. 37 boundary escalation and the certified recheck.
Everything that depends on the grid alone lives in a :class:`GridKernel`:
the PTDF pipeline, the attack-free OPF, the operating polytope and the
memos of reachable flow ranges, per-candidate maxima and the attack-free
operating point.  None of it depends on the target or on the attacker,
so the kernel keeps it across the queries of one analyzer and across the
analyzers of one grid: a
:class:`~repro.runner.engine.SessionPool` hands one kernel to every
fast analyzer whose grid is equal (:meth:`GridKernel.key`), so a sweep
over attacker scenarios solves each grid's LPs once per worker.  The
analyzer keeps only what depends on the attacker.  Its
``encode_seconds`` is the kernel build, paid by the analyzer that built
the kernel, on its first query.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

import numpy as np
from scipy.optimize import linprog

from repro.attacks.model import AttackerModel
from repro.attacks.topology_poisoning import (
    craft_topology_attack,
    validate_against_attacker,
)
from repro.core.results import CandidateEvaluation, ImpactReport
from repro.core.session import AnalysisSession, ImpactQuery, SearchOutcome
from repro.exceptions import CertificateError, ModelError
from repro.grid.caseio import CaseDefinition
from repro.grid.matrices import state_order
from repro.numerics import collect_diagnostics, default_policy
from repro.opf.dcopf import DcOpfResult, solve_dc_opf
from repro.opf.shift_factor import ShiftFactorOpf, TopologyChange
from repro.smt.rational import to_fraction

#: relative tolerance of the certified-mode cost recheck: the fast
#: analyzer's PTDF pipeline and the independent B-theta re-solve travel
#: different float paths, so bit-exact agreement is not expected.
_CERT_REL_TOL = 1e-6
#: absolute slack on Eq.-36 load-bound checks (believed loads are rounded
#: to 6 decimals when packed into the report).
_CERT_LOAD_TOL = 1e-5
#: a range bound settles a candidate only when it misses the flow window
#: by more than this times ``1 + ||c||_1``.  A solved extreme overshoots
#: the true one by at most HiGHS's primal feasibility tolerance (1e-7)
#: times ``||c||_1``, so no skipped LP could have reached the window.
_RANGE_MARGIN = 1e-6
#: the usable flow interval of a candidate whose range misses its window.
_EMPTY_RANGE = (np.inf, -np.inf)
#: how closely (in p.u. of flow) bisection locates the boundary of a
#: candidate's feasible believed-flow interval.
BISECTION_TOLERANCE = 1e-4


def box_balance_extremes(c: np.ndarray, low: np.ndarray, high: np.ndarray,
                         total: float) -> Tuple[float, float]:
    """Min and max of ``c @ x`` over ``low <= x <= high, sum(x) == total``.

    A continuous knapsack: from ``x = low`` the remaining ``total -
    sum(low)`` is poured into the largest coefficients first (the
    smallest, for the minimum).  Any further constraint only shrinks
    the set, so the pair bounds ``c @ x`` over the operating polytope.
    """
    def maximum(coef: np.ndarray) -> float:
        order = np.argsort(-coef, kind="stable")
        width = (high - low)[order]
        poured = np.clip(total - low.sum() - (np.cumsum(width) - width),
                         0.0, width)
        return float(coef @ low + coef[order] @ poured)

    return -maximum(-c), maximum(c)


class GridKernel:
    """The grid-only half of the fast path, shared by every analyzer of
    one grid.

    It holds the PTDF pipeline (:class:`ShiftFactorOpf` and its topology
    caches), the attack-free OPF, the existing loads, the operating
    polytope with its generator box and total demand, and the memos of
    reachable flow ranges and interval maxima per ``(kind, line)`` and
    of the attack-free operating point.  It reads the buses, the lines
    with their true status, the generators, the loads and the reference
    bus, and no attacker field, so :meth:`key` is exactly that.

    A kernel whose build emitted numerical warnings is ``warned``: it
    serves the analyzer that built it and is never shared, so a second
    analyzer of the grid builds its own and sees the same warnings a
    fresh one does.  A build that raises leaves no kernel.
    """

    def __init__(self, grid) -> None:
        self.grid = grid
        with collect_diagnostics() as warnings:
            self.base_topology = [l.index for l in grid.lines
                                  if l.in_service]
            self.sf_opf = ShiftFactorOpf(grid, self.base_topology)
            self.base = self.sf_opf.solve()
            self.existing_loads: Dict[int, float] = {
                bus: float(load.existing)
                for bus, load in grid.loads.items()}
            self.demand, self.operating_lp = self._operating_polytope()
            self.gen_low, self.gen_high = \
                np.array(self.operating_lp["bounds"]).reshape(-1, 2).T
            self.total_demand = float(self.operating_lp["b_eq"][0])
        self.warned = bool(warnings)
        # Target- and attacker-independent results (see
        # FastImpactAnalyzer._memoised): reachable flow ranges and
        # interval maxima per (kind, line), and the attack-free B-theta
        # operating point state sampling starts from.
        self.ranges: Dict[Tuple[str, int],
                          Optional[Tuple[float, float]]] = {}
        self.maxima: Dict[Tuple[str, int],
                          Optional[Tuple[float, Fraction, Dict]]] = {}
        self.operating_point: Dict = {}

    @staticmethod
    def key(case: CaseDefinition) -> Tuple:
        """Every case field the kernel reads, and the numerics policy
        its guarded solves ran under; no attacker field."""
        lines = tuple((s.index, s.from_bus, s.to_bus, s.admittance,
                       s.capacity, s.in_true_topology)
                      for s in case.line_specs)
        return (tuple(case.bus_types), lines, tuple(case.generators),
                tuple(case.loads), case.reference_bus,
                default_policy().key())

    def _operating_polytope(self) -> Tuple[np.ndarray, Dict]:
        """The existing demand vector and the ``linprog`` constraints of
        the case's feasible operating points over generator outputs:
        every base-topology line capacity, power balance and dispatch
        limits at that demand."""
        grid = self.grid
        factors = self.sf_opf.factors
        demand = np.zeros(grid.num_buses)
        for load in grid.loads.values():
            demand[load.bus - 1] = float(load.existing)
        M = self.sf_opf.gen_flow_matrix()
        base = factors.flows_for_injections(-demand)
        capacities = np.array([float(grid.line(i).capacity)
                               for i in factors.lines])
        gens = self.sf_opf.gen_buses
        lp = {"A_ub": np.vstack([M, -M]),
              "b_ub": np.concatenate([capacities - base, capacities + base]),
              "A_eq": np.ones((1, len(gens))),
              "b_eq": np.array([float(demand.sum())]),
              "bounds": [(float(grid.generators[b].p_min),
                          float(grid.generators[b].p_max)) for b in gens],
              "method": "highs"}
        return demand, lp


class FastImpactAnalyzer(AnalysisSession):
    """Single-line topology-attack impact analysis at IEEE-118 scale.

    The LODF/LCDF candidate enumeration on an :class:`AnalysisSession`.
    The grid-only state lives in :attr:`kernel`, a :class:`GridKernel`:
    *kernel* when given (a :class:`~repro.runner.engine.SessionPool`
    passes the one of an equal grid), else built in :meth:`prepare`;
    either way it is reused across :meth:`analyze` calls.  The analyzer
    itself keeps the attacker and the per-query counters.
    """

    kind = "fast"

    def __init__(self, case: CaseDefinition, preflight: bool = True,
                 kernel: Optional[GridKernel] = None) -> None:
        self.kernel = kernel
        #: the kernel came from a pool: its build was another analyzer's.
        self._kernel_shared = kernel is not None
        self._build_seconds = 0.0
        self.evaluations: List[CandidateEvaluation] = []
        self.attacker: Optional[AttackerModel] = None
        self._analyses = 0
        self._opf_calls_before = 0
        self._opf_seconds_before = 0.0
        super().__init__(case, preflight=preflight)

    # Kept in this class's own namespace: profilers patch
    # ``FastImpactAnalyzer.analyze`` to time the fast path, and
    # ``solve_at`` reaches it through ``self.analyze``.
    def analyze(self, query: Optional[ImpactQuery] = None) -> ImpactReport:
        return super().analyze(query)

    # ------------------------------------------------------------------
    # Search hooks
    # ------------------------------------------------------------------

    def prepare(self) -> None:
        """Build the attacker model and, unless a kernel was handed in,
        the grid kernel (PTDF pipeline and attack-free OPF).

        A :class:`~repro.exceptions.ModelError` propagates to the session
        (→ ``case.model_error`` rejection); an infeasible base OPF is
        reported through :meth:`AnalysisSession.note_base_infeasible`.
        """
        case, grid = self.case, self.grid
        self.attacker = AttackerModel.from_case(case, grid)
        if self.kernel is None:
            started = time.perf_counter()
            self.kernel = GridKernel(grid)
            self._build_seconds = time.perf_counter() - started
        if not self.kernel.base.feasible:
            self.note_base_infeasible(
                f"case {case.name}: attack-free OPF is infeasible")

    @property
    def base_cost(self) -> Fraction:
        base = self.kernel.base if self.kernel is not None else None
        return base.cost if base is not None and base.feasible \
            else Fraction(0)

    def validate_query(self, query: ImpactQuery) -> None:
        if not query.allow_topology_attack:
            raise ModelError("the fast analyzer searches single-line "
                             "topology attacks only; "
                             "allow_topology_attack=False needs the SMT "
                             "analyzer")
        if query.verify_with_smt_opf:
            raise ModelError("the fast analyzer has no SMT OPF model; "
                             "verify_with_smt_opf needs the SMT analyzer")

    def begin(self, query: ImpactQuery, threshold: Fraction) -> None:
        self.evaluations = []
        self._analyses += 1
        self._opf_calls_before = self.kernel.sf_opf.solve_calls
        self._opf_seconds_before = self.kernel.sf_opf.solve_seconds

    def search(self, query: ImpactQuery,
               threshold: Fraction) -> SearchOutcome:
        budget = query.budget
        status = "complete"
        budget_reason: Optional[str] = None
        best: Optional[CandidateEvaluation] = None
        candidates = [("exclude", i)
                      for i in self.attacker.exclusion_candidates()]
        candidates += [("include", i)
                       for i in self.attacker.inclusion_candidates()]
        with collect_diagnostics() as search_warnings:
            for kind, line_index in candidates:
                if budget is not None and budget.exhausted():
                    status = "budget_exhausted"
                    budget_reason = budget.exhausted_reason
                    break
                evaluation = self._evaluate_candidate(
                    kind, line_index, query)
                self.evaluations.append(evaluation)
                self.candidates_examined += 1
                if evaluation.best_increase_percent is None:
                    continue
                if best is None or (evaluation.best_increase_percent
                                    > best.best_increase_percent):
                    best = evaluation

        # The threshold encodes the target exactly, so this float equals
        # the query's target percentage bit-for-bit.
        target = float((threshold / self.base_cost - 1) * 100)
        # Eq. 37 boundary semantics: reaching the target exactly counts.
        satisfiable = best is not None \
            and best.best_increase_percent >= target
        believed_min: Optional[Fraction] = None
        in_band = best is not None \
            and abs(best.best_increase_percent - target) \
            <= query.escalation_band
        # A verdict computed under ill-conditioning warnings (from the
        # per-case PTDF build or this search's guarded solves) is never
        # trusted either, no matter how far from the boundary it lands.
        suspect = bool(search_warnings) or self.numerically_suspect
        if best is not None and (in_band or suspect):
            # Escalation: the float verdict either sits inside the guard
            # band around the Eq. 37 threshold or was computed on shaky
            # numerics, so it is re-decided on the exact path instead of
            # trusting the last few bits of a float comparison.
            exact = self._exact_verdict(best, threshold)
            if exact is None:
                satisfiable = False
            else:
                satisfiable, believed_min = exact
            self.note_boundary_escalation(
                best.kind, best.line_index, best.best_increase_percent,
                target, satisfiable,
                trigger=None if in_band else
                "was computed under ill-conditioning warnings")
        if satisfiable:
            if believed_min is None:
                believed_min = self.base_cost * to_fraction(
                    1 + best.best_increase_percent / 100)
            from repro.core.encoding import AttackVectorSolution
            solution = AttackVectorSolution(
                excluded=[best.line_index] if best.kind == "exclude" else [],
                included=[best.line_index] if best.kind == "include" else [],
                infected_states=[],
                altered_measurements=best.altered_measurements,
                compromised_buses=sorted(
                    {self.attacker.plan.location_of(m)
                     for m in best.altered_measurements}),
                believed_loads={b: to_fraction(round(v, 6))
                                for b, v in best.believed_loads.items()},
                state_shift={}, operating_dispatch={}, operating_flows={},
                operating_cost=Fraction(0))
            return SearchOutcome(satisfiable=True, solution=solution,
                                 believed_min=believed_min, status=status,
                                 budget_reason=budget_reason)
        return SearchOutcome(satisfiable=False, status=status,
                             budget_reason=budget_reason)

    def _exact_verdict(self, best: CandidateEvaluation,
                       threshold: Fraction
                       ) -> Optional[Tuple[bool, Fraction]]:
        """Re-decide an Eq. 37 boundary verdict on the exact path.

        The best candidate's believed OPF is re-solved with the angle
        formulation — exact rational simplex up to 30 buses, mirroring
        the certified-mode method split — and the threshold comparison
        happens in Fractions, with the same :data:`_CERT_REL_TOL`
        relative slack the certified recheck applies (the candidate's
        loads travelled through the float PTDF pipeline, so demanding
        bit-exact threshold attainment would flip verdicts that
        certification itself accepts).  Returns ``(satisfiable,
        believed_cost)``, or None when the believed OPF is infeasible
        on the independent path (the candidate is then not trusted:
        verdict falls to unsat).
        """
        loads = {bus: to_fraction(round(value, 6))
                 for bus, value in best.believed_loads.items()}
        _, result = self._independent_opf(
            loads, self._believed_topology(best.kind, best.line_index))
        if not result.feasible:
            return None
        satisfiable = result.cost >= threshold \
            or float(result.cost) \
            >= float(threshold) * (1 - _CERT_REL_TOL) - 1e-9
        return bool(satisfiable), to_fraction(result.cost)

    def _independent_opf(self, loads: Dict[int, Fraction],
                         topology: List[int]) -> Tuple[str, DcOpfResult]:
        """``(method, result)`` of the believed OPF re-solved off the
        PTDF pipeline: the B-theta formulation, in exact rationals up to
        30 buses and with HiGHS beyond."""
        method = "exact" if self.grid.num_buses <= 30 else "highs"
        return method, solve_dc_opf(self.grid, loads=loads,
                                    line_indices=topology, method=method)

    # ------------------------------------------------------------------
    # Trace hooks
    # ------------------------------------------------------------------

    def encode_info(self) -> Dict:
        # A pooled kernel was built (and reported) by another analyzer.
        if self._analyses <= 1 and not self._kernel_shared:
            return {"warm": False, "encodings_built": 1,
                    "encode_seconds": self._build_seconds}
        return {"warm": True, "encodings_built": 0,
                "encode_seconds": 0.0}

    def opf_trace(self) -> Dict:
        if self.kernel is None:
            # prepare() degraded before the PTDF pipeline existed (e.g.
            # a numerically unstable susceptance matrix): no solves ran.
            return {"solves": 0, "seconds": 0.0}
        sf_opf = self.kernel.sf_opf
        return {"solves": sf_opf.solve_calls - self._opf_calls_before,
                "seconds": sf_opf.solve_seconds - self._opf_seconds_before}

    # ------------------------------------------------------------------
    # Certified recheck
    # ------------------------------------------------------------------

    def certify_outcome(self, outcome: SearchOutcome,
                        threshold: Fraction) -> None:
        """Independently re-verify a fast-path SAT answer.

        The PTDF/LODF pipeline that found the attack is *not* reused: the
        believed system is re-solved from scratch with the B-theta OPF
        (exact rationals up to 30 buses, HiGHS beyond), and the believed
        topology, Eq.-36 load bounds and threshold claim are re-checked.
        Raises :class:`CertificateError` on any disagreement; counts the
        recheck in the run's certificate stats otherwise.
        """
        started = time.perf_counter()
        solution = outcome.solution
        topology = solution.believed_topology(self.grid)
        if not self.grid.is_connected(topology):
            raise CertificateError(
                "certified recheck: believed topology is disconnected")
        for bus, value in solution.believed_loads.items():
            load = self.grid.loads.get(bus)
            if load is None:
                if abs(float(value)) > _CERT_LOAD_TOL:
                    raise CertificateError(
                        f"certified recheck: believed load at non-load "
                        f"bus {bus}")
                continue
            if float(value) < float(load.p_min) - _CERT_LOAD_TOL \
                    or float(value) > float(load.p_max) + _CERT_LOAD_TOL:
                raise CertificateError(
                    f"certified recheck: believed load at bus {bus} "
                    f"violates Eq. 36 bounds")
        method, result = self._independent_opf(solution.believed_loads,
                                               topology)
        if not result.feasible:
            raise CertificateError(
                "certified recheck: believed OPF is infeasible (Eq. 38)")
        recomputed = float(result.cost)
        claimed = float(outcome.believed_min)
        if abs(recomputed - claimed) > _CERT_REL_TOL * max(
                1.0, abs(claimed)) + 1e-4 * abs(claimed):
            raise CertificateError(
                f"certified recheck: believed optimal cost {claimed:.6f} "
                f"disagrees with independent re-solve {recomputed:.6f}")
        if recomputed < float(threshold) * (1 - _CERT_REL_TOL) - 1e-9:
            raise CertificateError(
                f"certified recheck: re-solved cost {recomputed:.6f} is "
                f"below the threshold {float(threshold):.6f}")
        stats = self._cert_stats
        stats["models_checked"] += 1
        stats["recheck_method"] = method
        stats["recheck_cost"] = recomputed
        stats["seconds"] += time.perf_counter() - started

    # ------------------------------------------------------------------
    # Candidate evaluation
    # ------------------------------------------------------------------

    def _believed_topology(self, kind: str, line_index: int) -> List[int]:
        if kind == "exclude":
            return [i for i in self.kernel.base_topology if i != line_index]
        return self.kernel.base_topology + [line_index]

    def _evaluate_candidate(self, kind: str, line_index: int,
                            query: ImpactQuery) -> CandidateEvaluation:
        # Post-attack revalidation *before* the PTDF/LODF pipeline: a
        # bridge-line exclusion makes the believed susceptance matrix
        # singular, which used to surface as a numpy LinAlgError.  An
        # inclusion only adds a line to the base topology, which
        # prepare() already required to be connected (the PTDF build
        # refuses an islanded base), so only exclusions can island:
        # exactly the base topology's bridges.
        if kind == "exclude" and line_index in self.kernel.sf_opf.bridges:
            self.note_islanding([line_index], [])
            return CandidateEvaluation(
                kind, line_index, False,
                "believed topology is disconnected")
        problems = self._required_alterations(kind, line_index)
        if isinstance(problems, str):
            return CandidateEvaluation(kind, line_index, False, problems)
        altered = problems

        # Believability bounds on the endpoint loads (Eq. 36) shrink the
        # usable flow range.  They need no LP, so an endpoint without
        # load headroom drops the candidate before the range LPs run.
        from_window, to_window = self._endpoint_windows(kind, line_index)
        if from_window is None:
            return CandidateEvaluation(kind, line_index, False,
                                       "from-bus has no load headroom")
        if to_window is None:
            return CandidateEvaluation(kind, line_index, False,
                                       "to-bus has no load headroom")

        flow_range = self._memoised(
            self.kernel.ranges, (kind, line_index),
            lambda: self._reachable_flow_range(kind, line_index))
        if flow_range is None:
            return CandidateEvaluation(kind, line_index, False,
                                       "flow unreachable in operation")
        lo, hi = flow_range
        if lo > hi:
            return CandidateEvaluation(kind, line_index, False,
                                       "believability bounds empty")

        best = self._memoised(
            self.kernel.maxima, (kind, line_index),
            lambda: self._maximize_over_interval(kind, line_index, lo, hi))
        if best is None:
            return CandidateEvaluation(kind, line_index, False,
                                       "believed OPF never converges")
        best_f, best_cost, loads = best

        increase = 100 * (float(best_cost) / float(self.base_cost) - 1)
        evaluation = CandidateEvaluation(
            kind, line_index, True,
            best_increase_percent=increase,
            believed_loads=dict(loads),
            altered_measurements=sorted(altered))

        if query.with_state_infection:
            sampled = self._state_infection_samples(kind, line_index, query)
            if sampled is not None and sampled[0] > increase:
                evaluation.best_increase_percent = sampled[0]
                evaluation.believed_loads = sampled[1]
                evaluation.altered_measurements = sampled[2]
        return evaluation

    @staticmethod
    def _memoised(memo: Dict, key, compute):
        """``memo[key]``, computed on a miss.

        The memos are the kernel's, so a value one analyzer stored serves
        every analyzer of the grid.  A value computed under numerical
        warnings is not stored: the next query recomputes it, so it sees
        (and escalates on) the same warnings a cold query would.
        """
        if key in memo:
            return memo[key]
        with collect_diagnostics() as warnings:
            value = compute()
        if not warnings:
            memo[key] = value
        return value

    def _required_alterations(self, kind: str, line_index: int):
        """Measurements a nonzero-flow single-line attack must alter."""
        plan = self.attacker.plan
        line = self.grid.line(line_index)
        l = self.grid.num_lines
        needed = set()
        for m in (line_index, l + line_index,
                  2 * l + line.from_bus, 2 * l + line.to_bus):
            if plan.is_taken(m):
                needed.add(m)
        if (plan.is_taken(line_index) or plan.is_taken(l + line_index)) \
                and not self.attacker.knows_admittance(line_index):
            return f"admittance of line {line_index} unknown"
        problems = self.attacker.check_alteration_set(needed)
        if problems:
            return "; ".join(problems)
        return needed

    def _reachable_flow_range(self, kind: str, line_index: int
                              ) -> Optional[Tuple[float, float]]:
        """The attacked line's usable flow interval: its (would-be) flow
        over feasible operating points, clipped to the window W.

        W is both endpoint load windows intersected with the line
        capacity; a range that misses it comes back empty (``lo > hi``),
        and None means a range LP failed.  Two LPs over the operating
        polytope give the range, but only while their result can still
        matter: an empty W, or a closed-form outer bound missing W by
        more than the margin, settles the candidate with no LP, and the
        extreme on the side W cuts is solved first and settles it alone
        when it misses W.  Otherwise both LPs run, and the interval is
        the same one the two extremes always gave.
        """
        factors = self.kernel.sf_opf.factors
        if kind == "exclude":
            row = factors.row(line_index)
        else:
            # Would-be flow of the open line: d * (theta_f - theta_e),
            # a cached factorized solve on the base susceptance matrix.
            row = factors.open_line_flow_row(line_index)
        flow_gen = np.array([row[bus - 1]
                             for bus in self.kernel.sf_opf.gen_buses])
        flow_const = -float(row @ self.kernel.demand)

        cap = float(self.grid.line(line_index).capacity)
        from_window, to_window = self._endpoint_windows(kind, line_index)
        w_lo = max(-cap, from_window[0], to_window[0])
        w_hi = min(cap, from_window[1], to_window[1])
        if w_lo > w_hi:
            return _EMPTY_RANGE
        # Outer bounds over the generator box and power balance alone.
        # The polytope is feasible (the base OPF was solved on it), so a
        # skipped LP could not have reported the flow unreachable.
        margin = _RANGE_MARGIN * (1.0 + float(np.abs(flow_gen).sum()))
        outer_lo, outer_hi = (
            value + flow_const for value in box_balance_extremes(
                flow_gen, self.kernel.gen_low, self.kernel.gen_high,
                self.kernel.total_demand))
        if outer_hi + margin < w_lo or outer_lo - margin > w_hi:
            return _EMPTY_RANGE

        def extreme(upper: bool) -> Optional[float]:
            result = linprog(-flow_gen if upper else flow_gen,
                             **self.kernel.operating_lp)
            if not result.success:
                return None
            return float(flow_gen @ result.x) + flow_const

        # The side with less slack in the outer bound is the one W is
        # likelier to cut the whole range off at.
        upper = outer_hi - w_lo <= w_hi - outer_lo
        settled = extreme(upper)
        if settled is None:
            return None
        if (settled + margin < w_lo) if upper \
                else (settled - margin > w_hi):
            return _EMPTY_RANGE
        other = extreme(not upper)
        if other is None:
            return None
        minimum, maximum = (other, settled) if upper \
            else (settled, other)
        # Float noise can cross the two extremes of a near-point range.
        low, high = min(minimum, maximum), max(minimum, maximum)
        return max(low, w_lo), min(high, w_hi)

    def _endpoint_windows(self, kind: str, line_index: int):
        """The Eq.-36 load windows of the attacked line's two endpoints."""
        line = self.grid.line(line_index)
        sign = 1.0 if kind == "exclude" else -1.0
        return (self._load_window(line.from_bus, sign),
                self._load_window(line.to_bus, -sign))

    def _load_window(self, bus: int, sign: float
                     ) -> Optional[Tuple[float, float]]:
        """Flow interval keeping ``load + sign*f`` within Eq.-36 bounds."""
        load = self.grid.loads.get(bus)
        if load is None:
            # No load to absorb the change: only f = 0 is consistent,
            # which is a no-op attack.
            return None
        low = float(load.p_min - load.existing)
        high = float(load.p_max - load.existing)
        if sign > 0:
            return low, high
        return -high, -low

    def _believed_loads(self, kind: str, line_index: int,
                        f: float) -> Dict[int, float]:
        """The existing loads with both endpoints shifted by flow ``f``."""
        line = self.grid.line(line_index)
        sign = 1.0 if kind == "exclude" else -1.0
        loads = dict(self.kernel.existing_loads)
        loads[line.from_bus] = loads.get(line.from_bus, 0.0) + sign * f
        loads[line.to_bus] = loads.get(line.to_bus, 0.0) - sign * f
        return loads

    def _believed_cost(self, kind: str, line_index: int,
                       f: float) -> Optional[Fraction]:
        loads = self._believed_loads(kind, line_index, f)
        result = self.kernel.sf_opf.solve(
            loads={b: round(v, 9) for b, v in loads.items()},
            change=TopologyChange(kind, line_index))
        if not result.feasible:
            return None
        return result.cost

    def _maximize_over_interval(self, kind: str, line_index: int,
                                lo: float, hi: float
                                ) -> Optional[Tuple[float, Fraction, Dict]]:
        """Max believed cost over the flow interval (convex => boundary).

        The believed system's feasible flow set is itself an interval,
        so the maximum sits on one of its two boundaries.  A feasible
        endpoint is its own boundary; toward an infeasible one the
        boundary is bisected from a feasible anchor — ``lo`` or ``hi``
        when one is feasible, else the midpoint, else the first feasible
        point of a 9-point scan.  Each distinct ``f`` is solved once, so
        two feasible endpoints cost exactly two OPF solves.
        """
        solved: Dict[float, Optional[Fraction]] = {}

        def cost(f: float) -> Optional[Fraction]:
            if f not in solved:
                solved[f] = self._believed_cost(kind, line_index, f)
            return solved[f]

        anchor = next((f for f in (lo, hi, 0.5 * (lo + hi))
                       if cost(f) is not None), None)
        if anchor is None:
            # Scan for any feasible point before giving up.
            anchor = next((float(f) for f in np.linspace(lo, hi, 9)
                           if cost(float(f)) is not None), None)
            if anchor is None:
                return None

        def boundary(toward: float) -> float:
            if cost(toward) is not None:
                return toward
            good, bad = anchor, toward
            while abs(bad - good) > BISECTION_TOLERANCE:
                mid = 0.5 * (good + bad)
                if cost(mid) is not None:
                    good = mid
                else:
                    bad = mid
            return good

        best = None
        # boundary() only returns feasible points.
        for f in {boundary(lo), boundary(hi)}:
            if best is None or cost(f) > best[1]:
                best = (f, cost(f),
                        self._believed_loads(kind, line_index, f))
        return best

    # ------------------------------------------------------------------
    # State-infection sampling
    # ------------------------------------------------------------------

    def _state_infection_samples(self, kind: str, line_index: int,
                                 query: ImpactQuery
                                 ) -> Optional[Tuple[float, Dict, List[int]]]:
        """Seeded boundary samples of the believed-load box.

        Each sample is validated by reconstructing the state shift that
        realizes it (least squares on the consumption operator) and
        checking the induced measurement alterations against the attacker
        model.
        """
        grid = self.grid
        rng = random.Random(query.seed * 7919 + line_index)
        load_buses = sorted(grid.loads)
        if len(load_buses) < 2:
            return None
        # The attack-free operating point depends only on the case.
        operating = self._memoised(
            self.kernel.operating_point, "attack-free",
            lambda: solve_dc_opf(grid, method="highs"))
        if not operating.feasible:
            return None
        flows = {i: float(v) for i, v in operating.flows.items()}
        angles = {b: float(v) for b, v in operating.angles.items()}

        # Consumption-change operator over the believed topology:
        # delta_B = C @ delta_theta (reduced states).
        order = state_order(grid)
        position = {bus: pos for pos, bus in enumerate(order)}
        believed = set(self._believed_topology(kind, line_index))
        C = np.zeros((grid.num_buses, len(order)))
        for line in grid.lines:
            if line.index not in believed:
                continue
            y = float(line.admittance)
            f, t = line.from_bus, line.to_bus
            for bus, s in ((f, -1.0), (t, 1.0)):
                # d(consumption at from) = -y*(dth_f - dth_t), at to: +y*...
                if f != grid.reference_bus:
                    C[bus - 1, position[f]] += s * y
                if t != grid.reference_bus:
                    C[bus - 1, position[t]] -= s * y

        # The topology part of every sample's load change.
        line = grid.line(line_index)
        f_now = flows.get(line_index, 0.0) if kind == "exclude" else \
            float(line.admittance) * (angles[line.from_bus]
                                      - angles[line.to_bus])
        sign = 1.0 if kind == "exclude" else -1.0
        topo_part = np.zeros(grid.num_buses)
        topo_part[line.from_bus - 1] += sign * f_now
        topo_part[line.to_bus - 1] -= sign * f_now

        best: Optional[Tuple[float, Dict, List[int]]] = None
        for _ in range(query.state_samples):
            if query.budget is not None and query.budget.exhausted():
                break
            target: Dict[int, float] = {}
            total_shift = 0.0
            chosen = rng.sample(load_buses,
                                min(len(load_buses), rng.randint(2, 4)))
            for bus in chosen[:-1]:
                load = grid.loads[bus]
                extreme = float(load.p_max) if rng.random() < 0.5 \
                    else float(load.p_min)
                target[bus] = extreme
                total_shift += extreme - float(load.existing)
            balance_bus = chosen[-1]
            load = grid.loads[balance_bus]
            balanced = float(load.existing) - total_shift
            if not float(load.p_min) <= balanced <= float(load.p_max):
                continue
            target[balance_bus] = balanced

            delta_b = np.zeros(grid.num_buses)
            for bus, value in target.items():
                delta_b[bus - 1] = value - float(grid.loads[bus].existing)
            residual_target = delta_b - topo_part

            dtheta, residuals, _, _ = np.linalg.lstsq(
                C, residual_target, rcond=None)
            if np.linalg.norm(C @ dtheta - residual_target) > 1e-8:
                continue  # load vector not realizable by state shifts

            shift = {bus: float(dtheta[pos])
                     for pos, bus in enumerate(order)
                     if abs(dtheta[pos]) > 1e-10}
            attack = craft_topology_attack(
                grid, flows, angles,
                excluded=[line_index] if kind == "exclude" else [],
                included=[line_index] if kind == "include" else [],
                state_shift=shift)
            if validate_against_attacker(attack, self.attacker):
                continue

            loads = {bus: float(load.existing) + delta_b[bus - 1]
                     for bus, load in grid.loads.items()}
            result = self.kernel.sf_opf.solve(
                loads={b: round(v, 9) for b, v in loads.items()},
                change=TopologyChange(kind, line_index))
            if not result.feasible:
                continue
            increase = 100 * (float(result.cost)
                              / float(self.base_cost) - 1)
            if best is None or increase > best[0]:
                best = (increase, loads, attack.altered_measurements)
        return best

