"""The verification framework of paper Fig. 2 (the SMT analyzer).

The loop couples the two SMT models:

1. solve the *stealthy attack model* for a candidate attack vector;
2. update the system — believed topology and believed (estimated) loads;
3. verify the *impact*: no OPF dispatch of the believed system costs less
   than ``threshold = base_optimal * (1 + I/100)`` (paper Eq. 37) while a
   dispatch does exist at higher cost (Eq. 38);
4. on failure, extremize the candidate's *structure* (topology bits plus
   infected-state choice, see below), then block the whole structure
   (:meth:`~repro.core.encoding.AttackModelEncoding.block_structure`)
   and iterate until the attack model is unsat (every structure is
   blocked) or the query's budget runs out, which ends in a
   ``budget_exhausted`` partial report, never an unsat.

Step 3's universal quantification is discharged by *minimizing* the
believed system's cost exactly (the in-repo rational LP) and comparing to
the threshold; optionally the paper's original formulation — an SMT
unsatisfiability check of the OPF model at the threshold — is run as
confirmation.

Extremizing a structure holds its discrete choices fixed and maximizes
and minimizes each believed load alone (2n LPs), evaluating each
optimum exactly.  The believed-optimal cost is convex in the loads, so
over the structure's believed-load polytope its maximum lies on *a
vertex* — but the 2n coordinate optima are only some of the vertices.
Pruning the structure after them is therefore a heuristic step, not a
proved one (ROADMAP, "An unsat is `proved` only over the question's own
clauses"): an unsat is exact only if no unvisited vertex reaches the
threshold.  ROADMAP's "Remove the ∀: one certified SMT query per
question" removes the step; the exhaustive 5-bus oracle of "Close the
structure-pruning hole" tests it meanwhile.

:class:`ImpactAnalyzer` holds the search: candidate generation (the SMT
attack model), evaluation (exact believed OPF), blocking and
extremization.  Everything cross-cutting — preflight, budgets,
certification bookkeeping, run notes, report assembly — lives once in
its base class :class:`repro.core.session.AnalysisSession`, which calls
the search through its hooks.  It answers the shared
:class:`~repro.core.session.ImpactQuery`; the search samples nothing
and decides in exact arithmetic, so the query's ``state_samples``,
``seed`` and ``escalation_band`` do not apply to it.

One encoding lifecycle: the analyzer builds the attack encoding once,
*without* a cost threshold, and asserts each query's threshold (paper
Eq. 37's necessary condition on the operating cost) inside a
guard-literal ``push()``/``pop()`` scope of the same solver, so
consecutive queries — a threshold sweep, an I* bisection — retain the
clause database, learned clauses and simplex state.  The encoding is
rebuilt only when the query changes its shape (state infection,
topology attacks, certification).  A caller that wants a fresh encoding
builds a fresh analyzer.
"""

from __future__ import annotations

import time
from fractions import Fraction
from typing import Dict, Optional, Tuple

from repro.core.encoding import (
    AttackEncodingConfig,
    AttackModelEncoding,
    AttackVectorSolution,
    OpfModelEncoding,
)
from repro.core.session import AnalysisSession, ImpactQuery, SearchOutcome
from repro.exceptions import ModelError
from repro.grid.caseio import CaseDefinition
from repro.opf.dcopf import DcOpfResult, solve_dc_opf
from repro.smt import Not, SolverBudget, maximize, minimize


class ImpactAnalyzer(AnalysisSession):
    """Analyzes one case for stealthy-attack impact on OPF.

    The full-SMT Fig.-2 candidate search on an :class:`AnalysisSession`.
    Consecutive :meth:`analyze` calls re-solve one encoding (module
    docstring), so a SAT witness may depend on the queries asked before
    it; a fresh analyzer gives a fresh encoding.
    """

    kind = "smt"

    def __init__(self, case: CaseDefinition, preflight: bool = True) -> None:
        self._base: Optional[DcOpfResult] = None
        self._encoding: Optional[AttackModelEncoding] = None
        #: (with_state_infection, allow_topology_attack, certify) of the
        #: encoding — a mismatch forces a rebuild.
        self._encoding_key = None
        # per-run trace state (reset in begin()).
        self._run_encodings = 0
        self._encode_seconds = 0.0
        self._warm = False
        self._opf_solves = 0
        self._opf_seconds = 0.0
        self._stats_base: Dict[str, float] = {}
        super().__init__(case, preflight=preflight)

    # ------------------------------------------------------------------
    # Search hooks
    # ------------------------------------------------------------------

    @property
    def base_cost(self) -> Fraction:
        """The attack-free OPF's optimal cost (exact)."""
        if self._base is None:
            self._base = solve_dc_opf(self.grid, method="exact")
            if not self._base.feasible:
                raise ModelError(
                    f"case {self.case.name}: attack-free OPF is infeasible")
        return self._base.cost

    def validate_query(self, query: ImpactQuery) -> None:
        if not query.allow_topology_attack \
                and not query.with_state_infection:
            raise ModelError("a query must allow topology attacks, state "
                             "infection, or both")

    def begin(self, query: ImpactQuery, threshold: Fraction) -> None:
        """Reuse one thresholdless encoding across queries.

        The threshold bound (and every per-run ``block_structure``
        clause the search adds) lives in a solver ``push()`` scope that
        the next query pops, so learned clauses and simplex state carry
        over while per-query constraints don't.
        """
        self._opf_solves = 0
        self._opf_seconds = 0.0
        key = (query.with_state_infection, query.allow_topology_attack,
               self._certify)
        if self._encoding_key != key:
            self._build_encoding(query)
            self._encoding_key = key
        else:
            # Drop the previous query's scope.
            self._encoding.solver.pop()
            self._encode_seconds = 0.0
            self._run_encodings = 0
            self._warm = True
        solver = self._encoding.solver
        solver.push()
        if not query.with_state_infection:
            # A necessary condition for pure topology attacks: the
            # believed optimum never exceeds the current operating cost
            # (the believed system still admits the physical operating
            # point when the states are untouched), so the current cost
            # must already reach the threshold.
            self._encoding.add_min_operating_cost(threshold)
        solver.set_budget(query.budget)
        stats = solver.stats
        self._stats_base = {
            "solve_calls": stats.solve_calls,
            "total_seconds": stats.total_time,
            "decisions": stats.decisions,
            "conflicts": stats.conflicts,
            "theory_conflicts": stats.theory_conflicts,
            "propagations": stats.propagations,
            "restarts": stats.restarts,
            "simplex_pivots": stats.simplex_pivots,
        }

    def _build_encoding(self, query: ImpactQuery) -> None:
        """Encode the attack model for ``query``'s shape."""
        config = AttackEncodingConfig(
            include_state_infection=query.with_state_infection,
            require_topology_attack=query.allow_topology_attack,
            forbid_topology_attack=not query.allow_topology_attack,
            require_state_infection=not query.allow_topology_attack,
        )
        built = time.perf_counter()
        self._encoding = AttackModelEncoding(
            self.case, config, certify=self._certify)
        self._encode_seconds = time.perf_counter() - built
        self._run_encodings = 1
        self._warm = False

    def search(self, query: ImpactQuery,
               threshold: Fraction) -> SearchOutcome:
        encoding = self._encoding
        budget = query.budget
        while True:
            if budget is not None:
                budget.check_wall()
            solution = encoding.solve()
            if solution is None:
                self.certify_unsat(encoding.solver)
                return SearchOutcome(satisfiable=False)
            self.certify_model(encoding.solver)
            success, believed_min = self._evaluate(solution, threshold,
                                                   budget)
            if success:
                return self._success(solution, believed_min, threshold,
                                     query)
            best = self._extremize_structure(encoding, solution, threshold)
            if best is not None:
                return self._success(best[0], best[1], threshold, query)
            # No coordinate optimum of the structure's believed loads
            # reaches the threshold: prune the whole structure.  Unproved
            # (module docstring): the worst case lies on a vertex of the
            # load polytope, and the 2n optima are only some of them.
            encoding.block_structure(solution)

    def _success(self, solution: AttackVectorSolution,
                 believed_min: Fraction, threshold: Fraction,
                 query: ImpactQuery) -> SearchOutcome:
        confirmed = None
        if query.verify_with_smt_opf:
            confirmed = self.confirm_with_smt_opf(solution, threshold)
        return SearchOutcome(satisfiable=True, solution=solution,
                             believed_min=believed_min,
                             confirmed=confirmed)

    # ------------------------------------------------------------------
    # Candidate evaluation
    # ------------------------------------------------------------------

    def _evaluate(self, solution: AttackVectorSolution,
                  threshold: Fraction,
                  budget: Optional[SolverBudget] = None
                  ) -> Tuple[bool, Optional[Fraction]]:
        """(impact achieved?, believed minimum cost)."""
        self.candidates_examined += 1
        grid = self.grid
        topology = solution.believed_topology(grid)
        if not grid.is_connected(topology):
            self.note_islanding(solution.excluded, solution.included)
            return False, None
        opf_started = time.perf_counter()
        try:
            result = solve_dc_opf(grid, loads=solution.believed_loads,
                                  line_indices=topology, method="exact",
                                  budget=budget)
        finally:
            self._opf_solves += 1
            self._opf_seconds += time.perf_counter() - opf_started
        if not result.feasible:
            # Eq. 38 violated: the EMS's OPF would fail to converge.
            return False, None
        self.record_best(solution, result.cost)
        # Eq. 37 asks for an increase of *at least* I%, so a believed
        # optimum exactly on the threshold is a successful attack.
        return result.cost >= threshold, result.cost

    def confirm_with_smt_opf(self, solution: AttackVectorSolution,
                             threshold: Fraction) -> bool:
        """The paper's original Eq. 37/38 discharge via SMT (un)sat."""
        opf = OpfModelEncoding(self.grid,
                               solution.believed_topology(self.grid),
                               solution.believed_loads,
                               certify=self._certify)
        no_cheap_dispatch = not self._checked_opf(opf, threshold)  # Eq. 37
        converges = self._checked_opf(opf, None)                   # Eq. 38
        return no_cheap_dispatch and converges

    def _checked_opf(self, opf: OpfModelEncoding,
                     threshold: Optional[Fraction]) -> bool:
        sat = opf.check(threshold)
        if sat:
            self.certify_model(opf.solver)
        else:
            self.certify_unsat(opf.solver)
        return sat

    def _extremize_structure(self, encoding: AttackModelEncoding,
                             solution: AttackVectorSolution,
                             threshold: Fraction
                             ) -> Optional[Tuple[AttackVectorSolution,
                                                 Fraction]]:
        """Evaluate the found structure's 2n coordinate extremes.

        Holds the topology bits (and infected-state choice) fixed via
        assumptions and pushes each believed load to its extremes; each
        extremization yields a *complete consistent* attack instance
        (the SMT model at the optimum), which is then evaluated exactly.
        These are some of the vertices of the structure's believed-load
        polytope, not all of them (module docstring).
        """
        assumptions = []
        chosen_p = set(solution.excluded)
        chosen_q = set(solution.included)
        for i, var in encoding.p.items():
            assumptions.append(var if i in chosen_p else Not(var))
        for i, var in encoding.q.items():
            assumptions.append(var if i in chosen_q else Not(var))
        if encoding.config.include_state_infection:
            infected = set(solution.infected_states)
            for j, var in encoding.c.items():
                assumptions.append(var if j in infected else Not(var))

        best: Optional[Tuple[AttackVectorSolution, Fraction]] = None
        for bus, load_var in encoding.believed_load.items():
            for optimizer in (maximize, minimize):
                result = optimizer(encoding.solver, load_var,
                                   assumptions=assumptions)
                # The optimization loop always terminates on an UNSAT
                # (either "no model at all" or "no model better than the
                # incumbent"); in certified mode both that proof and the
                # incumbent model are checked.
                self.certify_unsat(encoding.solver)
                if not result.feasible or result.model is None:
                    continue
                self.certify_model(encoding.solver, model=result.model,
                                      assumptions=assumptions)
                candidate = encoding.decode(result.model)
                success, believed_min = self._evaluate(candidate,
                                                       threshold)
                if success and (best is None or believed_min > best[1]):
                    best = (candidate, believed_min)
        return best

    # ------------------------------------------------------------------
    # Trace hooks
    # ------------------------------------------------------------------

    def encode_info(self) -> Dict:
        return {"warm": self._warm,
                "encodings_built": self._run_encodings,
                "encode_seconds": self._encode_seconds}

    def smt_trace(self) -> Dict:
        """Per-run solver statistics.

        Cumulative counters are reported as deltas against the
        ``begin()`` snapshot so a warm run describes its
        own work, not the whole session's; model-size gauges
        (``sat_vars`` …) stay absolute.
        """
        stats = self._encoding.solver.stats
        base = self._stats_base
        return {
            "solve_calls": stats.solve_calls - base["solve_calls"],
            "total_seconds": stats.total_time - base["total_seconds"],
            "sat_vars": stats.sat_vars,
            "clauses": stats.clauses,
            "theory_atoms": stats.theory_atoms,
            "real_vars": stats.real_vars,
            "decisions": stats.decisions - base["decisions"],
            "conflicts": stats.conflicts - base["conflicts"],
            "theory_conflicts": (stats.theory_conflicts
                                 - base["theory_conflicts"]),
            "propagations": stats.propagations - base["propagations"],
            "restarts": stats.restarts - base["restarts"],
            "simplex_pivots": (stats.simplex_pivots
                               - base["simplex_pivots"]),
        }

    def opf_trace(self) -> Dict:
        return {"solves": self._opf_solves, "seconds": self._opf_seconds}

    def solver_calls(self) -> int:
        return (self._encoding.solver.stats.solve_calls
                - self._stats_base["solve_calls"])

