"""DPLL(T) driver: the public SMT solver facade.

Usage mirrors the small core of the Z3 API that the paper's framework
needs::

    solver = SmtSolver()
    x = RealVar("x")
    p = BoolVar("p")
    solver.add(implies(p, x >= 2))
    solver.add(p)
    if solver.solve() is SolveResult.SAT:
        model = solver.model()
        model.real_value(x)   # Fraction
        model.bool_value(p)   # bool

``push``/``pop`` scoping is emulated with guard literals (each scope gets a
fresh Boolean guard; clauses asserted inside the scope carry the negated
guard and every solve assumes the active guards), which keeps the CDCL core
simple while still supporting the framework's iterate-and-block loop.
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import islice
from typing import Dict, List, Mapping, Optional, Sequence

from repro.exceptions import BudgetExhausted, SolverError
from repro.smt.budget import SolverBudget
from repro.smt.cnf import CnfConverter
from repro.smt.proof import ProofLog, UnsatCertificate
from repro.smt.rational import DeltaRational
from repro.smt.sat import FALSE, TRUE, SatSolver, TheoryListener
from repro.smt.simplex import NO_LIT, Simplex
from repro.smt.terms import (
    Atom,
    BoolTerm,
    BoolVar,
    LinExpr,
    RealVar,
)


class SolveResult(enum.Enum):
    SAT = "sat"
    UNSAT = "unsat"
    #: the attached :class:`~repro.smt.budget.SolverBudget` ran out before
    #: the search concluded; statistics up to that point are recorded.
    UNKNOWN = "unknown"


@dataclass
class SmtStatistics:
    """Aggregate statistics of a solver instance (for the evaluation)."""

    solve_calls: int = 0
    total_time: float = 0.0
    sat_vars: int = 0
    clauses: int = 0
    theory_atoms: int = 0
    real_vars: int = 0
    decisions: int = 0
    conflicts: int = 0
    theory_conflicts: int = 0
    propagations: int = 0
    restarts: int = 0
    simplex_pivots: int = 0
    #: number of ``solve()`` calls that ended in ``UNKNOWN`` because the
    #: attached budget ran out.
    budget_exhaustions: int = 0


class Model:
    """An immutable satisfying assignment snapshot."""

    def __init__(self, bool_values: Mapping[BoolVar, bool],
                 real_values: Mapping[RealVar, Fraction]) -> None:
        self._bools = dict(bool_values)
        self._reals = dict(real_values)

    def bool_value(self, var: BoolVar, strict: bool = False) -> bool:
        """Value of *var*; with ``strict`` a variable absent from the
        model raises :class:`KeyError` instead of defaulting to False
        (absent variables usually mean a decoder asked about a variable
        the encoding never constrained — a bug worth surfacing)."""
        if strict and var not in self._bools:
            raise KeyError(f"boolean variable {var.name!r} is not in "
                           f"the model")
        return self._bools.get(var, False)

    def real_value(self, var: RealVar, strict: bool = False) -> Fraction:
        """Value of *var*; with ``strict`` an unknown variable raises
        :class:`KeyError` instead of defaulting to 0."""
        if strict and var not in self._reals:
            raise KeyError(f"real variable {var.name!r} is not in "
                           f"the model")
        return self._reals.get(var, Fraction(0))

    def eval_expr(self, expr) -> Fraction:
        expr = LinExpr.of(expr)
        total = expr.const
        for var, coeff in expr.coeffs.items():
            total += coeff * self.real_value(var)
        return total

    def __repr__(self) -> str:
        bools = {v.name: val for v, val in self._bools.items()}
        reals = {v.name: str(val) for v, val in self._reals.items()}
        return f"Model(bools={bools}, reals={reals})"


class _LraBridge(TheoryListener):
    """Adapts the simplex solver to the SAT solver's theory interface."""

    def __init__(self) -> None:
        self.simplex = Simplex()
        self.theory_vars: set = set()          # SAT vars that carry atoms
        self.atom_info: Dict[int, tuple] = {}  # sat var -> (simplex var, op, bound)
        self.real_to_simplex: Dict[RealVar, int] = {}
        self._expr_slack: Dict[tuple, int] = {}
        self._asserted: Dict[int, int] = {}    # sat var -> undo count

    # -- atom registration -------------------------------------------------

    def simplex_var_for_real(self, var: RealVar) -> int:
        idx = self.real_to_simplex.get(var)
        if idx is None:
            idx = self.simplex.new_variable()
            self.real_to_simplex[var] = idx
        return idx

    def register_atom(self, sat_var: int, atom: Atom) -> None:
        coeffs = {self.simplex_var_for_real(v): c
                  for v, c in atom.expr.coeffs.items()}
        if len(coeffs) == 1:
            (var, coeff), = coeffs.items()
            if coeff == 1:
                target = var
            else:
                target = self._slack_for(coeffs)
        else:
            target = self._slack_for(coeffs)
        self.atom_info[sat_var] = (target, atom.op, atom.bound)
        self.theory_vars.add(sat_var)

    def _slack_for(self, coeffs: Dict[int, Fraction]) -> int:
        key = tuple(sorted(coeffs.items()))
        slack = self._expr_slack.get(key)
        if slack is None:
            slack = self.simplex.add_row(dict(coeffs))
            self._expr_slack[key] = slack
        return slack

    # -- TheoryListener interface -------------------------------------------

    def is_theory_var(self, var: int) -> bool:
        return var in self.theory_vars

    def on_assign(self, lit: int) -> Optional[List[int]]:
        sat_var = abs(lit)
        target, op, bound = self.atom_info[sat_var]
        before = self.simplex.mark()
        if lit > 0:
            if op == Atom.LE:
                conflict = self.simplex.assert_upper(
                    target, DeltaRational(bound), lit)
            else:  # Atom.LT
                conflict = self.simplex.assert_upper(
                    target, DeltaRational.strict_upper(bound), lit)
        else:
            if op == Atom.LE:
                # not (target <= bound)  =>  target > bound
                conflict = self.simplex.assert_lower(
                    target, DeltaRational.strict_lower(bound), lit)
            else:
                # not (target < bound)  =>  target >= bound
                conflict = self.simplex.assert_lower(
                    target, DeltaRational(bound), lit)
        self._asserted[sat_var] = self.simplex.mark() - before
        return conflict

    def on_unassign(self, lit: int) -> None:
        sat_var = abs(lit)
        count = self._asserted.pop(sat_var, 0)
        if count:
            self.simplex.pop(count)

    def check(self) -> Optional[List[int]]:
        return self.simplex.check()

    def final_check(self) -> Optional[List[int]]:
        return self.simplex.check()

    def take_conflict_witness(self):
        return self.simplex.take_witness()


class SmtSolver:
    """SMT solver for quantifier-free Boolean + linear real arithmetic."""

    def __init__(self, certify: bool = False) -> None:
        self._theory = _LraBridge()
        self._sat = SatSolver(self._theory)
        self._cnf = CnfConverter(self._emit_clause, self._new_var)
        self._model: Optional[Model] = None
        self._guards: List[int] = []  # active push/pop guard literals
        self.stats = SmtStatistics()
        self._clause_count = 0
        self._atoms_registered = 0   # prefix of atom_of_var the theory has
        self._budget: Optional[SolverBudget] = None
        #: why the last ``solve()`` returned ``UNKNOWN`` (None otherwise).
        self.last_budget_reason: Optional[str] = None
        self._certify = False
        # Original (pre-CNF) assertions, one list per open scope; only
        # maintained in certify mode, for independent model checking.
        self._assertion_scopes: List[List[BoolTerm]] = [[]]
        #: assumption terms of the most recent solve() (certify mode).
        self.last_assumptions: List[BoolTerm] = []
        #: UNSAT certificate of the most recent solve(), when it
        #: returned UNSAT in certify mode; None otherwise.
        self.last_certificate: Optional[UnsatCertificate] = None
        if certify:
            self.enable_certificates()

    # -- certified solving ------------------------------------------------

    @property
    def certify(self) -> bool:
        return self._certify

    def enable_certificates(self) -> None:
        """Switch on certificate generation (idempotent; cannot be
        undone).  Must be called before the first assertion so the proof
        log covers every input clause."""
        if self._certify:
            return
        if self._clause_count or self._sat.num_vars:
            raise SolverError("enable_certificates() must be called on a "
                              "fresh solver (the proof log would miss "
                              "already-asserted clauses)")
        self._certify = True
        self._sat.proof = ProofLog()
        self._theory.simplex.certify = True

    @property
    def proof(self) -> Optional[ProofLog]:
        return self._sat.proof

    @property
    def atom_of_var(self):
        """SAT variable -> theory :class:`Atom` map (for the checkers)."""
        return self._cnf.atom_of_var

    def active_assertions(self) -> List[BoolTerm]:
        """All original assertions in currently-open scopes (certify
        mode only; empty otherwise)."""
        return [term for scope in self._assertion_scopes for term in scope]

    # -- resource governance ---------------------------------------------

    def set_budget(self, budget: Optional[SolverBudget]) -> None:
        """Attach (or with None detach) a budget to the SAT core and the
        simplex; it persists across ``solve()`` calls, so cumulative
        limits span a whole analysis."""
        self._budget = budget
        self._sat.budget = budget
        self._theory.simplex.budget = budget

    @property
    def budget(self) -> Optional[SolverBudget]:
        return self._budget

    # -- plumbing ------------------------------------------------------------

    def _new_var(self) -> int:
        return self._sat.new_var()

    def _emit_clause(self, lits: List[int]) -> None:
        self._clause_count += 1
        self._sat.add_clause(lits)

    # -- assertions ------------------------------------------------------

    def add(self, term: BoolTerm) -> None:
        """Assert *term* (within the current push/pop scope, if any)."""
        self._sat._backtrack_to(0)
        if self._certify:
            self._assertion_scopes[-1].append(term)
        root_clauses = self._cnf.assert_term(term)
        self._register_new_atoms()
        guard = [-self._guards[-1]] if self._guards else []
        for clause in root_clauses:
            self._sat.add_clause(guard + clause)
            self._clause_count += 1

    def _register_new_atoms(self) -> None:
        """Hand the theory the atoms converted since the last call, in
        insertion order (the map only grows, so they are its tail)."""
        atoms = self._cnf.atom_of_var
        fresh = len(atoms) - self._atoms_registered
        tail = list(islice(reversed(atoms.items()), fresh))
        for sat_var, atom in reversed(tail):
            self._theory.register_atom(sat_var, atom)
        self._atoms_registered = len(atoms)

    def push(self) -> None:
        """Open a retractable assertion scope.

        Clauses added while a scope is open carry the scope's guard
        literal, so :meth:`pop` retracts them by asserting the guard's
        negation — no clause is ever physically deleted.  Learned
        clauses derived under guard assumptions include those guards in
        their derivation, so they stay sound after the pop.  This is
        what makes *warm* incremental reuse safe: one encoding can be
        re-solved under many per-scenario constraints (thresholds,
        blocking clauses) without rebuilding, with everything learned in
        earlier scenarios carried forward.
        """
        self._sat._backtrack_to(0)
        guard = self._sat.new_var()
        self._guards.append(guard)
        self._assertion_scopes.append([])

    def pop(self) -> None:
        """Close the innermost scope, retracting its assertions.

        The retracting unit clause permanently falsifies the scope's
        guard, so the scope's clauses become vacuous for every later
        :meth:`solve` — the base (scope-0) encoding is untouched and
        ready for the next :meth:`push`.
        """
        if not self._guards:
            raise SolverError("pop() without matching push()")
        self._sat._backtrack_to(0)
        guard = self._guards.pop()
        self._assertion_scopes.pop()
        self._sat.add_clause([-guard])

    # -- solving --------------------------------------------------------

    def solve(self, assumptions: Sequence[BoolTerm] = (),
              budget: Optional[SolverBudget] = None) -> SolveResult:
        """Check satisfiability under optional assumption terms.

        With a budget attached (here or via :meth:`set_budget`) the search
        is bounded: on exhaustion the result is ``SolveResult.UNKNOWN``,
        statistics cover the partial search, and ``last_budget_reason``
        names the limit that ran out.
        """
        if budget is not None:
            self.set_budget(budget)
        started = time.perf_counter()
        self.last_budget_reason = None
        self.last_certificate = None
        if self._certify:
            self.last_assumptions = list(assumptions)
        self._sat._backtrack_to(0)
        assumption_lits = [self._guards[i] for i in range(len(self._guards))]
        for term in assumptions:
            lit = self._cnf.convert(term)
            self._register_new_atoms()
            assumption_lits.append(lit)
        if self._budget is not None:
            self._budget.start()
        try:
            sat = self._sat.solve(assumption_lits)
        except BudgetExhausted as exc:
            self._model = None
            self.last_budget_reason = exc.reason
            self.stats.budget_exhaustions += 1
            self._record_stats(time.perf_counter() - started)
            return SolveResult.UNKNOWN
        if sat:
            self._model = self._extract_model()
        else:
            self._model = None
            if self._certify:
                # Snapshot the log length now: clauses asserted later
                # (e.g. blocking clauses) must not leak into this check.
                self.last_certificate = UnsatCertificate(
                    self._sat.proof, len(self._sat.proof),
                    tuple(assumption_lits))
        self._record_stats(time.perf_counter() - started)
        return SolveResult.SAT if sat else SolveResult.UNSAT

    def _record_stats(self, elapsed: float) -> None:
        self.stats.solve_calls += 1
        self.stats.total_time += elapsed
        self.stats.sat_vars = self._sat.num_vars
        self.stats.clauses = self._clause_count
        self.stats.theory_atoms = len(self._theory.atom_info)
        self.stats.real_vars = len(self._theory.real_to_simplex)
        self.stats.decisions = self._sat.stats.decisions
        self.stats.conflicts = self._sat.stats.conflicts
        self.stats.theory_conflicts = self._sat.stats.theory_conflicts
        self.stats.propagations = self._sat.stats.propagations
        self.stats.restarts = self._sat.stats.restarts
        self.stats.simplex_pivots = self._theory.simplex.pivots

    def _extract_model(self) -> Model:
        bool_values = {
            var: self._sat.model_value(lit)
            for var, lit in self._cnf._bool_vars.items()
        }
        concrete = self._theory.simplex.concrete_values()
        real_values = {
            var: concrete[idx]
            for var, idx in self._theory.real_to_simplex.items()
        }
        return Model(bool_values, real_values)

    def model(self) -> Model:
        if self._model is None:
            raise SolverError("no model available (last result was unsat "
                              "or solve() was never called)")
        return self._model

    # -- hooks for the optimizer ------------------------------------------

    def _simplex_var_for_objective(self, expr: LinExpr) -> int:
        bridge = self._theory
        coeffs = {bridge.simplex_var_for_real(v): c
                  for v, c in expr.coeffs.items()}
        return bridge._slack_for(coeffs)

    @property
    def theory(self) -> _LraBridge:
        return self._theory
