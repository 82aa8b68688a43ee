"""Tseitin CNF conversion from :mod:`repro.smt.terms` to SAT clauses.

The converter owns the mapping between term-level objects and SAT literals:

* each :class:`~repro.smt.terms.BoolVar` gets a SAT variable,
* each theory :class:`~repro.smt.terms.Atom` gets a SAT variable that the
  DPLL(T) driver watches (equalities are first split into a conjunction of
  two inequalities so the theory solver only ever sees ``<=`` / ``<``),
* every composite node (And/Or/Not/AtMost) gets a fresh definition variable
  constrained to be *equivalent* to the node, so definitions can be shared
  between incremental assertions.

Cardinality constraints use the sequential-counter encoding (Sinz 2005)
which is linear in ``n * bound`` and arc-consistent under unit propagation.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple

from repro.exceptions import SolverError
from repro.smt.terms import (
    Atom,
    AtMost,
    And,
    BoolConst,
    BoolTerm,
    BoolVar,
    LinExpr,
    Not,
    Or,
)


class CnfConverter:
    """Incrementally converts Boolean terms to CNF over integer literals.

    SAT variables are positive integers; a literal is ``+v`` or ``-v``.
    The converter is stateful so repeated :meth:`convert` calls share
    definitions (the same subterm converts to the same literal).
    """

    def __init__(self, emit_clause: Callable[[List[int]], None],
                 new_var: Callable[[], int]) -> None:
        self._emit_clause = emit_clause
        self._new_var = new_var
        #: definition clauses emitted so far (root clauses are returned
        #: by :meth:`assert_term`, not emitted).
        self.clauses_emitted = 0
        self._bool_vars: Dict[BoolVar, int] = {}
        self._atoms: Dict[Atom, int] = {}
        self._defs: Dict[Tuple, int] = {}
        self.atom_of_var: Dict[int, Atom] = {}
        self.var_of_atom: Dict[Atom, int] = {}
        self._true_lit: int = 0

    def _emit(self, lits: List[int]) -> None:
        self.clauses_emitted += 1
        self._emit_clause(lits)

    # -- literal allocation ----------------------------------------------

    def true_literal(self) -> int:
        """A literal constrained to be true (used for constant folding)."""
        if self._true_lit == 0:
            self._true_lit = self._new_var()
            self._emit([self._true_lit])
        return self._true_lit

    def literal_for_boolvar(self, var: BoolVar) -> int:
        lit = self._bool_vars.get(var)
        if lit is None:
            lit = self._new_var()
            self._bool_vars[var] = lit
        return lit

    def literal_for_atom(self, atom: Atom) -> int:
        lit = self._atoms.get(atom)
        if lit is None:
            lit = self._new_var()
            self._atoms[atom] = lit
            self.atom_of_var[lit] = atom
            self.var_of_atom[atom] = lit
        return lit

    # -- conversion --------------------------------------------------------

    def convert(self, term: BoolTerm) -> int:
        """Return a literal equivalent to *term*, emitting definitions."""
        if isinstance(term, BoolConst):
            top = self.true_literal()
            return top if term.value else -top
        if isinstance(term, BoolVar):
            return self.literal_for_boolvar(term)
        if isinstance(term, Atom):
            if term.op == Atom.EQ:
                # expr == b  <=>  (expr <= b) and not (expr < b)
                le = Atom._intern(term.expr, Atom.LE, term.bound)
                lt = Atom._intern(term.expr, Atom.LT, term.bound)
                return self.convert(And(le, Not(lt)))
            return self.literal_for_atom(term)
        if isinstance(term, Not):
            return -self.convert(term.arg)
        if isinstance(term, And):
            lits = tuple(self.convert(a) for a in term.args)
            return self._define_and(lits)
        if isinstance(term, Or):
            lits = tuple(self.convert(a) for a in term.args)
            return -self._define_and(tuple(-l for l in lits))
        if isinstance(term, AtMost):
            lits = tuple(self.convert(a) for a in term.args)
            return self._define_at_most(lits, term.bound)
        raise SolverError(f"cannot convert term of type {type(term).__name__}")

    def assert_term(self, term: BoolTerm) -> List[int]:
        """Convert *term* and return the clauses that assert it.

        Composite definitions are emitted permanently via ``emit_clause``;
        the returned list holds only the *root* clauses, so callers may
        guard them (push/pop emulation) without corrupting shared
        definitions.
        """
        # Assert conjunctions clause-by-clause for better propagation.
        if isinstance(term, And):
            roots: List[List[int]] = []
            for arg in term.args:
                roots.extend(self.assert_term(arg))
            return roots
        if isinstance(term, BoolConst):
            if term.value:
                return []
            return [[]]  # empty clause: unsatisfiable
        if isinstance(term, Or):
            lits = [self.convert(a) for a in term.args]
            return [lits]
        lit = self.convert(term)
        return [[lit]]

    # -- definitional encodings --------------------------------------------

    def _define_and(self, lits: Tuple[int, ...]) -> int:
        lits = tuple(sorted(set(lits)))
        if any(-l in lits for l in lits):
            return -self.true_literal()
        if len(lits) == 1:
            return lits[0]
        key = ("and", lits)
        cached = self._defs.get(key)
        if cached is not None:
            return cached
        d = self._new_var()
        self._defs[key] = d
        # d -> each lit
        for lit in lits:
            self._emit([-d, lit])
        # all lits -> d
        self._emit([d] + [-lit for lit in lits])
        return d

    def _define_at_most(self, lits: Tuple[int, ...], bound: int) -> int:
        """Definition variable for ``sum(lits) <= bound``.

        Uses a guarded sequential counter: with guard ``d`` true the
        constraint holds; with ``d`` false the constraint may be violated
        (we only need one-sided semantics for positive occurrences, but to
        remain sound under negation we add the reverse direction via an
        at-least counter on the complements).
        """
        key = ("atmost", lits, bound)
        cached = self._defs.get(key)
        if cached is not None:
            return cached
        d = self._new_var()
        self._defs[key] = d

        # Forward: d -> sum(lits) <= bound   (sequential counter)
        self._emit_counter_leq(lits, bound, guard=-d)
        # Backward: not d -> sum(lits) >= bound + 1, i.e.
        #           sum(not lits) <= n - bound - 1 under guard d.
        comp = tuple(-l for l in lits)
        self._emit_counter_leq(comp, len(lits) - bound - 1, guard=d)
        return d

    def _emit_counter_leq(self, lits: Tuple[int, ...], bound: int,
                          guard: int) -> None:
        """Clauses for ``guard \\/ (sum(lits) <= bound)`` (Sinz counter).

        ``guard`` is a literal added to every clause (pass 0 for none).
        """
        n = len(lits)
        extra = [guard] if guard else []
        if bound < 0:
            # No assignment can satisfy it: force guard.
            if guard:
                self._emit([guard])
            else:
                self._emit([])
            return
        if bound >= n:
            return
        if bound == 0:
            for lit in lits:
                self._emit(extra + [-lit])
            return
        # registers[i][j] == true iff at least j+1 of lits[0..i] are true.
        prev: List[int] = []
        for i, lit in enumerate(lits):
            width = min(i + 1, bound)
            regs = [self._new_var() for _ in range(width)]
            # lit -> regs[0]
            self._emit(extra + [-lit, regs[0]])
            if prev:
                for j in range(min(len(prev), width)):
                    # prev[j] -> regs[j]
                    self._emit(extra + [-prev[j], regs[j]])
                for j in range(1, width):
                    if j - 1 < len(prev):
                        # lit and prev[j-1] -> regs[j]
                        self._emit(extra + [-lit, -prev[j - 1], regs[j]])
            if i >= bound:
                # lit and prev[bound-1] -> contradiction
                self._emit(extra + [-lit, -prev[bound - 1]])
            prev = regs
