"""CDCL SAT solver with a DPLL(T) theory hook.

A conventional conflict-driven clause-learning solver: two-watched-literal
propagation, first-UIP conflict analysis, VSIDS branching from a lazy
activity heap with phase saving, Luby restarts, and assumption-based
incremental solving (a la MiniSat).

Theory integration follows the lazy DPLL(T) recipe: the solver notifies an
attached :class:`TheoryListener` of every assignment/unassignment of a
*theory literal* (a SAT variable that stands for an arithmetic atom), asks
it to ``check`` at each decision point, and performs a ``final_check`` when
a full propositional model is found.  The theory reports conflicts as a set
of currently-true literals whose conjunction is theory-inconsistent; the
solver learns the corresponding clause and resumes.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.exceptions import SolverError
from repro.smt.budget import SolverBudget
from repro.smt.proof import ProofLog

UNASSIGNED = 0
TRUE = 1
FALSE = -1


class TheoryListener:
    """Interface the SAT solver uses to talk to a theory solver."""

    def is_theory_var(self, var: int) -> bool:
        return False

    def on_assign(self, lit: int) -> Optional[List[int]]:
        """Literal *lit* became true.  Return a conflict explanation
        (a list of currently-true literals that are jointly inconsistent)
        or None."""
        return None

    def on_unassign(self, lit: int) -> None:
        """Literal *lit* (previously asserted) was retracted."""

    def check(self) -> Optional[List[int]]:
        """Cheap consistency check at a decision point."""
        return None

    def final_check(self) -> Optional[List[int]]:
        """Complete consistency check on a full propositional model."""
        return None

    def take_conflict_witness(self):
        """Farkas witness for the most recent conflict explanation, as
        ``[(literal, coefficient), ...]`` pairs, or None when the theory
        does not generate certificates.  Consumed once per conflict."""
        return None


@dataclass
class SatStats:
    decisions: int = 0
    propagations: int = 0
    conflicts: int = 0
    theory_conflicts: int = 0
    restarts: int = 0
    learned_clauses: int = 0
    learned_literals: int = 0
    max_trail: int = 0


class _Clause:
    __slots__ = ("lits", "learned", "activity")

    def __init__(self, lits: List[int], learned: bool = False) -> None:
        self.lits = lits
        self.learned = learned
        self.activity = 0.0


def luby(i: int) -> int:
    """The i-th element (1-based) of the Luby restart sequence."""
    while True:
        k = i.bit_length()
        if (1 << k) - 1 == i:
            return 1 << (k - 1)
        i -= (1 << (k - 1)) - 1  # recurse on i - 2^(k-1) + 1


class SatSolver:
    """A CDCL solver over integer literals (DIMACS convention, var >= 1)."""

    def __init__(self, theory: Optional[TheoryListener] = None) -> None:
        self.theory = theory or TheoryListener()
        self.num_vars = 0
        self.values: List[int] = [UNASSIGNED]  # 1-indexed by variable
        self.levels: List[int] = [-1]
        self.reasons: List[Optional[_Clause]] = [None]
        self.saved_phase: List[int] = [FALSE]
        self.activity: List[float] = [0.0]
        # VSIDS order: a lazy heap of (-activity, var).  Every unassigned
        # var has an entry holding its current activity; entries of
        # assigned vars or of outdated activities are dropped when they
        # reach the top.
        self._order: List[Tuple[float, int]] = []
        self.trail: List[int] = []
        self.trail_lim: List[int] = []
        self.qhead = 0
        self.theory_qhead = 0
        self.watches: Dict[int, List[_Clause]] = {}
        self.clauses: List[_Clause] = []
        self.learned: List[_Clause] = []
        self.var_inc = 1.0
        self.var_decay = 0.95
        self.cla_inc = 1.0
        self.cla_decay = 0.999
        self.max_learned = 4000
        self.unsat = False
        #: optional cooperative resource budget; raises
        #: :class:`~repro.exceptions.BudgetExhausted` out of :meth:`solve`
        #: (at event boundaries, so the solver state stays reusable).
        self.budget: Optional[SolverBudget] = None
        #: chronological clause log for certified solving; None (the
        #: default) disables all proof bookkeeping, keeping the hot paths
        #: allocation-free.
        self.proof: Optional[ProofLog] = None
        self.stats = SatStats()

    # ------------------------------------------------------------------
    # Variable / clause management
    # ------------------------------------------------------------------

    def new_var(self) -> int:
        self.num_vars += 1
        var = self.num_vars
        self.values.append(UNASSIGNED)
        self.levels.append(-1)
        self.reasons.append(None)
        self.saved_phase.append(FALSE)
        self.activity.append(0.0)
        heapq.heappush(self._order, (0.0, var))
        self.watches[var] = []
        self.watches[-var] = []
        return var

    def value(self, lit: int) -> int:
        val = self.values[abs(lit)]
        return val if lit > 0 else -val

    @property
    def decision_level(self) -> int:
        return len(self.trail_lim)

    def add_clause(self, lits: Sequence[int]) -> None:
        """Add a clause (backtracks to level 0 first, as MiniSat does)."""
        if self.decision_level != 0:
            self._backtrack_to(0)
        if self.unsat:
            return
        if self.proof is not None:
            # Log the clause as given: the level-0 simplifications below
            # are justified by unit inputs already in the log.
            self.proof.add_input(lits)
        seen = set()
        filtered: List[int] = []
        for lit in lits:
            if -lit in seen:
                return  # tautology
            if lit in seen:
                continue
            if self.value(lit) == TRUE:
                return  # already satisfied at level 0
            if self.value(lit) == FALSE:
                continue  # falsified at level 0: drop literal
            seen.add(lit)
            filtered.append(lit)
        if not filtered:
            self.unsat = True
            return
        if len(filtered) == 1:
            if not self._enqueue(filtered[0], None):
                self.unsat = True
            elif self._propagate() is not None:
                self.unsat = True
            return
        clause = _Clause(filtered)
        self.clauses.append(clause)
        self._attach(clause)

    def _attach(self, clause: _Clause) -> None:
        self.watches[-clause.lits[0]].append(clause)
        self.watches[-clause.lits[1]].append(clause)

    # ------------------------------------------------------------------
    # Trail operations
    # ------------------------------------------------------------------

    def _enqueue(self, lit: int, reason: Optional[_Clause]) -> bool:
        val = self.value(lit)
        if val == TRUE:
            return True
        if val == FALSE:
            return False
        var = abs(lit)
        self.values[var] = TRUE if lit > 0 else FALSE
        self.levels[var] = self.decision_level
        self.reasons[var] = reason
        self.trail.append(lit)
        self.stats.max_trail = max(self.stats.max_trail, len(self.trail))
        return True

    def _new_decision_level(self) -> None:
        self.trail_lim.append(len(self.trail))

    def _backtrack_to(self, level: int) -> None:
        if self.decision_level <= level:
            return
        limit = self.trail_lim[level]
        order, activity = self._order, self.activity
        for i in range(len(self.trail) - 1, limit - 1, -1):
            lit = self.trail[i]
            var = abs(lit)
            if i < self.theory_qhead and self.theory.is_theory_var(var):
                self.theory.on_unassign(lit)
            self.saved_phase[var] = self.values[var]
            self.values[var] = UNASSIGNED
            self.reasons[var] = None
            self.levels[var] = -1
            heapq.heappush(order, (-activity[var], var))
        del self.trail[limit:]
        del self.trail_lim[level:]
        self.qhead = min(self.qhead, len(self.trail))
        self.theory_qhead = min(self.theory_qhead, len(self.trail))
        if len(order) > 2 * self.num_vars:
            # Entries outnumber the variables twice over: drop the dead
            # ones (amortized over the pushes that created them).
            self._rebuild_order()

    # ------------------------------------------------------------------
    # Propagation
    # ------------------------------------------------------------------

    def _propagate(self) -> Optional[_Clause]:
        """Unit propagation + theory assertion; returns a conflict clause."""
        while True:
            conflict = self._propagate_boolean()
            if conflict is not None:
                return conflict
            conflict = self._propagate_theory()
            if conflict is None:
                if self.qhead == len(self.trail):
                    return None
                continue
            return conflict

    def _propagate_boolean(self) -> Optional[_Clause]:
        while self.qhead < len(self.trail):
            lit = self.trail[self.qhead]
            self.qhead += 1
            self.stats.propagations += 1
            watch_list = self.watches[lit]
            i = 0
            j = 0
            end = len(watch_list)
            while i < end:
                clause = watch_list[i]
                i += 1
                lits = clause.lits
                # Ensure the falsified literal is at position 1.
                if lits[0] == -lit:
                    lits[0], lits[1] = lits[1], lits[0]
                first = lits[0]
                if self.value(first) == TRUE:
                    watch_list[j] = clause
                    j += 1
                    continue
                # Look for a new watch.
                found = False
                for k in range(2, len(lits)):
                    if self.value(lits[k]) != FALSE:
                        lits[1], lits[k] = lits[k], lits[1]
                        self.watches[-lits[1]].append(clause)
                        found = True
                        break
                if found:
                    continue
                # Unit or conflicting.
                watch_list[j] = clause
                j += 1
                if self.value(first) == FALSE:
                    # Conflict: keep remaining watches, restore list.
                    while i < end:
                        watch_list[j] = watch_list[i]
                        j += 1
                        i += 1
                    del watch_list[j:]
                    self.qhead = len(self.trail)
                    return clause
                self._enqueue(first, clause)
            del watch_list[j:]
        return None

    def _propagate_theory(self) -> Optional[_Clause]:
        while self.theory_qhead < len(self.trail):
            lit = self.trail[self.theory_qhead]
            self.theory_qhead += 1
            if not self.theory.is_theory_var(abs(lit)):
                continue
            explanation = self.theory.on_assign(lit)
            if explanation is not None:
                return self._clause_from_explanation(explanation)
        return None

    def _clause_from_explanation(self, explanation: List[int]) -> _Clause:
        self.stats.theory_conflicts += 1
        lits = [-l for l in explanation]
        for l in explanation:
            if self.value(l) != TRUE:
                raise SolverError(
                    "theory explanation contains a non-true literal")
        if self.proof is not None:
            self.proof.add_theory(lits, self.theory.take_conflict_witness())
        return _Clause(lits, learned=True)

    # ------------------------------------------------------------------
    # Conflict analysis (first UIP)
    # ------------------------------------------------------------------

    def _analyze(self, conflict: _Clause) -> tuple:
        learnt: List[int] = [0]  # placeholder for the asserting literal
        seen = [False] * (self.num_vars + 1)
        counter = 0
        lit = 0
        index = len(self.trail) - 1
        clause: Optional[_Clause] = conflict
        while True:
            assert clause is not None
            if clause.learned:
                self._bump_clause(clause)
            start = 1 if lit != 0 else 0
            for q in clause.lits[start:]:
                var = abs(q)
                if seen[var] or self.levels[var] == 0:
                    continue
                seen[var] = True
                self._bump_var(var)
                if self.levels[var] >= self.decision_level:
                    counter += 1
                else:
                    learnt.append(q)
            # Select next literal to expand.
            while index >= 0 and not seen[abs(self.trail[index])]:
                index -= 1
            if index < 0:
                break
            lit = self.trail[index]
            var = abs(lit)
            seen[var] = False
            index -= 1
            counter -= 1
            if counter == 0:
                learnt[0] = -lit
                break
            clause = self.reasons[var]
            if clause is None:
                raise SolverError("reached a decision before the first UIP")
            if lit != 0 and clause.lits[0] != lit:
                # Normalize so position 0 holds the implied literal.
                idx = clause.lits.index(lit)
                clause.lits[0], clause.lits[idx] = (clause.lits[idx],
                                                    clause.lits[0])
        # Compute backjump level.
        if len(learnt) == 1:
            back_level = 0
        else:
            max_i = 1
            for i in range(2, len(learnt)):
                if self.levels[abs(learnt[i])] > self.levels[abs(learnt[max_i])]:
                    max_i = i
            learnt[1], learnt[max_i] = learnt[max_i], learnt[1]
            back_level = self.levels[abs(learnt[1])]
        return learnt, back_level

    def _bump_var(self, var: int) -> None:
        activity = self.activity[var] + self.var_inc
        self.activity[var] = activity
        if activity > 1e100:
            for v in range(1, self.num_vars + 1):
                self.activity[v] *= 1e-100
            self.var_inc *= 1e-100
            self._rebuild_order()
        elif self.values[var] == UNASSIGNED:
            heapq.heappush(self._order, (-activity, var))

    def _bump_clause(self, clause: _Clause) -> None:
        clause.activity += self.cla_inc
        if clause.activity > 1e20:
            for c in self.learned:
                c.activity *= 1e-20
            self.cla_inc *= 1e-20

    def _decay_activities(self) -> None:
        self.var_inc /= self.var_decay
        self.cla_inc /= self.cla_decay

    def _reduce_learned(self) -> None:
        """Drop the least active half of the learned clauses."""
        self.learned.sort(key=lambda c: c.activity)
        keep_from = len(self.learned) // 2
        removed = []
        kept = []
        locked_reasons = {id(self.reasons[abs(l)]) for l in self.trail
                          if self.reasons[abs(l)] is not None}
        for i, clause in enumerate(self.learned):
            if i >= keep_from or len(clause.lits) <= 2 \
                    or id(clause) in locked_reasons:
                kept.append(clause)
            else:
                removed.append(clause)
        removed_ids = {id(c) for c in removed}
        if not removed_ids:
            return
        self.learned = kept
        for lit, watchers in self.watches.items():
            self.watches[lit] = [c for c in watchers
                                 if id(c) not in removed_ids]

    # ------------------------------------------------------------------
    # Branching
    # ------------------------------------------------------------------

    def _rebuild_order(self) -> None:
        """One live heap entry per unassigned variable, nothing else."""
        activity, values = self.activity, self.values
        self._order = [(-activity[v], v) for v in range(1, self.num_vars + 1)
                       if values[v] == UNASSIGNED]
        heapq.heapify(self._order)

    def _pick_branch_var(self) -> int:
        """The unassigned variable of highest activity, the smallest index
        on ties; 0 when every variable is assigned.

        Peeks at the first live entry and never pops it: a budget may
        abort the decision right after this pick, and the variable must
        still be in the order when the search resumes.
        """
        order, values, activity = self._order, self.values, self.activity
        while order:
            negated, var = order[0]
            if values[var] == UNASSIGNED and -negated == activity[var]:
                return var
            heapq.heappop(order)
        return 0

    # ------------------------------------------------------------------
    # Main search
    # ------------------------------------------------------------------

    def solve(self, assumptions: Sequence[int] = ()) -> bool:
        """Search for a model; returns True (sat) or False (unsat)."""
        if self.unsat:
            return False
        self._backtrack_to(0)
        conflict = self._propagate()
        if conflict is not None:
            self.unsat = True
            return False

        assumptions = list(assumptions)
        budget = self.budget
        restart_count = 0
        conflicts_until_restart = 32 * luby(restart_count + 1)
        conflicts_since_restart = 0

        while True:
            conflict = self._propagate()
            if conflict is None and self.qhead == len(self.trail):
                # Theory check at the decision point.
                explanation = self.theory.check()
                if explanation is not None:
                    conflict = self._clause_from_explanation(explanation)

            if conflict is not None:
                self.stats.conflicts += 1
                if budget is not None:
                    budget.on_conflict()
                conflicts_since_restart += 1
                if self.decision_level == 0:
                    self.unsat = True
                    return False
                conflict = self._prepare_conflict(conflict)
                if self.unsat:
                    return False
                if conflict is None:
                    # Conflict resolved below the current level by
                    # backjumping; re-propagate.
                    continue
                if self.decision_level == 0:
                    self.unsat = True
                    return False
                learnt, back_level = self._analyze(conflict)
                # Backjumping below the assumption levels is fine: the
                # assumption-enqueueing branch below re-establishes them and
                # detects genuine assumption failure (value == FALSE).
                self._backtrack_to(back_level)
                self._learn(learnt)
                self._decay_activities()
                if len(self.learned) > self.max_learned:
                    self._reduce_learned()
                continue

            if conflicts_since_restart >= conflicts_until_restart \
                    and self.decision_level > len(assumptions):
                self.stats.restarts += 1
                restart_count += 1
                conflicts_until_restart = 32 * luby(restart_count + 1)
                conflicts_since_restart = 0
                self._backtrack_to(len(assumptions))
                continue

            # Assumption handling: enqueue pending assumptions as decisions.
            if self.decision_level < len(assumptions):
                assumed = assumptions[self.decision_level]
                val = self.value(assumed)
                if val == FALSE:
                    self._backtrack_to(0)
                    return False
                self._new_decision_level()
                if val == UNASSIGNED:
                    self._enqueue(assumed, None)
                continue

            var = self._pick_branch_var()
            if var == 0:
                explanation = self.theory.final_check()
                if explanation is None:
                    return True
                conflict = self._clause_from_explanation(explanation)
                conflict = self._prepare_conflict(conflict)
                if self.unsat:
                    return False
                if conflict is None:
                    continue
                if self.decision_level == 0:
                    self.unsat = True
                    return False
                self.stats.conflicts += 1
                if budget is not None:
                    budget.on_conflict()
                learnt, back_level = self._analyze(conflict)
                self._backtrack_to(back_level)
                self._learn(learnt)
                continue
            self.stats.decisions += 1
            if budget is not None:
                budget.on_decision()
            self._new_decision_level()
            phase = self.saved_phase[var]
            self._enqueue(var if phase == TRUE else -var, None)

    def _prepare_conflict(self, conflict: _Clause) -> Optional[_Clause]:
        """Ensure the conflict clause is falsified *at* the current level.

        Theory conflicts may involve only literals from earlier decision
        levels; in that case backjump to the deepest involved level first.
        Returns the (possibly same) conflict clause, or None when the
        backjump already resolved it (caller should re-propagate).
        """
        if not conflict.lits:
            self._backtrack_to(0)
            self.unsat = True
            return None
        max_level = max(self.levels[abs(l)] for l in conflict.lits)
        if max_level < self.decision_level:
            self._backtrack_to(max_level)
        # Count literals at the (new) current level; analysis needs >= 1.
        at_level = sum(1 for l in conflict.lits
                       if self.levels[abs(l)] == self.decision_level)
        if at_level == 0:
            # Everything at level 0: genuinely unsat.
            self.unsat = True
            return conflict
        return conflict

    def _learn(self, learnt: List[int]) -> None:
        self.stats.learned_clauses += 1
        self.stats.learned_literals += len(learnt)
        if self.proof is not None:
            self.proof.add_rup(learnt)
        if len(learnt) == 1:
            if not self._enqueue(learnt[0], None):
                self.unsat = True
            return
        clause = _Clause(list(learnt), learned=True)
        self.learned.append(clause)
        self._attach(clause)
        self._bump_clause(clause)
        self._enqueue(learnt[0], clause)

    # ------------------------------------------------------------------
    # Model access
    # ------------------------------------------------------------------

    def model_value(self, var: int) -> bool:
        val = self.values[var]
        if val == UNASSIGNED:
            # Variables never touched by the search default to False.
            return False
        return val == TRUE
