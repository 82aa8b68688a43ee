"""Heap-ordered VSIDS branching in the CDCL core.

``SatSolver._pick_branch_var`` peeks at a lazy ``(-activity, var)`` heap
instead of scanning every variable.  It must pick exactly what the scan
picked — the unassigned variable of highest activity, the smallest index
on ties — through bumps, decays, assignments, backtracking, new variables
and the 1e100 activity rescale, or the search changes.  A budget can
abort a decision right after the pick, so the pick must also leave the
variable in the heap for the next solve.
"""

import random

from repro.exceptions import BudgetExhausted
from repro.smt.budget import SolverBudget
from repro.smt.sat import TRUE, UNASSIGNED, SatSolver


def linear_scan_pick(solver):
    """The reference rule: one pass over every variable."""
    best, best_activity = 0, -1.0
    for var in range(1, solver.num_vars + 1):
        if solver.values[var] == UNASSIGNED \
                and solver.activity[var] > best_activity:
            best, best_activity = var, solver.activity[var]
    return best


def random_walk(seed, steps=400):
    """Drive the order the way the search does, comparing every pick
    with the oracle; returns how many activity rescales happened."""
    rng = random.Random(seed)
    solver = SatSolver()
    for _ in range(rng.randint(1, 24)):
        solver.new_var()
    rescales = 0
    for _ in range(steps):
        roll = rng.random()
        if roll < 0.3:
            # Conflict analysis bumps a few variables, mostly assigned.
            count = rng.randint(1, min(4, solver.num_vars))
            for var in rng.sample(range(1, solver.num_vars + 1), count):
                inc = solver.var_inc
                solver._bump_var(var)
                rescales += solver.var_inc < inc
        elif roll < 0.45:
            solver._decay_activities()
            if solver.var_inc < 1e90 and rng.random() < 0.3:
                solver.var_inc *= 1e35      # reach the 1e100 rescale
        elif roll < 0.75:
            free = [v for v in range(1, solver.num_vars + 1)
                    if solver.values[v] == UNASSIGNED]
            if free:
                var = rng.choice(free)
                solver._new_decision_level()
                solver._enqueue(var if rng.random() < 0.5 else -var, None)
        elif roll < 0.95:
            solver._backtrack_to(rng.randint(0, solver.decision_level))
        else:
            solver.new_var()
        assert solver._pick_branch_var() == linear_scan_pick(solver)
    return rescales


def test_pick_matches_a_linear_scan():
    rescales = sum(random_walk(seed) for seed in range(30))
    assert rescales >= 5


def planted_instance(seed, num_vars=14, constrained=9, num_clauses=24):
    """Satisfiable 3-clauses over vars 1..constrained (each agrees with a
    hidden assignment); the remaining vars occur in no clause, so only a
    decision ever assigns them."""
    rng = random.Random(seed)
    hidden = {v: rng.random() < 0.5 for v in range(1, constrained + 1)}
    clauses = []
    for _ in range(num_clauses):
        clause = [rng.choice((-1, 1)) * rng.randint(1, constrained)
                  for _ in range(3)]
        if not any((lit > 0) == hidden[abs(lit)] for lit in clause):
            clause[0] = -clause[0]
        clauses.append(clause)
    return num_vars, clauses


def build(num_vars, clauses):
    solver = SatSolver()
    for _ in range(num_vars):
        solver.new_var()
    for clause in clauses:
        solver.add_clause(clause)
    return solver


def test_resolve_after_decision_budget_exhaustion_is_complete():
    num_vars, clauses = planted_instance(3)
    exhausted = 0
    for limit in range(1, num_vars + 1):
        solver = build(num_vars, clauses)
        # Exhaustion is raised by on_decision, right after the pick.
        solver.budget = SolverBudget(max_decisions=limit)
        try:
            solver.solve()
        except BudgetExhausted:
            exhausted += 1
        solver.budget = None
        assert solver.solve()
        assert all(solver.values[var] != UNASSIGNED
                   for var in range(1, num_vars + 1)), limit
        assert all(any(solver.value(lit) == TRUE for lit in clause)
                   for clause in clauses)
    assert exhausted >= num_vars // 2
