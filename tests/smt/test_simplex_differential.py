"""Randomized differential test: Simplex vs brute-force vertex search.

Small exact-rational LPs ``min c·x  s.t.  A·x <= b, -B <= x <= B`` are
solved two ways that share no code:

* the repo's :class:`~repro.smt.simplex.Simplex` (rows + asserted bounds,
  phase-1 ``check`` then phase-2 ``minimize``), and
* textbook vertex enumeration — every n-subset of the constraint rows is
  solved by Fraction Gaussian elimination; feasible vertices are scored.

The box bounds make every nonempty feasible region a bounded polyhedron,
which always attains its optimum at such a vertex, so feasibility and
the exact optimum must agree on every instance, under the
sparsest-column entering rule of ``check`` and under Bland's
smallest-index fallback forced from the first pivot.
"""

import itertools
import random
from fractions import Fraction

from repro.smt.rational import DeltaRational
from repro.smt.simplex import Simplex

BOX = Fraction(8)           # -BOX <= x_i <= BOX for every variable


def solve_square(rows, rhs):
    """Solve a square Fraction system by Gaussian elimination.

    Returns the solution vector or None when the matrix is singular.
    """
    n = len(rows)
    A = [list(row) + [b] for row, b in zip(rows, rhs)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if A[r][col] != 0), None)
        if pivot is None:
            return None
        A[col], A[pivot] = A[pivot], A[col]
        inv = Fraction(1) / A[col][col]
        A[col] = [value * inv for value in A[col]]
        for r in range(n):
            if r != col and A[r][col] != 0:
                factor = A[r][col]
                A[r] = [value - factor * lead
                        for value, lead in zip(A[r], A[col])]
    return [A[r][n] for r in range(n)]


def brute_force(num_vars, constraints, objective):
    """(feasible?, optimal value) by enumerating constraint-set vertices.

    *constraints* are ``(coeffs, bound)`` rows meaning ``coeffs·x <=
    bound`` and must include the box rows, so a nonempty region is a
    bounded polyhedron and has a vertex at n active constraints.
    """
    best = None
    for subset in itertools.combinations(range(len(constraints)),
                                         num_vars):
        rows = [constraints[i][0] for i in subset]
        rhs = [constraints[i][1] for i in subset]
        point = solve_square(rows, rhs)
        if point is None:
            continue
        if any(sum(c * v for c, v in zip(coeffs, point)) > bound
               for coeffs, bound in constraints):
            continue
        value = sum(c * v for c, v in zip(objective, point))
        if best is None or value < best:
            best = value
    return best is not None, best


def simplex_solve(num_vars, ineqs, objective):
    """(feasible?, optimal value) via the repo's Simplex.

    *ineqs* are the non-box rows; the box goes in as direct variable
    bounds, exactly how the DPLL(T) bridge asserts bounds.
    """
    simplex = Simplex()
    xs = [simplex.new_variable() for _ in range(num_vars)]
    lit = 0
    for i, x in enumerate(xs):
        lit += 1
        if simplex.assert_lower(x, DeltaRational(-BOX), lit) is not None:
            return False, None
        lit += 1
        if simplex.assert_upper(x, DeltaRational(BOX), lit) is not None:
            return False, None
    for coeffs, bound in ineqs:
        nonzero = {xs[i]: c for i, c in enumerate(coeffs) if c != 0}
        lit += 1
        if not nonzero:
            if bound < 0:
                return False, None
            continue
        row = simplex.add_row(nonzero)
        if simplex.assert_upper(row, DeltaRational(bound),
                                lit) is not None:
            return False, None
    if simplex.check() is not None:
        return False, None
    obj_coeffs = {xs[i]: c for i, c in enumerate(objective) if c != 0}
    if not obj_coeffs:
        return True, Fraction(0)
    obj = simplex.add_row(obj_coeffs)
    if simplex.check() is not None:      # new row never changes feasibility
        return False, None
    optimum = simplex.minimize(obj)
    assert optimum.k == 0, "closed system must attain its optimum"
    return True, optimum.c


def random_instance(rng):
    num_vars = rng.randint(2, 3)
    num_rows = rng.randint(2, 5)
    ineqs = []
    for _ in range(num_rows):
        coeffs = [Fraction(rng.randint(-3, 3)) for _ in range(num_vars)]
        bound = Fraction(rng.randint(-6, 6), rng.randint(1, 2))
        ineqs.append((tuple(coeffs), bound))
    objective = [Fraction(rng.randint(-4, 4)) for _ in range(num_vars)]
    return num_vars, ineqs, objective


def box_rows(num_vars):
    rows = []
    for i in range(num_vars):
        unit = [Fraction(0)] * num_vars
        unit[i] = Fraction(1)
        rows.append((tuple(unit), BOX))
        rows.append((tuple(-c for c in unit), BOX))
    return rows


def assert_random_lps_agree():
    rng = random.Random(31415926)
    feasible_seen = infeasible_seen = 0
    for _ in range(40):
        num_vars, ineqs, objective = random_instance(rng)
        constraints = list(ineqs) + box_rows(num_vars)
        expect_feasible, expect_opt = brute_force(
            num_vars, constraints, objective)
        got_feasible, got_opt = simplex_solve(
            num_vars, ineqs, objective)
        assert got_feasible == expect_feasible, (ineqs, objective)
        if expect_feasible:
            feasible_seen += 1
            assert got_opt == expect_opt, (ineqs, objective)
        else:
            infeasible_seen += 1
    # The generator must exercise both outcomes to mean anything.
    assert feasible_seen >= 10
    assert infeasible_seen >= 3


class TestSimplexDifferential:
    def test_random_lps_agree(self):
        assert_random_lps_agree()

    def test_random_lps_agree_under_bland(self, bland_pivots):
        assert_random_lps_agree()

    def test_known_instance(self):
        # min -x - y  s.t. x + y <= 4, x - y <= 1 (+ box): optimum -4.
        ineqs = [((Fraction(1), Fraction(1)), Fraction(4)),
                 ((Fraction(1), Fraction(-1)), Fraction(1))]
        objective = [Fraction(-1), Fraction(-1)]
        feasible, optimum = simplex_solve(2, ineqs, objective)
        assert feasible and optimum == -4
        bf_feasible, bf_opt = brute_force(
            2, ineqs + box_rows(2), objective)
        assert bf_feasible and bf_opt == -4

    def test_infeasible_instance(self):
        # x + y <= -1 with x, y >= 0-ish is fine; force a clash instead:
        # x + y <= -20 conflicts with the -8 box bounds.
        ineqs = [((Fraction(1), Fraction(1)), Fraction(-20))]
        objective = [Fraction(1), Fraction(0)]
        feasible, _ = simplex_solve(2, ineqs, objective)
        assert not feasible
        bf_feasible, _ = brute_force(2, ineqs + box_rows(2), objective)
        assert not bf_feasible


class TestDegenerateCycling:
    """Beale's LP (1955), the classic instance on which the textbook
    most-negative-reduced-cost rule cycles forever:

        min  -3/4 x4 + 150 x5 - 1/50 x6 + 6 x7
        s.t.  1/4 x4 -  60 x5 - 1/25 x6 + 9 x7 <= 0
              1/2 x4 -  90 x5 - 1/50 x6 + 3 x7 <= 0
              x6 <= 1,  x4..x7 >= 0

    whose optimum is -1/20 at x4 = 1/25, x6 = 1.  Both constraint rows
    are tight at the origin, a degenerate vertex.  ``check`` has to pivot
    away from it when the objective row itself carries the bound,
    feasible at the optimum and infeasible just below it.
    """

    ROWS = [
        {0: Fraction(1, 4), 1: Fraction(-60), 2: Fraction(-1, 25),
         3: Fraction(9)},
        {0: Fraction(1, 2), 1: Fraction(-90), 2: Fraction(-1, 50),
         3: Fraction(3)},
    ]
    OBJECTIVE = {0: Fraction(-3, 4), 1: Fraction(150),
                 2: Fraction(-1, 50), 3: Fraction(6)}
    OPTIMUM = Fraction(-1, 20)

    def build(self):
        simplex = Simplex()
        xs = [simplex.new_variable() for _ in range(4)]
        for lit, x in enumerate(xs, start=1):
            assert simplex.assert_lower(x, DeltaRational(0), lit) is None
        assert simplex.assert_upper(xs[2], DeltaRational(1), 5) is None
        for lit, coeffs in enumerate(self.ROWS, start=6):
            row = simplex.add_row({xs[i]: c for i, c in coeffs.items()})
            assert simplex.assert_upper(row, DeltaRational(0), lit) is None
        objective = simplex.add_row(
            {xs[i]: c for i, c in self.OBJECTIVE.items()})
        return simplex, xs, objective

    def test_reaches_the_optimum_by_phase_one(self, pivot_rule):
        simplex, xs, objective = self.build()
        assert simplex.assert_upper(
            objective, DeltaRational(self.OPTIMUM), 8) is None
        assert simplex.check() is None
        assert simplex.pivots < 20
        point = [simplex.value(x).c for x in xs]
        assert all(v >= 0 for v in point) and point[2] <= 1
        for coeffs in self.ROWS:
            assert sum(c * point[i] for i, c in coeffs.items()) <= 0
        assert sum(c * point[i] for i, c in self.OBJECTIVE.items()) \
            <= self.OPTIMUM

    def test_refutes_anything_below_the_optimum(self, pivot_rule):
        simplex, _, objective = self.build()
        assert simplex.assert_upper(
            objective, DeltaRational.strict_upper(self.OPTIMUM), 8) is None
        assert simplex.check() is not None
        assert simplex.pivots < 20

    def test_minimize_agrees(self):
        simplex, _, objective = self.build()
        assert simplex.check() is None
        assert simplex.minimize(objective) == DeltaRational(self.OPTIMUM)
