"""Seeded DPLL(T)-style operation sequences against the simplex invariants.

The SAT search drives :class:`~repro.smt.simplex.Simplex` through
``add_row``, ``assert_upper``/``assert_lower``, ``check`` and ``pop_to``;
the optimizer adds ``minimize``.  Each seeded sequence mixes those
operations and, after every one, checks what the rest of the solver
relies on:

* every tableau row is in lowest integer terms (``den > 0``,
  ``gcd(den, *nums) == 1``, no zero numerator, no basic variable on its
  right-hand side) and the column index mirrors the rows;
* every basic assignment equals its row evaluated at the nonbasic ones;
* after a ``check()`` that returns None, a full scan finds no variable
  outside its bounds (``check`` itself only rescans the rows it recorded
  as touched);
* every conflict explanation carries a Farkas witness that refutes the
  named bounds, checked against each variable's defining linear form
  over the original variables rather than against the tableau.

The sequences run under both entering rules of ``check``: the
sparsest-column heuristic, and Bland's fallback forced from the first
pivot.
"""

import random
from fractions import Fraction
from math import gcd

import pytest

from repro.exceptions import UnboundedError
from repro.smt.rational import DeltaRational
from repro.smt.simplex import Simplex

ZERO = DeltaRational(0)


def assert_tableau_invariants(simplex):
    assert simplex.den.keys() == simplex.rows.keys()
    for basic, row in simplex.rows.items():
        den = simplex.den[basic]
        assert den > 0
        assert gcd(den, *row.values()) == 1
        assert 0 not in row.values()
        assert not any(var in simplex.rows for var in row)
        value = ZERO
        for var, num in row.items():
            value = value + simplex.assign[var] * Fraction(num, den)
        assert simplex.assign[basic] == value, basic
    for var, column in simplex.cols.items():
        assert column == {basic for basic, row in simplex.rows.items()
                          if var in row}


def out_of_bounds(simplex):
    """Every variable, basic or not, whose value violates a bound."""
    found = []
    for var in range(simplex.num_vars):
        value = simplex.assign[var]
        lo, hi = simplex.lower[var], simplex.upper[var]
        if (lo is not None and value < lo) or (hi is not None and value > hi):
            found.append(var)
    return found


class OperationSequence:
    """One simplex driven by a seeded operation mix, plus what an
    independent Farkas check needs: each variable's linear form over the
    original variables and each literal's bound."""

    def __init__(self, seed):
        self.rng = random.Random(seed)
        self.simplex = Simplex()
        self.simplex.certify = True
        self.forms = {}     # var -> {original var: coefficient}
        self.bounds = {}    # literal -> (var, is_upper, bound)
        self.marks = []     # undo-log marks, one per asserted literal
        self.checks = self.conflicts = self.minimized = 0
        for _ in range(self.rng.randint(2, 5)):
            var = self.simplex.new_variable()
            self.forms[var] = {var: Fraction(1)}

    def add_row(self):
        rng, simplex = self.rng, self.simplex
        chosen = rng.sample(range(simplex.num_vars),
                            rng.randint(1, min(3, simplex.num_vars)))
        coeffs = {var: Fraction(rng.choice((-3, -2, -1, 1, 2, 3)),
                                rng.randint(1, 4))
                  for var in chosen}
        form = {}
        for var, coeff in coeffs.items():
            for orig, inner in self.forms[var].items():
                form[orig] = form.get(orig, 0) + coeff * inner
        self.forms[simplex.add_row(coeffs)] = form

    def assert_bound(self):
        rng, simplex = self.rng, self.simplex
        var = rng.randrange(simplex.num_vars)
        bound = DeltaRational(
            Fraction(rng.randint(-12, 12), rng.randint(1, 3)),
            rng.choice((0, 0, 1, -1)))
        upper = rng.random() < 0.5
        lit = len(self.bounds) + 1
        self.bounds[lit] = (var, upper, bound)
        self.marks.append(simplex.mark())
        tighten = simplex.assert_upper if upper else simplex.assert_lower
        self.settle(tighten(var, bound, lit))

    def check(self):
        conflict = self.simplex.check()
        if conflict is None:
            self.checks += 1
            assert out_of_bounds(self.simplex) == []
        self.settle(conflict)

    def settle(self, explanation):
        """Verify a conflict's Farkas witness, then backtrack as the SAT
        search would."""
        if explanation is None:
            return
        self.conflicts += 1
        witness = self.simplex.take_witness()
        assert [lit for lit, _ in witness] == explanation
        # Sum coeff * (form <= bound) over upper bounds and
        # coeff * (-form <= -bound) over lower bounds: every variable
        # must cancel, leaving 0 <= constant with constant < 0.
        combination, constant = {}, ZERO
        for lit, coeff in witness:
            assert coeff > 0
            var, upper, bound = self.bounds[lit]
            signed = coeff if upper else -coeff
            for orig, inner in self.forms[var].items():
                combination[orig] = combination.get(orig, 0) + signed * inner
            constant = constant + bound * signed
        assert all(value == 0 for value in combination.values())
        assert constant < ZERO
        self.backtrack()

    def backtrack(self):
        if self.marks:
            level = self.rng.randrange(len(self.marks))
            self.simplex.pop_to(self.marks[level])
            del self.marks[level:]

    def minimize(self):
        simplex = self.simplex
        if simplex.needs_check:
            return
        try:
            simplex.minimize(self.rng.randrange(simplex.num_vars))
        except UnboundedError:
            pass
        self.minimized += 1
        assert out_of_bounds(simplex) == []

    def run(self, steps):
        for _ in range(steps):
            roll = self.rng.random()
            if roll < 0.15 and self.simplex.num_vars < 14:
                self.add_row()
            elif roll < 0.55:
                self.assert_bound()
            elif roll < 0.8:
                self.check()
            elif roll < 0.9:
                self.backtrack()
            else:
                self.minimize()
            assert_tableau_invariants(self.simplex)
        return self


def test_random_sequences_keep_the_invariants():
    sequences = [OperationSequence(seed).run(80) for seed in range(60)]
    # The mix must reach every path to mean anything.
    assert sum(s.checks for s in sequences) >= 300
    assert sum(s.conflicts for s in sequences) >= 100
    assert sum(s.minimized for s in sequences) >= 50
    assert sum(s.simplex.pivots for s in sequences) >= 100


def test_random_sequences_keep_the_invariants_under_bland(bland_pivots):
    test_random_sequences_keep_the_invariants()


def test_entering_variable_is_rechecked_after_its_pivot():
    # Repairing s >= 10 pivots x in at 10, past x's own upper bound 1; x
    # is then basic but in no column, so only an explicit touch makes
    # check() see it.
    simplex = Simplex()
    x, y = simplex.new_variable(), simplex.new_variable()
    s = simplex.add_row({x: Fraction(1), y: Fraction(1)})
    simplex.assert_upper(x, DeltaRational(1), 1)
    simplex.assert_upper(y, DeltaRational(100), 2)
    simplex.assert_lower(s, DeltaRational(10), 3)
    assert simplex.check() is None
    assert out_of_bounds(simplex) == []
    assert simplex.pivots == 2
    assert_tableau_invariants(simplex)


def test_row_over_a_scaled_basic_row_divides_by_its_denominator():
    simplex = Simplex()
    x, y = simplex.new_variable(), simplex.new_variable()
    s1 = simplex.add_row({x: Fraction(1, 2), y: Fraction(1, 3)})
    s2 = simplex.add_row({s1: Fraction(2), x: Fraction(1)})  # 2x + 2y/3
    assert (simplex.rows[s1], simplex.den[s1]) == ({x: 3, y: 2}, 6)
    assert (simplex.rows[s2], simplex.den[s2]) == ({x: 6, y: 2}, 3)
    simplex.assert_lower(x, DeltaRational(3), 1)
    simplex.assert_lower(y, DeltaRational(3), 2)
    assert simplex.check() is None
    assert simplex.value(s2) == DeltaRational(8)
    assert_tableau_invariants(simplex)


@pytest.mark.parametrize("pivot_rule, entering", [
    ("sparsest", "y"), ("bland", "x")], indirect=["pivot_rule"])
def test_entering_variable_is_the_sparsest_column(pivot_rule, entering):
    # s >= 1 can be repaired through x (in two rows) or through y (in
    # s's row only): the heuristic takes y, Bland's rule the smaller
    # index x.
    simplex = Simplex()
    x, y = simplex.new_variable(), simplex.new_variable()
    s = simplex.add_row({x: Fraction(1), y: Fraction(1)})
    simplex.add_row({x: Fraction(2)})
    simplex.assert_lower(s, DeltaRational(1), 1)
    assert simplex.check() is None
    assert simplex.pivots == 1
    basic = {name for name, var in (("x", x), ("y", y))
             if simplex.is_basic(var)}
    assert basic == {entering}
    assert_tableau_invariants(simplex)
