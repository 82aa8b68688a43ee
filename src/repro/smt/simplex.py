"""General simplex for linear real arithmetic (Dutertre–de Moura, CAV'06).

This is the theory solver behind the DPLL(T) integration: it maintains a
tableau of *basic* variables defined as linear combinations of *nonbasic*
variables, plus per-variable lower/upper bounds asserted incrementally by
the SAT search.  Strict bounds are represented with
:class:`~repro.smt.rational.DeltaRational` infinitesimals, so all reasoning
is exact.

Tableau rows are integer-scaled: ``rows[b]`` maps each nonbasic variable
to an integer numerator and ``den[b]`` is the row's positive common
denominator, so ``b = sum(num * x for x, num in rows[b].items()) / den[b]``
with ``gcd(den[b], *rows[b].values()) == 1``.  Pivoting substitutes in
integers; :class:`~fractions.Fraction` coefficients appear only where a row
meets an assignment, a bound or a Farkas witness.

Bound violations are tracked rather than rescanned: ``_touched`` holds
every basic variable whose value or bounds changed since it was last seen
inside its bounds, a superset of the violated ones.  ``check`` scans it in
index order, so the smallest-index violated basic variable it picks to
leave is the one a scan of the whole tableau would pick.

The entering variable is the candidate with the sparsest column: of the
nonbasic variables that can move the violated row toward its bound, the
one in the fewest rows (ties to the smallest index), so each pivot
rewrites as few rows as it can.  Dutertre and de Moura allow any entering
heuristic as long as Bland's rule backs it up: after ``_SPARSE_PIVOTS``
pivots inside one ``check`` call, the rest of that call takes the
smallest-index candidate, which cannot cycle.

Key operations:

``assert_upper`` / ``assert_lower``
    Incrementally tighten a bound (recording undo information); detects
    immediate bound clashes and returns a two-literal explanation.

``check``
    Pivots (sparsest column, Bland fallback) until the assignment
    satisfies every bound or an infeasible row yields a conflict
    explanation (the set of SAT literals whose bounds participate in the
    row).

``minimize``
    Phase-2 simplex: minimizes a variable subject to the currently
    asserted bounds.  Used by :mod:`repro.smt.optimize` for exact OPF-cost
    minimization.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Dict, List, Optional, Set, Tuple

from repro.exceptions import SolverError, UnboundedError
from repro.smt.budget import SolverBudget
from repro.smt.rational import DeltaRational, resolve_delta

NO_LIT = 0

#: pivots one ``check`` call chooses by sparsest column before it falls
#: back to Bland's smallest-index rule, which guarantees termination.
#: Far above what any real query needs (the exact benchmark's largest
#: single check takes about a hundred pivots).
_SPARSE_PIVOTS = 1000


def _plus(x: Fraction, num: int, den: int) -> Fraction:
    """``x + num / den`` as a single :class:`Fraction` (``den > 0``)."""
    return Fraction(x.numerator * den + num * x.denominator,
                    x.denominator * den)


def _delta(c: Fraction, k: Fraction) -> DeltaRational:
    """``c + k*delta`` from parts that are already Fractions."""
    value = DeltaRational.__new__(DeltaRational)
    value.c = c
    value.k = k
    return value


class Simplex:
    """Bounded-variable simplex over exact delta-rationals."""

    def __init__(self) -> None:
        self.num_vars = 0
        # Tableau: basic var -> {nonbasic var -> integer numerator}, over
        # the row's common denominator den[basic] > 0.
        self.rows: Dict[int, Dict[int, int]] = {}
        self.den: Dict[int, int] = {}
        # nonbasic var -> set of basic vars whose row mentions it.
        self.cols: Dict[int, Set[int]] = {}
        self.assign: List[DeltaRational] = []
        self.lower: List[Optional[DeltaRational]] = []
        self.upper: List[Optional[DeltaRational]] = []
        self.lower_lit: List[int] = []
        self.upper_lit: List[int] = []
        # Basic vars that may violate a bound (plus stale entries that
        # check() drops): every violated basic var is in here.
        self._touched: Set[int] = set()
        # Undo log: one entry per assert_* call.
        self._log: List[Tuple] = []
        self.needs_check = False
        self.pivots = 0
        #: optional cooperative resource budget; checked at the top of
        #: every pivot, *before* the tableau is mutated, so an
        #: interrupted simplex stays consistent and reusable.
        self.budget: Optional[SolverBudget] = None
        #: when True, every conflict explanation also produces a Farkas
        #: witness in :attr:`last_witness` (``[(lit, coeff), ...]`` with
        #: nonnegative rational coefficients over the explanation
        #: literals).  Off by default: the conflict paths then allocate
        #: nothing beyond the explanation itself.
        self.certify = False
        self.last_witness: Optional[List[Tuple[int, Fraction]]] = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def new_variable(self) -> int:
        var = self.num_vars
        self.num_vars += 1
        self.assign.append(DeltaRational(0))
        self.lower.append(None)
        self.upper.append(None)
        self.lower_lit.append(NO_LIT)
        self.upper_lit.append(NO_LIT)
        self.cols[var] = set()
        return var

    def add_row(self, coeffs: Dict[int, Fraction]) -> int:
        """Create a fresh basic variable ``s`` with ``s = sum(coeffs)``.

        Any variable in *coeffs* that is currently basic is substituted by
        its row so the tableau stays in canonical (basic = f(nonbasic))
        form.  Returns the new variable.
        """
        s = self.new_variable()
        row: Dict[int, Fraction] = {}
        for var, coeff in coeffs.items():
            if coeff == 0:
                continue
            if var in self.rows:
                den = self.den[var]
                for inner, num in self.rows[var].items():
                    row[inner] = row.get(inner, Fraction(0)) \
                        + coeff * Fraction(num, den)
            else:
                row[var] = row.get(var, Fraction(0)) + coeff
        row = {v: c for v, c in row.items() if c != 0}
        den = lcm(*(c.denominator for c in row.values()))
        self.rows[s] = {v: c.numerator * (den // c.denominator)
                        for v, c in row.items()}
        self.den[s] = den
        for var in row:
            self.cols[var].add(s)
        # Initialize the assignment consistently with the row.
        value = DeltaRational(0)
        for var, coeff in row.items():
            value = value + self.assign[var] * coeff
        self.assign[s] = value
        return s

    def is_basic(self, var: int) -> bool:
        return var in self.rows

    def _coeff(self, basic: int, var: int) -> Fraction:
        """The rational coefficient of *var* in the row of *basic*."""
        return Fraction(self.rows[basic][var], self.den[basic])

    # ------------------------------------------------------------------
    # Incremental bound assertion
    # ------------------------------------------------------------------

    def assert_upper(self, var: int, bound: DeltaRational,
                     lit: int) -> Optional[List[int]]:
        """Assert ``var <= bound``; returns a conflict explanation or None."""
        lower = self.lower[var]
        if lower is not None and bound < lower:
            self._log.append(("noop",))
            explanation = [self.lower_lit[var]]
            if lit != NO_LIT:
                explanation.append(lit)
            if self.certify:
                self._set_witness([(self.lower_lit[var], 1), (lit, 1)])
            return [l for l in explanation if l != NO_LIT]
        current = self.upper[var]
        if current is not None and current <= bound:
            self._log.append(("noop",))
            return None
        self._log.append(("upper", var, current, self.upper_lit[var]))
        self.upper[var] = bound
        self.upper_lit[var] = lit
        if self.is_basic(var):
            self._touched.add(var)
        elif self.assign[var] > bound:
            self._update(var, bound)
        self.needs_check = True
        return None

    def assert_lower(self, var: int, bound: DeltaRational,
                     lit: int) -> Optional[List[int]]:
        """Assert ``var >= bound``; returns a conflict explanation or None."""
        upper = self.upper[var]
        if upper is not None and bound > upper:
            self._log.append(("noop",))
            explanation = [self.upper_lit[var]]
            if lit != NO_LIT:
                explanation.append(lit)
            if self.certify:
                self._set_witness([(self.upper_lit[var], 1), (lit, 1)])
            return [l for l in explanation if l != NO_LIT]
        current = self.lower[var]
        if current is not None and current >= bound:
            self._log.append(("noop",))
            return None
        self._log.append(("lower", var, current, self.lower_lit[var]))
        self.lower[var] = bound
        self.lower_lit[var] = lit
        if self.is_basic(var):
            self._touched.add(var)
        elif self.assign[var] < bound:
            self._update(var, bound)
        self.needs_check = True
        return None

    def mark(self) -> int:
        """Current undo-log position (for scoped retraction)."""
        return len(self._log)

    def pop(self, count: int = 1) -> None:
        """Undo the last *count* assert_* calls."""
        for _ in range(count):
            entry = self._log.pop()
            if entry[0] == "noop":
                continue
            kind, var, old_bound, old_lit = entry
            if kind == "upper":
                self.upper[var] = old_bound
                self.upper_lit[var] = old_lit
            else:
                self.lower[var] = old_bound
                self.lower_lit[var] = old_lit

    def pop_to(self, marker: int) -> None:
        self.pop(len(self._log) - marker)

    # ------------------------------------------------------------------
    # Assignment maintenance
    # ------------------------------------------------------------------

    def _update(self, nonbasic: int, value: DeltaRational) -> None:
        self._shift(nonbasic, value - self.assign[nonbasic])
        self.assign[nonbasic] = value

    def _shift(self, nonbasic: int, step: DeltaRational) -> None:
        """Move every basic variable in *nonbasic*'s column by its row's
        coefficient of *nonbasic* times *step*, straight from the row's
        integers: one Fraction per nonzero part of each new value."""
        rows, den, assign = self.rows, self.den, self.assign
        c_num, c_den = step.c.numerator, step.c.denominator
        k_num, k_den = step.k.numerator, step.k.denominator
        column = self.cols[nonbasic]
        for basic in column:
            num = rows[basic][nonbasic]
            d = den[basic]
            old = assign[basic]
            c = _plus(old.c, c_num * num, c_den * d) if c_num else old.c
            k = _plus(old.k, k_num * num, k_den * d) if k_num else old.k
            assign[basic] = _delta(c, k)
        self._touched.update(column)

    def _pivot(self, basic: int, nonbasic: int) -> None:
        """Exchange *basic* and *nonbasic* in the tableau (no value change)."""
        if self.budget is not None:
            self.budget.on_pivot()
        self.pivots += 1
        rows, den, cols = self.rows, self.den, self.cols
        row = rows.pop(basic)
        d = den.pop(basic)
        a = row.pop(nonbasic)
        for var in row:
            cols[var].discard(basic)
        cols[nonbasic].discard(basic)
        # nonbasic = (d * basic - sum(other terms)) / a, with the sign
        # moved onto the numerators so the denominator stays positive
        # (already in lowest terms: gcd(d, a, *row) == 1).
        if a > 0:
            new_row = {basic: d}
            for var, num in row.items():
                new_row[var] = -num
            new_den = a
        else:
            new_row = {basic: -d}
            new_row.update(row)
            new_den = -a
        # Substitute into every other row mentioning `nonbasic`, in place:
        # surviving entries keep their positions, new ones append in
        # new_row order.
        column = cols[nonbasic]
        for other in list(column):
            other_row = rows[other]
            factor = other_row.pop(nonbasic)
            column.discard(other)
            # other = (o_row + factor * new_row / new_den) / o_den
            #       = (scale * o_row + factor' * new_row) / (o_den * scale)
            shared = gcd(factor, new_den)
            scale = new_den // shared
            factor //= shared
            if scale != 1:
                for var in other_row:
                    other_row[var] *= scale
            for var, num in new_row.items():
                updated = other_row.get(var, 0) + factor * num
                if updated == 0:
                    if var in other_row:
                        del other_row[var]
                        cols[var].discard(other)
                else:
                    if var not in other_row:
                        cols[var].add(other)
                    other_row[var] = updated
            other_den = den[other] * scale
            common = gcd(other_den, *other_row.values())
            if common != 1:
                for var in other_row:
                    other_row[var] //= common
                other_den //= common
            den[other] = other_den
        rows[nonbasic] = new_row
        den[nonbasic] = new_den
        for var in new_row:
            cols[var].add(nonbasic)
        self._touched.add(nonbasic)

    def _pivot_and_update(self, basic: int, nonbasic: int,
                          value: DeltaRational) -> None:
        theta = (value - self.assign[basic]) / self._coeff(basic, nonbasic)
        self._shift(nonbasic, theta)
        self.assign[basic] = value
        self.assign[nonbasic] = self.assign[nonbasic] + theta
        # The entering variable becomes basic at a value its own bounds
        # may not allow; it is not in its own column, so add it here.
        self._touched.add(nonbasic)
        self._pivot(basic, nonbasic)

    # ------------------------------------------------------------------
    # Feasibility check
    # ------------------------------------------------------------------

    def check(self) -> Optional[List[int]]:
        """Pivot to feasibility; returns a conflict explanation or None."""
        if not self.needs_check:
            return None
        rows, touched = self.rows, self._touched
        assign, lower, upper = self.assign, self.lower, self.upper
        pivots = 0
        while True:
            violated = None
            below = False
            for var in sorted(touched):  # leaving: smallest index
                if var in rows:
                    value = assign[var]
                    lo = lower[var]
                    if lo is not None and value < lo:
                        violated, below = var, True
                        break
                    hi = upper[var]
                    if hi is not None and value > hi:
                        violated, below = var, False
                        break
                touched.discard(var)
            if violated is None:
                self.needs_check = False
                return None
            conflict = self._repair(violated, below,
                                    bland=pivots >= _SPARSE_PIVOTS)
            if conflict is not None:
                return conflict
            pivots += 1

    def _repair(self, basic: int, below: bool,
                bland: bool) -> Optional[List[int]]:
        """Pivot *basic* to its violated bound, or explain the conflict.

        The entering variable is the candidate in the fewest rows (ties
        to the smallest index), or with *bland* the smallest-index one.
        """
        row = self.rows[basic]
        target = self.lower[basic] if below else self.upper[basic]
        assert target is not None
        cols = self.cols
        entering, best = None, None
        for nonbasic, coeff in row.items():
            # Raising the row needs a positive-coefficient variable to
            # rise or a negative one to fall; lowering it, the reverse.
            if (coeff > 0) == below:
                can_help = self._can_increase(nonbasic)
            else:
                can_help = self._can_decrease(nonbasic)
            if can_help:
                key = nonbasic if bland \
                    else (len(cols[nonbasic]), nonbasic)
                if best is None or key < best:
                    entering, best = nonbasic, key
        if entering is not None:
            self._pivot_and_update(basic, entering, target)
            return None
        # No pivot candidate: the row is a certificate of infeasibility.
        explanation = []
        witness = [] if self.certify else None
        bound_lit = self.lower_lit[basic] if below else self.upper_lit[basic]
        if bound_lit != NO_LIT:
            explanation.append(bound_lit)
        if witness is not None:
            witness.append((bound_lit, 1))
        den = self.den[basic]
        for nonbasic, coeff in row.items():
            if below:
                lit = self.upper_lit[nonbasic] if coeff > 0 \
                    else self.lower_lit[nonbasic]
            else:
                lit = self.lower_lit[nonbasic] if coeff > 0 \
                    else self.upper_lit[nonbasic]
            if lit != NO_LIT:
                explanation.append(lit)
            if witness is not None:
                witness.append((lit, Fraction(abs(coeff), den)))
        if witness is not None:
            self._set_witness(witness)
        return explanation

    def _set_witness(self, pairs) -> None:
        """Record the Farkas witness for the conflict just explained.

        A bound asserted without a literal (``NO_LIT``) cannot be named
        in a certificate; the witness is then marked unavailable, which
        the checker treats as a failure — never as a silent accept.
        """
        if any(l == NO_LIT for l, _ in pairs):
            self.last_witness = None
        else:
            self.last_witness = [(l, Fraction(c)) for l, c in pairs]

    def take_witness(self) -> Optional[List[Tuple[int, Fraction]]]:
        """Consume the witness for the most recent conflict."""
        witness, self.last_witness = self.last_witness, None
        return witness

    def _can_increase(self, var: int) -> bool:
        hi = self.upper[var]
        return hi is None or self.assign[var] < hi

    def _can_decrease(self, var: int) -> bool:
        lo = self.lower[var]
        return lo is None or self.assign[var] > lo

    # ------------------------------------------------------------------
    # Phase-2 optimization
    # ------------------------------------------------------------------

    def minimize(self, objective: int,
                 max_pivots: int = 1000000) -> DeltaRational:
        """Minimize variable *objective* under the asserted bounds.

        Requires a feasible assignment (call :meth:`check` first).  Leaves
        the assignment at an optimal vertex and returns the minimum value.
        Raises :class:`UnboundedError` when the objective is unbounded
        below.
        """
        if self.needs_check:
            raise SolverError("minimize() requires a feasible tableau; "
                              "call check() first")
        # Ensure the objective is basic so its row expresses the gradient.
        if objective not in self.rows:
            if self.cols.get(objective):
                self._pivot(next(iter(self.cols[objective])), objective)
            else:
                # Free-standing variable: its minimum is its lower bound.
                lo = self.lower[objective]
                if lo is None:
                    raise UnboundedError("objective is unbounded below")
                self._update(objective, lo)
                return lo

        for _ in range(max_pivots):
            # The objective's own lower bound is itself a constraint; once
            # attained no further improvement is possible.
            own_lower = self.lower[objective]
            if own_lower is not None and self.assign[objective] <= own_lower:
                return self.assign[objective]
            row = self.rows[objective]
            entering = None
            direction = 0
            for nonbasic in sorted(row):
                coeff = row[nonbasic]
                if coeff < 0 and self._can_increase(nonbasic):
                    entering, direction = nonbasic, +1
                    break
                if coeff > 0 and self._can_decrease(nonbasic):
                    entering, direction = nonbasic, -1
                    break
            if entering is None:
                return self.assign[objective]
            self._move_entering(entering, direction, objective)
        raise SolverError("minimize() exceeded the pivot budget")

    def _move_entering(self, entering: int, direction: int,
                       objective: int) -> None:
        """Move *entering* as far as bounds allow in *direction* (+1/-1)."""
        # Limit from the entering variable's own bound.
        best_theta: Optional[DeltaRational] = None
        limiting: Optional[int] = None  # basic var that limits, or None
        own_bound = self.upper[entering] if direction > 0 \
            else self.lower[entering]
        if own_bound is not None:
            best_theta = (own_bound - self.assign[entering]) * direction
        # Ratio test over the basic variables in the entering column.
        # Ties broken toward the smallest variable index (Bland) to avoid
        # cycling on degenerate vertices.
        for basic in sorted(self.cols[entering]):
            # d(basic) = coeff * direction per unit of theta.
            slope = self._coeff(basic, entering) * direction
            bound = self.upper[basic] if slope > 0 else self.lower[basic]
            if bound is None:
                continue
            theta = (bound - self.assign[basic]) / slope
            if best_theta is None or theta < best_theta:
                best_theta = theta
                limiting = basic
        if best_theta is None:
            raise UnboundedError("objective is unbounded below")
        if limiting is None or limiting == objective:
            # The entering variable hits its own bound (or, degenerate,
            # the objective row limits itself): plain update.
            new_value = self.assign[entering] + best_theta * direction
            self._update(entering, new_value)
        else:
            slope = self.rows[limiting][entering] * direction
            target = self.upper[limiting] if slope > 0 \
                else self.lower[limiting]
            assert target is not None
            self._pivot_and_update(limiting, entering, target)

    # ------------------------------------------------------------------
    # Model extraction
    # ------------------------------------------------------------------

    def concrete_values(self) -> List[Fraction]:
        """Resolve delta and return rational values for all variables."""
        delta = resolve_delta(self.assign, self.lower, self.upper)
        return [value.substitute(delta) for value in self.assign]

    def value(self, var: int) -> DeltaRational:
        return self.assign[var]
