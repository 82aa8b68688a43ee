"""MaxImpactSearch: exact bisection to the maximum achievable impact.

Pins the search's guarantees: one reused SMT analyzer, a fresh SMT
analyzer per probe and the fast path agree on I* (within tolerance), the
reused analyzer does its O(log) probing on *one* encoding, the reported
I* never disagrees with a subsequent ``solve_at`` decision query
(Fraction-exact arithmetic), and budget exhaustion yields a partial
bracket instead of a wrong answer.
"""

import math
from fractions import Fraction

import pytest

from repro.core import FastImpactAnalyzer, ImpactAnalyzer, ImpactQuery
from repro.defense import with_budgets
from repro.exceptions import ModelError
from repro.grid.cases import get_case
from repro.search import DEFAULT_TOLERANCE, MaxImpactSearch
from repro.smt.budget import SolverBudget

TOL = DEFAULT_TOLERANCE


def _bisect(analyzer, **kwargs):
    return MaxImpactSearch(analyzer, **kwargs).run()


class _FreshPerProbe:
    """The ``solve_at`` surface on a fresh analyzer (a new encoding) for
    every probe."""

    def __init__(self, case):
        self.case = case

    def solve_at(self, percent, query=None):
        return ImpactAnalyzer(self.case).solve_at(percent, query)


class TestFiveBusParity:
    """Acceptance: same I* via one reused SMT analyzer ("warm"), a fresh
    SMT analyzer per probe ("cold") and the fast path."""

    @pytest.fixture(scope="class")
    def results(self):
        case = get_case("5bus-study1")
        return {
            "warm": _bisect(ImpactAnalyzer(case)),
            "cold": _bisect(_FreshPerProbe(case)),
            "fast": _bisect(FastImpactAnalyzer(case)),
        }

    def test_all_complete_and_satisfiable(self, results):
        for result in results.values():
            assert result.status == "complete"
            assert result.satisfiable
            assert result.witness is not None

    def test_same_istar_within_tolerance(self, results):
        values = [r.max_increase_percent for r in results.values()]
        assert max(values) - min(values) <= TOL
        # The paper's case study: the max 3%-style attack tops out just
        # below 4.5% on study 1.
        for value in values:
            assert Fraction(4) < value < Fraction(5)

    def test_brackets_are_tight_and_exact(self, results):
        for result in results.values():
            assert result.upper_bound - result.lower_bound <= TOL
            assert isinstance(result.lower_bound, Fraction)
            assert isinstance(result.upper_bound, Fraction)

    def test_warm_probes_one_encoding_olog_calls(self, results):
        warm = results["warm"]
        assert warm.encodings_built == 1
        assert warm.warm_solves == warm.solve_at_calls - 1
        # O(log((hi-lo)/eps)): gallop to 8 plus bisecting a <=4-wide
        # bracket at 1/8 tolerance stays well under this ceiling (a
        # linear sweep at the same resolution would take ~36 calls).
        bound = 3 + math.ceil(math.log2(64)) + \
            math.ceil(math.log2(64 / float(TOL)))
        assert warm.solve_at_calls <= bound
        cold = results["cold"]
        assert cold.encodings_built == cold.solve_at_calls
        assert cold.warm_solves == 0

    def test_istar_agrees_with_subsequent_decision_queries(self, results):
        """The satellite guarantee: solve_at(I*) SAT, solve_at(I*+eps)
        UNSAT — on a *fresh* analyzer, so no warm-state coincidence."""
        case = get_case("5bus-study1")
        for result in results.values():
            istar = result.max_increase_percent
            fresh = ImpactAnalyzer(case)
            assert fresh.solve_at(istar).satisfiable
            assert not ImpactAnalyzer(case).solve_at(
                istar + result.tolerance).satisfiable


class TestIeee14FastParity:
    def test_warm_equals_cold_fast(self):
        case = get_case("ieee14")
        warm_analyzer = FastImpactAnalyzer(case)
        warm = _bisect(warm_analyzer)
        cold = MaxImpactSearch(FastImpactAnalyzer(case)).run()
        assert warm.status == cold.status == "complete"
        assert warm.satisfiable == cold.satisfiable
        assert warm.lower_bound == cold.lower_bound
        assert warm.upper_bound == cold.upper_bound
        # one pipeline built, re-solved warm across the whole search
        assert warm.encodings_built == 1
        assert warm.warm_solves == warm.solve_at_calls - 1
        # and the verdict round-trips through a fresh decision query
        fresh = FastImpactAnalyzer(case)
        assert fresh.solve_at(warm.max_increase_percent).satisfiable
        assert not fresh.solve_at(
            warm.max_increase_percent + warm.tolerance).satisfiable


class TestPropertyRandomizedCases:
    """Property-style: random attacker budgets/seeds on the 5-bus case;
    the reported bracket must agree with subsequent decision queries."""

    SEEDS = [1, 2, 3, 5, 8]

    @pytest.mark.parametrize("seed", SEEDS)
    def test_fast_bracket_matches_decisions(self, seed):
        from repro.runner.spec import randomize_attacker
        case = randomize_attacker(get_case("5bus-study1"), seed)
        case = with_budgets(case, 2 + seed % 4, 1 + seed % 3)
        result = _bisect(FastImpactAnalyzer(case))
        assert result.status == "complete"
        fresh = FastImpactAnalyzer(case)
        if result.satisfiable:
            istar = result.max_increase_percent
            assert fresh.solve_at(istar).satisfiable
            assert not fresh.solve_at(istar + result.tolerance).satisfiable
        else:
            assert result.upper_bound == 0
            assert not fresh.solve_at(0).satisfiable

    def test_smt_bracket_matches_decisions_one_seed(self):
        from repro.runner.spec import randomize_attacker
        case = randomize_attacker(get_case("5bus-study1"), 7)
        result = _bisect(ImpactAnalyzer(case))
        assert result.status == "complete"
        fresh = ImpactAnalyzer(case)
        if result.satisfiable:
            istar = result.max_increase_percent
            assert fresh.solve_at(istar).satisfiable
            assert not fresh.solve_at(istar + result.tolerance).satisfiable
        else:
            assert not fresh.solve_at(0).satisfiable


class TestBudgetExhaustion:
    def test_exhausted_at_anchor_reports_empty_bracket(self):
        result = MaxImpactSearch(
            FastImpactAnalyzer(get_case("5bus-study1")),
            query=ImpactQuery(budget=SolverBudget(wall_seconds=1e-9))).run()
        assert result.status == "budget_exhausted"
        assert not result.satisfiable
        assert result.lower_bound is None
        assert result.upper_bound is None
        assert result.witness is None
        assert "wall-clock" in result.budget_reason

    def test_partial_bracket_is_sound(self):
        """Whatever the budget leaves proved must agree with fresh
        decision queries (the bracket is partial, never wrong)."""
        case = get_case("5bus-study1")
        result = MaxImpactSearch(
            ImpactAnalyzer(case),
            query=ImpactQuery(budget=SolverBudget(wall_seconds=0.5))).run()
        assert result.status in ("budget_exhausted", "complete")
        if result.lower_bound is not None:
            assert FastImpactAnalyzer(case).solve_at(
                result.lower_bound).satisfiable
        if result.upper_bound is not None:
            assert not FastImpactAnalyzer(case).solve_at(
                result.upper_bound).satisfiable
        if result.lower_bound is not None \
                and result.upper_bound is not None:
            assert result.lower_bound < result.upper_bound


class TestBracketControls:
    def test_hi_cap_cuts_the_gallop(self):
        # 5bus-study1 admits ~4.4%: the gallop's step past 4 lands on
        # the cap (6, not 8), which is unsat and closes the bracket.
        result = MaxImpactSearch(
            FastImpactAnalyzer(get_case("5bus-study1")),
            hi_cap=Fraction(6)).run()
        assert result.status == "complete"
        assert result.satisfiable
        assert result.upper_bound <= 6
        # anchor + gallop (1, 2, 4, cap) + bisection of [4, 6]
        assert result.solve_at_calls == 5 + math.ceil(
            math.log2(2 / float(TOL)))

    def test_satisfiable_at_cap_reports_capped(self):
        # 5bus-study1 admits ~4.4%: capping the search below that leaves
        # the true I* outside the searched bracket.
        result = MaxImpactSearch(
            FastImpactAnalyzer(get_case("5bus-study1")),
            hi_cap=Fraction(2)).run()
        assert result.status == "capped"
        assert result.satisfiable
        assert result.lower_bound == 2
        assert result.upper_bound is None
        assert result.max_increase_percent == 2

    def test_unsat_anchor_closes_immediately(self):
        result = MaxImpactSearch(
            FastImpactAnalyzer(get_case("5bus-study1")),
            lo=Fraction(50)).run()
        assert result.status == "complete"
        assert not result.satisfiable
        assert result.max_increase_percent is None
        assert result.upper_bound == 50
        assert result.solve_at_calls == 1

    def test_invalid_parameters_rejected(self):
        analyzer = FastImpactAnalyzer(get_case("5bus-study1"))
        with pytest.raises(ModelError):
            MaxImpactSearch(analyzer, tolerance=0)
        with pytest.raises(ModelError):
            MaxImpactSearch(analyzer, tolerance=Fraction(-1, 8))
        with pytest.raises(ModelError):
            MaxImpactSearch(analyzer, lo=Fraction(-1))
        with pytest.raises(ModelError):
            MaxImpactSearch(analyzer, lo=Fraction(5), hi_cap=Fraction(5))
        with pytest.raises(ModelError):
            MaxImpactSearch(analyzer, lo=Fraction(70))


class TestCertifiedSearch:
    def test_self_check_certifies_every_probe(self):
        result = MaxImpactSearch(
            ImpactAnalyzer(get_case("5bus-study2")),
            query=ImpactQuery(self_check=True)).run()
        assert result.status == "complete"
        assert result.certified is True
        assert result.witness_report.certified is True

    def test_to_dict_round_trips_exact_bounds(self):
        result = MaxImpactSearch(
            FastImpactAnalyzer(get_case("5bus-study1"))).run()
        payload = result.to_dict()
        assert Fraction(payload["lower_bound"]) == result.lower_bound
        assert Fraction(payload["upper_bound"]) == result.upper_bound
        assert Fraction(payload["tolerance"]) == result.tolerance
        assert payload["max_increase_percent"] == payload["lower_bound"]
        assert payload["witness"]["excluded"] == \
            list(result.witness.excluded)
        assert len(payload["probes"]) == result.solve_at_calls


class TestFacadeConvenience:
    def test_max_impact_methods_agree(self):
        case = get_case("5bus-study1")
        smt = ImpactAnalyzer(case).max_impact()
        fast = FastImpactAnalyzer(case).max_impact(
            tolerance=Fraction(1, 4))
        assert smt.status == fast.status == "complete"
        # A plain analyzer bisects on one encoding.
        assert smt.encodings_built == 1
        assert abs(smt.max_increase_percent
                   - fast.max_increase_percent) <= Fraction(1, 4)
