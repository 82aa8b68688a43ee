"""Budget-exhausted analyses degrade to partial reports, not errors."""

from fractions import Fraction

import pytest

from repro.core.fast import FastImpactAnalyzer
from repro.core.framework import ImpactAnalyzer, ImpactQuery
from repro.exceptions import BudgetExhausted
from repro.grid.cases import get_case
from repro.smt import SolverBudget


class _ScriptedBudget:
    """Duck-typed budget whose loop-top check trips after N probes.

    Lets tests pick exactly *when* in the analyzer loop exhaustion hits,
    independent of solver event counts.
    """

    def __init__(self, allowed_checks: int) -> None:
        self.allowed_checks = allowed_checks
        self.checks = 0
        self.exhausted_reason = None

    def start(self):
        return self

    def on_conflict(self):
        pass

    def on_decision(self):
        pass

    def on_pivot(self):
        pass

    def check_wall(self):
        self.checks += 1
        if self.checks > self.allowed_checks:
            self.exhausted_reason = "scripted budget exhausted"
            raise BudgetExhausted(self.exhausted_reason)

    def exhausted(self):
        try:
            self.check_wall()
        except BudgetExhausted:
            return True
        return False


class TestSmtAnalyzerPartialReports:
    def test_instant_exhaustion_yields_partial_report(self):
        analyzer = ImpactAnalyzer(get_case("5bus-study1"))
        budget = SolverBudget(max_decisions=1)
        report = analyzer.analyze(ImpactQuery(budget=budget))
        assert report.status == "budget_exhausted"
        assert report.is_partial
        assert report.satisfiable is False
        assert "decision budget" in report.budget_reason
        assert report.candidates_examined == 0
        assert report.attack is None
        # Partial statistics still cover the truncated search.
        assert report.trace is not None
        assert report.trace.smt["solve_calls"] >= 1
        assert report.trace.smt["decisions"] >= 1

    def test_partial_report_carries_best_attack_so_far(self):
        # Let one candidate through, then exhaust at the next loop-top
        # check: the report must carry the best sub-threshold attack.
        analyzer = ImpactAnalyzer(get_case("5bus-study1"))
        query = ImpactQuery(target_increase_percent=Fraction(50),
                            with_state_infection=True,
                            budget=_ScriptedBudget(allowed_checks=1))
        report = analyzer.analyze(query)
        assert report.status == "budget_exhausted"
        assert report.satisfiable is False
        assert report.budget_reason == "scripted budget exhausted"
        assert report.candidates_examined >= 1
        assert report.attack is not None
        assert report.believed_min_cost is not None
        assert report.believed_min_cost < report.threshold

    def test_generous_budget_reaches_complete_verdict(self):
        analyzer = ImpactAnalyzer(get_case("5bus-study1"))
        budget = SolverBudget(wall_seconds=120.0, max_conflicts=10 ** 9)
        report = analyzer.analyze(ImpactQuery(budget=budget))
        assert report.status == "complete"
        assert not report.is_partial
        assert report.budget_reason is None
        assert report.satisfiable is True

    def test_budgeted_verdict_matches_unbudgeted(self):
        case = get_case("5bus-study1")
        plain = ImpactAnalyzer(case).analyze(ImpactQuery())
        budgeted = ImpactAnalyzer(case).analyze(ImpactQuery(
            budget=SolverBudget(wall_seconds=120.0)))
        assert budgeted.satisfiable == plain.satisfiable
        assert budgeted.believed_min_cost == plain.believed_min_cost

    def test_render_mentions_budget(self):
        analyzer = ImpactAnalyzer(get_case("5bus-study1"))
        report = analyzer.analyze(ImpactQuery(
            budget=SolverBudget(max_decisions=1)))
        text = report.render()
        assert "unknown (budget exhausted)" in text
        assert "decision budget" in text


class TestFastAnalyzerPartialReports:
    def test_instant_exhaustion_yields_partial_report(self):
        analyzer = FastImpactAnalyzer(get_case("ieee14"))
        budget = SolverBudget(wall_seconds=0.0)
        report = analyzer.analyze(ImpactQuery(budget=budget))
        assert report.status == "budget_exhausted"
        assert "wall-clock" in report.budget_reason
        assert report.candidates_examined == 0
        assert report.satisfiable is False

    def test_mid_run_exhaustion_keeps_examined_candidates(self):
        analyzer = FastImpactAnalyzer(get_case("ieee14"))
        query = ImpactQuery(budget=_ScriptedBudget(allowed_checks=3))
        report = analyzer.analyze(query)
        assert report.status == "budget_exhausted"
        assert report.candidates_examined == 3
        assert report.budget_reason == "scripted budget exhausted"

    def test_generous_budget_complete(self):
        analyzer = FastImpactAnalyzer(get_case("ieee14"))
        plain = analyzer.analyze(ImpactQuery())
        budgeted = FastImpactAnalyzer(get_case("ieee14")).analyze(
            ImpactQuery(budget=SolverBudget(wall_seconds=120.0)))
        assert budgeted.status == "complete"
        assert budgeted.satisfiable == plain.satisfiable
        assert budgeted.candidates_examined == plain.candidates_examined


class TestEncodingUnknownSurfacing:
    def test_encoding_solve_raises_not_misreports(self):
        from repro.core.encoding import AttackModelEncoding
        encoding = AttackModelEncoding(get_case("5bus-study1"))
        encoding.solver.set_budget(SolverBudget(max_decisions=1).start())
        # UNKNOWN must never be conflated with "no attack exists".
        with pytest.raises(BudgetExhausted):
            encoding.solve()


def _exhaustive_query(budget=None):
    """Case study 2 with states at an unreachable 40%: the search must
    run the attack space dry."""
    return ImpactQuery(target_increase_percent=Fraction(40),
                       with_state_infection=True, self_check=True,
                       budget=budget)


class TestUnsatMeansExhausted:
    def test_unsat_runs_to_a_checked_unsat_proof(self):
        # 18 structures are examined before the attack model is unsat; a
        # search that stopped early would report unsat without ever
        # checking the terminal UNSAT proof.
        report = ImpactAnalyzer(get_case("5bus-study2")).analyze(
            _exhaustive_query())
        assert report.satisfiable is False
        assert report.status == "complete"
        assert report.certified is True
        assert report.candidates_examined == 18
        assert report.trace.certificates["unsat_checked"] >= 1
        assert report.verdict_basis == "proved"

    def test_stopped_search_is_never_a_complete_unsat(self):
        report = ImpactAnalyzer(get_case("5bus-study2")).analyze(
            _exhaustive_query(budget=SolverBudget(max_conflicts=50)))
        assert report.satisfiable is False
        assert report.status == "budget_exhausted"
        assert "conflict budget" in report.budget_reason
        assert report.verdict_basis is None


class TestNoQuantizedBlocking:
    """Blocking attack vectors at 2-decimal believed-load precision (the
    paper's scalability idea 1) used to certify an unsat below the true
    I*.  The mode is gone; these pin the search that replaced it."""

    @pytest.mark.parametrize("field", [{"precision": 2},
                                       {"extremize_structures": False}])
    def test_precision_mode_is_gone(self, field):
        with pytest.raises(TypeError):
            ImpactQuery(**field)

    def test_attack_just_below_true_max_is_found(self):
        # 4.38% lies below I* (4.391-4.398%); 2-decimal blocking
        # reported a certified, proved unsat here.
        report = ImpactAnalyzer(get_case("5bus-study1")).solve_at(
            Fraction("4.38"), ImpactQuery(self_check=True))
        assert report.status == "complete"
        assert report.satisfiable is True
        assert report.certified is True
        assert report.verdict_basis == "proved"

    def test_max_impact_lower_bound_is_not_quantized(self):
        analyzer = ImpactAnalyzer(get_case("5bus-study1"))
        result = analyzer.max_impact(tolerance=Fraction(1, 100))
        assert result.lower_bound >= Fraction(281, 64)


class TestCertifiedUnsatNeedsCheckedProof:
    def test_unchecked_smt_unsat_is_a_certificate_error(self, monkeypatch):
        # A search that claims a complete unsat without ever checking
        # an UNSAT proof must not be reported as a proved verdict.
        from repro.core.session import SearchOutcome
        monkeypatch.setattr(ImpactAnalyzer, "search",
                            lambda self, query, threshold:
                            SearchOutcome(satisfiable=False))
        report = ImpactAnalyzer(get_case("5bus-study1")).analyze(
            ImpactQuery(self_check=True))
        assert report.status == "certificate_error"
        assert report.certified is False
        assert report.verdict_basis is None
        assert "UNSAT proof" in report.certificate_error


class TestVerdictBasis:
    def test_smt_verdicts_are_proved(self):
        analyzer = ImpactAnalyzer(get_case("5bus-study1"))
        sat = analyzer.analyze(ImpactQuery())
        unsat = analyzer.analyze(
            ImpactQuery(target_increase_percent=Fraction(50)))
        assert (sat.satisfiable, unsat.satisfiable) == (True, False)
        assert sat.verdict_basis == unsat.verdict_basis == "proved"
        assert "verdict basis            : proved" in unsat.render()

    @pytest.mark.parametrize("with_states,basis", [
        (False, "restricted"),
        (True, "sampled"),
    ])
    def test_fast_unsat_says_what_it_searched(self, with_states, basis):
        report = FastImpactAnalyzer(get_case("5bus-study1")).analyze(
            ImpactQuery(target_increase_percent=Fraction(50),
                        with_state_infection=with_states,
                        state_samples=4))
        assert report.status == "complete"
        assert report.satisfiable is False
        assert report.verdict_basis == basis

    def test_fast_sat_is_proved(self):
        report = FastImpactAnalyzer(get_case("5bus-study1")).analyze(
            ImpactQuery(target_increase_percent=Fraction(1)))
        assert report.satisfiable is True
        assert report.verdict_basis == "proved"

    def test_partial_report_has_no_basis(self):
        report = ImpactAnalyzer(get_case("5bus-study1")).analyze(
            ImpactQuery(budget=SolverBudget(max_decisions=1)))
        assert report.status == "budget_exhausted"
        assert report.verdict_basis is None
