"""Regression tests pinning the Eq. 37 threshold boundary semantics.

The paper's impact constraint (Eq. 37) asks for a cost increase of *at
least* I%, so an attack whose believed-minimum cost lands exactly on the
threshold ``base * (1 + I/100)`` is a successful attack.  Both analyzers
must treat the boundary inclusively (``cost >= threshold``); these tests
feed each analyzer its own maximum achievable increase back as the target
and require a sat verdict — a strict ``>`` comparison fails them.
"""

from fractions import Fraction

import pytest

from repro.core.fast import FastImpactAnalyzer
from repro.core.framework import ImpactAnalyzer, ImpactQuery
from repro.grid.cases import get_case


@pytest.fixture(scope="module")
def smt_analyzer():
    return ImpactAnalyzer(get_case("5bus-study1"))


@pytest.fixture(scope="module")
def fast_analyzer():
    return FastImpactAnalyzer(get_case("5bus-study1"))


class TestSmtBoundary:
    def test_exact_boundary_is_satisfiable(self, smt_analyzer):
        baseline = smt_analyzer.analyze(ImpactQuery())
        assert baseline.satisfiable
        achieved = baseline.achieved_increase_percent
        assert isinstance(achieved, Fraction)  # exact rational arithmetic

        # Re-target the analysis at exactly the increase just achieved:
        # Eq. 37 says "at least", so this must stay satisfiable even
        # though no strictly greater increase may exist.
        boundary = smt_analyzer.analyze(
            ImpactQuery(target_increase_percent=achieved))
        assert boundary.satisfiable
        assert boundary.achieved_increase_percent >= achieved

    def test_evaluate_accepts_cost_equal_to_threshold(self, smt_analyzer):
        # Unit-level pin: _evaluate with the threshold set to exactly the
        # believed-optimum cost of a known attack must report success.
        report = smt_analyzer.analyze(ImpactQuery())
        assert report.satisfiable
        success, cost = smt_analyzer._evaluate(
            report.attack, report.believed_min_cost)
        assert cost == report.believed_min_cost
        assert success

    def test_threshold_definition(self, smt_analyzer):
        # threshold = base * (1 + I/100), computed exactly
        percent = Fraction(437, 100)
        threshold = smt_analyzer.threshold_for(percent)
        assert threshold == smt_analyzer.base_cost \
            * (1 + percent / 100)


def _best_percent(fast_analyzer):
    baseline = fast_analyzer.analyze(ImpactQuery(state_samples=4))
    assert baseline.satisfiable
    values = [e.best_increase_percent
              for e in fast_analyzer.evaluations
              if e.best_increase_percent is not None]
    return max(values)


class TestFastBoundary:
    def _best_percent(self, fast_analyzer):
        return _best_percent(fast_analyzer)

    def test_exact_boundary_is_satisfiable(self, fast_analyzer):
        best = self._best_percent(fast_analyzer)
        # Fraction(float) is exact, so the target round-trips to the
        # float the analyzer compares against — a true boundary hit.
        report = fast_analyzer.analyze(ImpactQuery(
            target_increase_percent=Fraction(best), state_samples=4))
        assert report.satisfiable
        assert report.achieved_increase_percent is not None

    def test_just_above_boundary_is_unsat(self, fast_analyzer):
        best = self._best_percent(fast_analyzer)
        report = fast_analyzer.analyze(ImpactQuery(
            target_increase_percent=Fraction(best) + Fraction(1, 1000),
            state_samples=4))
        assert not report.satisfiable


class TestBoundaryEscalationParity:
    """A float verdict that lands inside the Eq. 37 guard band is never
    decided by float comparison: it is re-derived on the exact OPF path,
    and the verdict agrees between a warm (reused) analyzer and a cold
    (freshly prepared) one."""

    def _codes(self, report):
        return {d.code for d in (report.diagnostics.diagnostics
                                 if report.diagnostics else [])}

    def test_boundary_hit_is_escalated(self, fast_analyzer):
        best = _best_percent(fast_analyzer)
        report = fast_analyzer.analyze(ImpactQuery(
            target_increase_percent=Fraction(best), state_samples=4))
        assert report.satisfiable
        assert "numeric.boundary_escalated" in self._codes(report)
        assert report.trace.session["boundary_escalations"] >= 1

    def test_warm_and_cold_verdicts_agree_at_boundary(self, fast_analyzer):
        best = _best_percent(fast_analyzer)
        for delta in (Fraction(0), Fraction(1, 1000)):
            query = ImpactQuery(
                target_increase_percent=Fraction(best) + delta,
                state_samples=4)
            warm = fast_analyzer.analyze(query)  # session reused
            cold = FastImpactAnalyzer(
                get_case("5bus-study1")).analyze(query)
            assert warm.satisfiable == cold.satisfiable, delta
            assert warm.status == cold.status == "complete"

    def test_fast_and_smt_verdicts_agree_at_boundary(self, fast_analyzer,
                                                     smt_analyzer):
        # The fast analyzer's own maximum, replayed as the target, must
        # be reachable by the exhaustive exact analyzer too: the exact
        # optimum dominates the fast path's best candidate.
        best = _best_percent(fast_analyzer)
        fast = fast_analyzer.analyze(ImpactQuery(
            target_increase_percent=Fraction(best), state_samples=4))
        smt = smt_analyzer.analyze(
            ImpactQuery(target_increase_percent=Fraction(best)))
        assert fast.satisfiable and smt.satisfiable

    def test_far_from_boundary_no_escalation(self, fast_analyzer):
        # A comfortable target on a clean grid decides on floats alone.
        report = fast_analyzer.analyze(ImpactQuery(
            target_increase_percent=1, state_samples=4))
        assert report.satisfiable
        assert report.trace.session["boundary_escalations"] == 0
