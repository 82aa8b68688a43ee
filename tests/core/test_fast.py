"""Tests for the fast (LODF/LCDF) analyzer and its agreement with the
full SMT framework on the 5-bus system."""

from fractions import Fraction

import pytest

from repro.core.fast import FastImpactAnalyzer
from repro.core.framework import ImpactAnalyzer, ImpactQuery
from repro.grid.cases import get_case


@pytest.fixture(scope="module")
def fast1():
    return FastImpactAnalyzer(get_case("5bus-study1"))


class TestFiveBusAgreement:
    def test_same_attack_as_smt(self, fast1):
        report = fast1.analyze(ImpactQuery())
        assert report.satisfiable
        attack = report.attack
        assert attack.excluded == [6]
        assert attack.altered_measurements == [6, 13, 17, 18]
        assert attack.compromised_buses == [3, 4]

    def test_same_impact_magnitude_as_smt(self, fast1):
        fast_report = fast1.analyze(ImpactQuery())
        smt_report = ImpactAnalyzer(get_case("5bus-study1")).analyze(
            ImpactQuery())
        assert float(fast_report.achieved_increase_percent) == \
            pytest.approx(float(smt_report.achieved_increase_percent),
                          abs=0.2)

    def test_unsat_above_ceiling(self, fast1):
        report = fast1.analyze(
            ImpactQuery(target_increase_percent=Fraction(5)))
        assert not report.satisfiable

    def test_candidate_diagnostics(self, fast1):
        fast1.analyze(ImpactQuery())
        by_line = {e.line_index: e for e in fast1.evaluations}
        # Line 6 is the only feasible candidate in study 1.
        assert by_line[6].feasible
        assert len(fast1.evaluations) == 1


class TestScalability:
    @pytest.mark.parametrize("name,buses", [
        ("ieee14", 14), ("ieee30", 30), ("ieee57", 57),
    ])
    def test_runs_on_ieee_systems(self, name, buses):
        analyzer = FastImpactAnalyzer(get_case(name))
        report = analyzer.analyze(ImpactQuery(target_increase_percent=1))
        assert report.candidates_examined > 0
        assert report.elapsed_seconds < 60

    def test_ieee14_finds_attack(self):
        analyzer = FastImpactAnalyzer(get_case("ieee14"))
        report = analyzer.analyze(ImpactQuery(target_increase_percent=1))
        assert report.satisfiable
        attack = report.attack
        assert len(attack.excluded) + len(attack.included) == 1
        # The reported believed loads stay within believability bounds.
        grid = analyzer.grid
        for bus, value in attack.believed_loads.items():
            load = grid.loads[bus]
            tolerance = Fraction(1, 1000)
            assert load.p_min - tolerance <= value <= \
                load.p_max + tolerance

    def test_state_infection_never_hurts(self):
        analyzer = FastImpactAnalyzer(get_case("ieee14"))
        pure = analyzer.analyze(
            ImpactQuery(target_increase_percent=Fraction(1, 2)))
        with_state = analyzer.analyze(
            ImpactQuery(target_increase_percent=Fraction(1, 2),
                        with_state_infection=True, state_samples=12))
        if pure.satisfiable:
            assert with_state.satisfiable
            assert float(with_state.achieved_increase_percent) >= \
                float(pure.achieved_increase_percent) - 1e-9

    def test_deterministic_given_seed(self):
        a = FastImpactAnalyzer(get_case("ieee30")).analyze(
            ImpactQuery(with_state_infection=True, seed=5,
                        state_samples=8))
        b = FastImpactAnalyzer(get_case("ieee30")).analyze(
            ImpactQuery(with_state_infection=True, seed=5,
                        state_samples=8))
        assert a.satisfiable == b.satisfiable
        if a.satisfiable:
            assert a.believed_min_cost == b.believed_min_cost
