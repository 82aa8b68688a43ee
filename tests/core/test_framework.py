"""Tests reproducing the paper's case studies through the full framework.

These are the headline reproduction tests: the exact attack vectors the
paper reports for Tables II and III must come out of our SMT pipeline.
"""

from fractions import Fraction

import pytest

from repro.core.framework import ImpactAnalyzer, ImpactQuery
from repro.exceptions import ModelError
from repro.grid.cases import get_case


@pytest.fixture(scope="module")
def analyzer1():
    return ImpactAnalyzer(get_case("5bus-study1"))


@pytest.fixture(scope="module")
def analyzer2():
    return ImpactAnalyzer(get_case("5bus-study2"))


class TestBaseline:
    def test_base_cost(self, analyzer1):
        assert float(analyzer1.base_cost) == pytest.approx(1474.676655,
                                                           abs=1e-4)

    def test_threshold(self, analyzer1):
        threshold = analyzer1.threshold_for(Fraction(3))
        assert threshold == analyzer1.base_cost * Fraction(103, 100)


class TestCaseStudy1:
    """Paper Section III-G, case study 1 (Table II)."""

    def test_reproduces_paper_attack_vector(self, analyzer1):
        report = analyzer1.analyze(ImpactQuery(verify_with_smt_opf=True))
        assert report.satisfiable
        attack = report.attack
        assert attack.excluded == [6]
        assert attack.included == []
        assert attack.infected_states == []
        assert attack.altered_measurements == [6, 13, 17, 18]
        assert attack.compromised_buses == [3, 4]
        # "around 4%" more than the attack-free optimum.
        assert 4 < float(report.achieved_increase_percent) < 5
        assert report.smt_opf_unsat_confirmed

    def test_unsat_above_achievable(self, analyzer1):
        report = analyzer1.analyze(
            ImpactQuery(target_increase_percent=Fraction(5)))
        assert not report.satisfiable

    def test_believed_loads_within_bounds(self, analyzer1):
        report = analyzer1.analyze(ImpactQuery())
        grid = analyzer1.grid
        for bus, value in report.attack.believed_loads.items():
            load = grid.loads[bus]
            assert load.p_min <= value <= load.p_max

    def test_attack_respects_attacker_model(self, analyzer1):
        from repro.attacks.model import AttackerModel
        report = analyzer1.analyze(ImpactQuery())
        attacker = AttackerModel.from_case(analyzer1.case, analyzer1.grid)
        altered = set(report.attack.altered_measurements)
        assert attacker.check_alteration_set(altered) == []


class TestCaseStudy2:
    """Paper Section III-G, case study 2 (Table III)."""

    def test_reproduces_paper_attack_vector(self, analyzer2):
        report = analyzer2.analyze(
            ImpactQuery(with_state_infection=True,
                        verify_with_smt_opf=True))
        assert report.satisfiable
        attack = report.attack
        assert attack.excluded == [6]
        assert attack.infected_states == [3]
        assert attack.altered_measurements == [3, 6, 10, 13, 16, 18]
        assert attack.compromised_buses == [2, 3, 4]
        # Paper: loads of two buses move to 0.29 and 0.10.
        assert float(attack.believed_loads[2]) == pytest.approx(0.29,
                                                                abs=0.01)
        assert float(attack.believed_loads[4]) == pytest.approx(0.10,
                                                                abs=0.01)
        assert float(report.achieved_increase_percent) > 6
        assert report.smt_opf_unsat_confirmed

    def test_unsat_above_ceiling(self, analyzer2):
        report = analyzer2.analyze(
            ImpactQuery(target_increase_percent=Fraction(11),
                        with_state_infection=True))
        assert not report.satisfiable

    def test_state_attack_beats_pure_topology(self, analyzer2):
        """The combined attack reaches strictly higher impact."""
        pure = analyzer2.max_impact(
            query=ImpactQuery(with_state_infection=False))
        combined = analyzer2.max_impact(
            query=ImpactQuery(with_state_infection=True))
        assert pure.status == combined.status == "complete"
        # Both brackets are proved: I* in [35/8, 9/2) without states,
        # in [83/8, 21/2) with them.
        assert combined.lower_bound > pure.upper_bound

    def test_ufdi_alone_cannot_reach_target(self, analyzer2):
        """Paper: without topology attacks the 6% objective fails."""
        report = analyzer2.analyze(
            ImpactQuery(target_increase_percent=Fraction(6),
                        with_state_infection=True,
                        allow_topology_attack=False))
        assert not report.satisfiable

    def test_ufdi_alone_some_impact_exists(self, analyzer2):
        report = analyzer2.analyze(
            ImpactQuery(target_increase_percent=Fraction(1),
                        with_state_infection=True,
                        allow_topology_attack=False))
        assert report.satisfiable
        assert report.attack.excluded == []
        assert report.attack.included == []
        assert report.attack.infected_states


class TestQueryValidation:
    def test_no_attack_kind_rejected(self, analyzer1):
        with pytest.raises(ModelError):
            analyzer1.analyze(ImpactQuery(allow_topology_attack=False,
                                          with_state_infection=False))


class TestReportRendering:
    def test_render_sat(self, analyzer1):
        from repro.estimation.measurement import MeasurementPlan
        report = analyzer1.analyze(ImpactQuery())
        text = report.render(MeasurementPlan.from_case(analyzer1.case))
        assert "verdict                  : sat" in text
        assert "exclusion attack on line(s) [6]" in text
        assert "m6: forward flow of line 6" in text

    def test_render_unsat(self, analyzer1):
        report = analyzer1.analyze(
            ImpactQuery(target_increase_percent=Fraction(20)))
        text = report.render()
        assert "unsat" in text
