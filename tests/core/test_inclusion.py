"""Inclusion-attack coverage: the paper's second attack kind.

None of the stock cases has an open line, so these tests build a variant
of the 5-bus system where line 6 is physically open (and its status
unsecured), making it an inclusion candidate, and drive both the SMT
encoding and the fast analyzer through the q_i path.
"""

from dataclasses import replace
from fractions import Fraction

import pytest

from repro.attacks.model import AttackerModel
from repro.core.encoding import AttackEncodingConfig, AttackModelEncoding
from repro.core.fast import FastImpactAnalyzer
from repro.core.session import ImpactQuery
from repro.grid.caseio import CaseDefinition
from repro.grid.cases import get_case
from repro.opf import solve_dc_opf


@pytest.fixture(scope="module")
def open_line_case():
    """5-bus study-1 variant: line 6 is open but spoofable as closed."""
    base = get_case("5bus-study1")
    specs = []
    for spec in base.line_specs:
        if spec.index == 6:
            specs.append(replace(spec, in_true_topology=False))
        elif spec.index == 5:
            # Widen line 5 so the attack-free (line-6-less) OPF converges.
            specs.append(replace(spec, capacity=Fraction(3, 10)))
        else:
            specs.append(spec)
    return CaseDefinition(
        "5bus-line6-open", specs, base.measurement_specs,
        base.bus_types, base.generators, base.loads,
        base.resource_measurements, base.resource_buses,
        base.base_cost, Fraction(1))


class TestSetup:
    def test_attack_free_opf_feasible(self, open_line_case):
        grid = open_line_case.build_grid()
        assert not grid.line(6).in_service
        result = solve_dc_opf(grid, method="exact")
        assert result.feasible

    def test_line6_is_an_inclusion_candidate(self, open_line_case):
        attacker = AttackerModel.from_case(open_line_case)
        assert attacker.inclusion_candidates() == [6]
        assert attacker.exclusion_candidates() == []


class TestEncodingInclusionPath:
    def test_solver_finds_inclusion_attack(self, open_line_case):
        encoding = AttackModelEncoding(open_line_case,
                                       AttackEncodingConfig())
        solution = encoding.solve()
        assert solution is not None
        assert solution.included == [6]
        assert solution.excluded == []
        # The believed topology gains the phantom line.
        believed = solution.believed_topology(encoding.grid)
        assert 6 in believed

    def test_included_line_flow_measurements_altered(self, open_line_case):
        """A phantom line must show a (nonzero) flow: its measurements,
        when taken, are altered (Eqs. 14, 17)."""
        encoding = AttackModelEncoding(open_line_case,
                                       AttackEncodingConfig())
        solution = encoding.solve()
        l = encoding.grid.num_lines
        taken_flow = [m for m in (6, l + 6)
                      if encoding.plan.is_taken(m)]
        if solution.altered_measurements:
            # Any altered flow measurement of line 6 is among the taken.
            for m in solution.altered_measurements:
                if m in (6, l + 6):
                    assert m in taken_flow

    def test_inclusion_blocked_when_status_secured(self, open_line_case):
        specs = [replace(s, status_secured=True) if s.index == 6 else s
                 for s in open_line_case.line_specs]
        sealed = CaseDefinition(
            "sealed-open", specs, open_line_case.measurement_specs,
            open_line_case.bus_types, open_line_case.generators,
            open_line_case.loads, open_line_case.resource_measurements,
            open_line_case.resource_buses, open_line_case.base_cost,
            open_line_case.min_increase_percent)
        encoding = AttackModelEncoding(sealed, AttackEncodingConfig())
        assert encoding.solve() is None


class TestFastAnalyzerInclusionPath:
    def test_candidate_enumerated(self, open_line_case):
        analyzer = FastImpactAnalyzer(open_line_case)
        analyzer.analyze(ImpactQuery(target_increase_percent=Fraction(1)))
        kinds = {(e.kind, e.line_index) for e in analyzer.evaluations}
        assert ("include", 6) in kinds

    def test_believed_costs_evaluated_with_lcdf(self, open_line_case):
        analyzer = FastImpactAnalyzer(open_line_case)
        report = analyzer.analyze(
            ImpactQuery(target_increase_percent=Fraction(1, 100)))
        evaluation = analyzer.evaluations[0]
        # Whether or not an impact was found, the LCDF evaluation must
        # have produced a believed cost (feasible) or a concrete reason.
        assert evaluation.feasible or evaluation.reason
