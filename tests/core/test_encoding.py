"""Tests for the SMT encodings: attack model internals and OPF model."""

from fractions import Fraction

import pytest

from repro.core.encoding import (
    AttackEncodingConfig,
    AttackModelEncoding,
    OpfModelEncoding,
)
from repro.exceptions import ModelError
from repro.grid.cases import get_case
from repro.opf import solve_dc_opf


@pytest.fixture(scope="module")
def case1():
    return get_case("5bus-study1")


@pytest.fixture(scope="module")
def case2():
    return get_case("5bus-study2")


class TestAttackModel:
    def test_solution_is_consistent(self, case1):
        encoding = AttackModelEncoding(case1)
        solution = encoding.solve()
        assert solution is not None
        # The topology attack attributes hold (Eqs. 11-12): only line 6 is
        # excludable in study 1.
        assert solution.excluded == [6]
        assert solution.included == []
        # Altered measurements are taken, accessible and unsecured
        # (Eqs. 18, 20).
        plan = encoding.plan
        for m in solution.altered_measurements:
            assert plan.is_taken(m)
            assert plan.is_alterable(m) and not plan.is_secured(m)
        # Resource limits (Eq. 22).
        assert len(solution.altered_measurements) <= \
            case1.resource_measurements
        assert len(solution.compromised_buses) <= case1.resource_buses

    def test_operating_point_is_physical(self, case1):
        encoding = AttackModelEncoding(case1)
        solution = encoding.solve()
        grid = encoding.grid
        # Dispatch within limits, flows within capacities (Eqs. 5-6).
        for bus, power in solution.operating_dispatch.items():
            gen = grid.generators[bus]
            assert gen.p_min <= power <= gen.p_max
        for line_index, flow in solution.operating_flows.items():
            assert abs(flow) <= grid.line(line_index).capacity
        # Power balance: total generation equals total load.
        assert sum(solution.operating_dispatch.values()) == \
            grid.total_load()

    def test_believed_loads_conserve_total(self, case1):
        encoding = AttackModelEncoding(case1)
        solution = encoding.solve()
        assert sum(solution.believed_loads.values()) == \
            encoding.grid.total_load()

    def test_block_structure_removes_topology_choice(self, case1):
        encoding = AttackModelEncoding(case1)
        first = encoding.solve()
        encoding.block_structure(first)
        second = encoding.solve()
        # Study 1 has a single excludable line, so nothing remains.
        assert second is None

    def test_forbid_topology_attack(self, case2):
        config = AttackEncodingConfig(include_state_infection=True,
                                      require_topology_attack=False,
                                      forbid_topology_attack=True,
                                      require_state_infection=True)
        encoding = AttackModelEncoding(case2, config)
        solution = encoding.solve()
        assert solution is not None
        assert solution.excluded == [] and solution.included == []
        assert solution.infected_states

    def test_contradictory_config_rejected(self, case1):
        config = AttackEncodingConfig(require_topology_attack=True,
                                      forbid_topology_attack=True)
        with pytest.raises(ModelError):
            AttackModelEncoding(case1, config)

    def test_require_state_without_include_rejected(self, case1):
        config = AttackEncodingConfig(include_state_infection=False,
                                      require_state_infection=True)
        with pytest.raises(ModelError):
            AttackModelEncoding(case1, config)

    def test_secured_statuses_block_all_attacks(self, case1):
        """With every line status secured, no topology attack exists."""
        from dataclasses import replace
        specs = [replace(s, status_secured=True)
                 for s in case1.line_specs]
        from repro.grid.caseio import CaseDefinition
        sealed = CaseDefinition(
            "sealed", specs, case1.measurement_specs, case1.bus_types,
            case1.generators, case1.loads, case1.resource_measurements,
            case1.resource_buses, case1.base_cost,
            case1.min_increase_percent)
        encoding = AttackModelEncoding(sealed)
        assert encoding.solve() is None

    def test_zero_measurement_budget_blocks_attack(self, case1):
        from repro.grid.caseio import CaseDefinition
        starved = CaseDefinition(
            "starved", case1.line_specs, case1.measurement_specs,
            case1.bus_types, case1.generators, case1.loads,
            0, case1.resource_buses, case1.base_cost,
            case1.min_increase_percent)
        encoding = AttackModelEncoding(starved)
        assert encoding.solve() is None

    def test_one_bus_budget_blocks_study1(self, case1):
        """Line 6's required alterations span buses 3 and 4 (> 1)."""
        from repro.grid.caseio import CaseDefinition
        limited = CaseDefinition(
            "limited", case1.line_specs, case1.measurement_specs,
            case1.bus_types, case1.generators, case1.loads,
            case1.resource_measurements, 1, case1.base_cost,
            case1.min_increase_percent)
        encoding = AttackModelEncoding(limited)
        assert encoding.solve() is None


class TestOpfModel:
    def test_feasible_at_loose_threshold(self, case1):
        grid = case1.build_grid()
        loads = {b: l.existing for b, l in grid.loads.items()}
        opf = OpfModelEncoding(grid, [l.index for l in grid.lines], loads)
        assert opf.check(Fraction(100000))
        assert opf.check(None)

    def test_unsat_below_optimum(self, case1):
        grid = case1.build_grid()
        loads = {b: l.existing for b, l in grid.loads.items()}
        opf = OpfModelEncoding(grid, [l.index for l in grid.lines], loads)
        exact = solve_dc_opf(grid, method="exact")
        assert not opf.check(exact.cost - 1)
        assert opf.check(exact.cost)

    def test_minimum_cost_matches_lp(self, case1):
        grid = case1.build_grid()
        loads = {b: l.existing for b, l in grid.loads.items()}
        opf = OpfModelEncoding(grid, [l.index for l in grid.lines], loads)
        exact = solve_dc_opf(grid, method="exact")
        assert opf.minimum_cost() == exact.cost

    def test_threshold_tightness_increases_work(self, case1):
        """Paper Fig. 5(a): tighter cost constraints are harder."""
        grid = case1.build_grid()
        loads = {b: l.existing for b, l in grid.loads.items()}
        exact = solve_dc_opf(grid, method="exact")
        tight = OpfModelEncoding(grid, [l.index for l in grid.lines],
                                 loads)
        tight.check(exact.cost * Fraction(1001, 1000))
        tight_conflicts = tight.solver.stats.conflicts
        loose = OpfModelEncoding(grid, [l.index for l in grid.lines],
                                 loads)
        loose.check(exact.cost * 2)
        loose_conflicts = loose.solver.stats.conflicts
        # Not a strict theorem, but holds robustly on this system.
        assert tight_conflicts >= loose_conflicts

    def test_infeasible_believed_system(self, case1):
        grid = case1.build_grid()
        loads = {b: l.existing for b, l in grid.loads.items()}
        # Without line 6 the original loads are unservable.
        opf = OpfModelEncoding(grid, [1, 2, 3, 4, 5, 7], loads)
        assert not opf.check(None)
        assert opf.minimum_cost() is None
