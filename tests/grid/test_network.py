"""Tests for the Grid container."""

import random
from fractions import Fraction

import pytest

from repro.exceptions import ModelError
from repro.grid.components import Bus, Generator, Line, Load
from repro.grid.network import Grid
from repro.grid.cases import case_names, get_case


@pytest.fixture
def five_bus():
    return get_case("5bus-study1").build_grid()


class TestConstruction:
    def test_dimensions(self, five_bus):
        assert five_bus.num_buses == 5
        assert five_bus.num_lines == 7
        assert five_bus.num_potential_measurements == 19

    def test_noncontiguous_buses_rejected(self):
        with pytest.raises(ModelError):
            Grid([Bus(1), Bus(3)], [])

    def test_noncontiguous_lines_rejected(self):
        with pytest.raises(ModelError):
            Grid([Bus(1), Bus(2)], [Line(2, 1, 2, 1, 1)])

    def test_line_to_unknown_bus_rejected(self):
        with pytest.raises(ModelError):
            Grid([Bus(1), Bus(2)], [Line(1, 1, 9, 1, 1)])

    def test_duplicate_generator_rejected(self):
        with pytest.raises(ModelError):
            Grid([Bus(1), Bus(2)], [Line(1, 1, 2, 1, 1)],
                 [Generator(1, 1, 0, 1, 1), Generator(1, 2, 0, 1, 1)])

    def test_unknown_reference_bus_rejected(self):
        with pytest.raises(ModelError):
            Grid([Bus(1)], [], reference_bus=5)


class TestIncidence:
    def test_lines_in_out(self, five_bus):
        # Line 6 runs 3 -> 4.
        assert [l.index for l in five_bus.lines_out(3)] == [6]
        in_4 = [l.index for l in five_bus.lines_in(4)]
        assert 6 in in_4 and 4 in in_4

    def test_lines_at(self, five_bus):
        at_5 = {l.index for l in five_bus.lines_at(5)}
        assert at_5 == {2, 5, 7}

    def test_totals(self, five_bus):
        assert five_bus.total_load() == Fraction(83, 100)
        assert five_bus.total_generation_capacity() == Fraction(19, 10)


class TestTopology:
    def test_connected_default(self, five_bus):
        assert five_bus.is_connected()

    def test_disconnected_when_cut(self, five_bus):
        # Cutting lines 2, 5 and 7 isolates bus 5.
        assert not five_bus.is_connected([1, 3, 4, 6])

    def test_connected_spanning_subset(self, five_bus):
        assert five_bus.is_connected([1, 2, 3, 4])

    def test_with_line_statuses(self, five_bus):
        modified = five_bus.with_line_statuses({6: False})
        assert not modified.line(6).in_service
        assert five_bus.line(6).in_service  # original untouched
        assert len(modified.in_service_lines()) == 6

    def test_with_loads_widens_bounds(self, five_bus):
        shifted = five_bus.with_loads({3: Fraction(29, 100),
                                       5: Fraction(1, 10)})
        assert shifted.loads[3].existing == Fraction(29, 100)
        assert shifted.loads[5].existing == Fraction(1, 10)
        assert shifted.loads[2].existing == five_bus.loads[2].existing

    def test_with_loads_total_changes(self, five_bus):
        shifted = five_bus.with_loads({2: Fraction(0)})
        assert shifted.total_load() == five_bus.total_load() - Fraction(21, 100)


def _islanding_lines(grid, lines):
    """The brute-force definition of :meth:`Grid.bridges`."""
    return frozenset(i for i in lines
                     if not grid.is_connected([j for j in lines if j != i]))


class TestBridges:
    def test_parallel_twin_is_never_a_bridge(self):
        grid = Grid([Bus(1), Bus(2), Bus(3)],
                    [Line(1, 1, 2, 1, 1), Line(2, 1, 2, 1, 1),
                     Line(3, 2, 3, 1, 1)])
        assert grid.bridges([1, 2, 3]) == {3}
        assert grid.bridges([1, 3]) == {1, 3}

    def test_disconnected_lines_all_island(self, five_bus):
        assert five_bus.bridges([1, 3, 4, 6]) == {1, 3, 4, 6}

    @pytest.mark.parametrize("name", case_names())
    def test_bundled_bridges_match_brute_force(self, name):
        grid = get_case(name).build_grid()
        base = [line.index for line in grid.lines if line.in_service]
        bridges = grid.bridges(base)
        if len(base) <= 500:
            assert bridges == _islanding_lines(grid, base)
            return
        # The large synthetic cases: every bridge, and a seeded sample
        # of the other lines, checked by brute force.
        sample = random.Random(name).sample(
            [i for i in base if i not in bridges], 100)
        for i in list(bridges) + sample:
            remaining = [j for j in base if j != i]
            assert grid.is_connected(remaining) is (i not in bridges)
