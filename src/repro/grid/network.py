"""The :class:`Grid` container: buses, lines, generators, loads.

A ``Grid`` is an immutable-ish value object describing the *physical*
system.  The view the EMS operates on — which lines the topology processor
believes are closed — is a separate concern handled by
:mod:`repro.topology`; analytical code takes an explicit set of in-service
line indices wherever topology matters.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set

from repro.exceptions import ModelError
from repro.grid.components import Bus, Generator, Line, Load


class Grid:
    """A DC-model transmission grid.

    Parameters
    ----------
    buses, lines:
        Components numbered contiguously from 1 (paper convention).
    generators, loads:
        At most one of each per bus (the paper assumes a generation bus has
        a single generator).
    reference_bus:
        The slack bus whose phase angle is fixed at zero.
    """

    def __init__(self, buses: Sequence[Bus], lines: Sequence[Line],
                 generators: Sequence[Generator] = (),
                 loads: Sequence[Load] = (),
                 reference_bus: int = 1) -> None:
        self.buses: List[Bus] = sorted(buses, key=lambda b: b.index)
        self.lines: List[Line] = sorted(lines, key=lambda l: l.index)
        self.generators: Dict[int, Generator] = {}
        self.loads: Dict[int, Load] = {}
        self.reference_bus = reference_bus
        for gen in generators:
            if gen.bus in self.generators:
                raise ModelError(f"duplicate generator at bus {gen.bus}")
            self.generators[gen.bus] = gen
        for load in loads:
            if load.bus in self.loads:
                raise ModelError(f"duplicate load at bus {load.bus}")
            self.loads[load.bus] = load
        self._validate()
        self._lines_in: Dict[int, List[Line]] = {b.index: [] for b in self.buses}
        self._lines_out: Dict[int, List[Line]] = {b.index: [] for b in self.buses}
        for line in self.lines:
            self._lines_out[line.from_bus].append(line)
            self._lines_in[line.to_bus].append(line)

    # -- validation --------------------------------------------------------

    def _validate(self) -> None:
        indices = [b.index for b in self.buses]
        if indices != list(range(1, len(indices) + 1)):
            raise ModelError("bus indices must be contiguous from 1")
        line_indices = [l.index for l in self.lines]
        if line_indices != list(range(1, len(line_indices) + 1)):
            raise ModelError("line indices must be contiguous from 1")
        bus_set = set(indices)
        for line in self.lines:
            if line.from_bus not in bus_set or line.to_bus not in bus_set:
                raise ModelError(
                    f"line {line.index} references an unknown bus")
        for bus in list(self.generators) + list(self.loads):
            if bus not in bus_set:
                raise ModelError(f"generator/load at unknown bus {bus}")
        if self.reference_bus not in bus_set:
            raise ModelError(f"unknown reference bus {self.reference_bus}")

    # -- dimensions ---------------------------------------------------------

    @property
    def num_buses(self) -> int:
        """b — the number of buses."""
        return len(self.buses)

    @property
    def num_lines(self) -> int:
        """l — the number of lines."""
        return len(self.lines)

    @property
    def num_potential_measurements(self) -> int:
        """m = 2l + b (paper Section III-B)."""
        return 2 * self.num_lines + self.num_buses

    # -- lookups -------------------------------------------------------------

    def bus(self, index: int) -> Bus:
        return self.buses[index - 1]

    def line(self, index: int) -> Line:
        return self.lines[index - 1]

    def lines_in(self, bus: int) -> List[Line]:
        """Lines whose *to* end is *bus* (the paper's L_{j,in})."""
        return self._lines_in[bus]

    def lines_out(self, bus: int) -> List[Line]:
        """Lines whose *from* end is *bus* (the paper's L_{j,out})."""
        return self._lines_out[bus]

    def lines_at(self, bus: int) -> List[Line]:
        return self._lines_in[bus] + self._lines_out[bus]

    def in_service_lines(self) -> List[Line]:
        return [line for line in self.lines if line.in_service]

    def total_load(self) -> Fraction:
        return sum((load.existing for load in self.loads.values()),
                   Fraction(0))

    def total_generation_capacity(self) -> Fraction:
        return sum((gen.p_max for gen in self.generators.values()),
                   Fraction(0))

    # -- topology ------------------------------------------------------------

    def is_connected(self, line_indices: Optional[Iterable[int]] = None) -> bool:
        """Is the grid connected using only the given lines?

        ``line_indices`` defaults to the lines that are in service.
        """
        if line_indices is None:
            active = [l for l in self.lines if l.in_service]
        else:
            chosen = set(line_indices)
            active = [l for l in self.lines if l.index in chosen]
        if self.num_buses == 0:
            return True
        adjacency: Dict[int, Set[int]] = {b.index: set() for b in self.buses}
        for line in active:
            adjacency[line.from_bus].add(line.to_bus)
            adjacency[line.to_bus].add(line.from_bus)
        seen = {self.buses[0].index}
        frontier = [self.buses[0].index]
        while frontier:
            bus = frontier.pop()
            for neighbor in adjacency[bus]:
                if neighbor not in seen:
                    seen.add(neighbor)
                    frontier.append(neighbor)
        return len(seen) == self.num_buses

    def bridges(self, line_indices: Iterable[int]) -> FrozenSet[int]:
        """The lines of ``line_indices`` whose removal islands the grid.

        Equals ``{i for i in line_indices if not self.is_connected(
        line_indices - {i})}`` in one O(buses + lines) pass: Tarjan's
        bridge search over line indices, so one of two parallel lines is
        never a bridge.  When the lines leave the grid disconnected
        already, every one of them "islands" it.
        """
        chosen = set(line_indices)
        if not self.is_connected(chosen):
            return frozenset(l.index for l in self.lines if l.index in chosen)
        incident: Dict[int, List[Line]] = {b.index: [] for b in self.buses}
        for line in self.lines:
            if line.index in chosen:
                incident[line.from_bus].append(line)
                incident[line.to_bus].append(line)
        order: Dict[int, int] = {}
        low: Dict[int, int] = {}
        found: Set[int] = set()
        # Iterative DFS frames: (bus, line it was entered by, edges left).
        stack: List = []

        def enter(bus: int, via: int) -> None:
            order[bus] = low[bus] = len(order)
            stack.append((bus, via, iter(incident[bus])))

        for bus in self.buses[:1]:
            enter(bus.index, 0)
        while stack:
            bus, via, edges = stack[-1]
            for line in edges:
                if line.index == via:
                    continue
                other = line.to_bus if line.from_bus == bus else line.from_bus
                if other in order:
                    low[bus] = min(low[bus], order[other])
                else:
                    enter(other, line.index)
                    break
            else:
                stack.pop()
                if stack:
                    parent = stack[-1][0]
                    low[parent] = min(low[parent], low[bus])
                    if low[bus] > order[parent]:
                        found.add(via)
        return frozenset(found)

    def with_line_statuses(self, in_service: Dict[int, bool]) -> "Grid":
        """A copy of the grid with some lines' service status changed."""
        new_lines = [
            replace(line, in_service=in_service.get(line.index,
                                                    line.in_service))
            for line in self.lines
        ]
        return Grid(self.buses, new_lines, list(self.generators.values()),
                    list(self.loads.values()), self.reference_bus)

    def with_loads(self, new_loads: Dict[int, Fraction]) -> "Grid":
        """A copy with the *existing* load at some buses replaced.

        Load bounds are widened if necessary so the replacement remains a
        valid :class:`Load` (used when applying attack-shifted loads).
        """
        loads = []
        for load in self.loads.values():
            value = new_loads.get(load.bus, load.existing)
            loads.append(Load(
                load.bus, value,
                max(load.p_max, value), min(load.p_min, value)))
        return Grid(self.buses, self.lines, list(self.generators.values()),
                    loads, self.reference_bus)

    def __repr__(self) -> str:
        return (f"Grid(b={self.num_buses}, l={self.num_lines}, "
                f"generators={len(self.generators)}, loads={len(self.loads)})")
