"""Observability analysis of a measurement configuration.

Two standard methods:

* **numerical** — rank of the gain matrix H^T H over the taken
  measurements (exact criterion for DC estimation),
* **topological** — flow-measured lines merge buses into islands and bus
  injection measurements stitch islands together (Krumpholz-style
  analysis, conservative but fast and explainable).

The paper assumes observable configurations; these checks are how a user
validates a measurement plan before running the attack analysis, and they
also feed the measurement-protection example.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set

from repro.estimation.measurement import MeasurementPlan, MeasurementType
from repro.grid.matrices import measurement_matrix
from repro.grid.network import Grid
from repro.numerics import guarded_rank, resolve_backend


def is_numerically_observable(plan: MeasurementPlan,
                              topology: Optional[Iterable[int]] = None,
                              taken: Optional[Iterable[int]] = None
                              ) -> bool:
    """Rank test: do the taken measurements determine all states?

    Uses the guarded, matrix-scaled rank so a *near*-rank-deficient
    configuration (which would estimate garbage) reads as unobservable
    instead of slipping past numpy's machine-epsilon tolerance.  On the
    sparse backend (picked by bus count) the rank is taken on the gain
    matrix H^T H (same rank as H for real entries), which keeps the test
    sparse end to end.
    """
    grid = plan.grid
    taken_list = sorted(taken) if taken is not None else plan.taken_indices()
    if not taken_list:
        return grid.num_buses <= 1
    rows = [i - 1 for i in taken_list]
    if resolve_backend(None, grid.num_buses) == "sparse":
        H = measurement_matrix(grid, topology,
                               backend="sparse").select_rows(rows)
        rank = guarded_rank(H.gram(), context="measurement matrix")
    else:
        H = measurement_matrix(grid, topology)[rows, :]
        rank = guarded_rank(H, context="measurement matrix")
    return rank == grid.num_buses - 1


def observable_islands(plan: MeasurementPlan,
                       topology: Optional[Iterable[int]] = None
                       ) -> List[Set[int]]:
    """Bus islands made observable by flow measurements alone."""
    grid = plan.grid
    active = set(topology) if topology is not None else {
        line.index for line in grid.lines if line.in_service}
    parent: Dict[int, int] = {b.index: b.index for b in grid.buses}

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a: int, b: int) -> None:
        parent[find(a)] = find(b)

    for index in plan.taken_indices():
        measurement = plan.measurement(index)
        if measurement.mtype is MeasurementType.BUS_CONSUMPTION:
            continue
        line = grid.line(measurement.line_index)
        if line.index in active:
            union(line.from_bus, line.to_bus)

    islands: Dict[int, Set[int]] = {}
    for bus in grid.buses:
        islands.setdefault(find(bus.index), set()).add(bus.index)
    return sorted(islands.values(), key=lambda s: min(s))


def is_topologically_observable(plan: MeasurementPlan,
                                topology: Optional[Iterable[int]] = None
                                ) -> bool:
    """Conservative check: islands + boundary injections cover the grid.

    Flow measurements merge endpoints; then a taken consumption
    measurement at a bus with exactly one active line crossing island
    boundaries can merge those islands.  Iterate to a fixed point.
    """
    grid = plan.grid
    active = set(topology) if topology is not None else {
        line.index for line in grid.lines if line.in_service}
    islands = observable_islands(plan, topology)
    island_of: Dict[int, int] = {}
    for i, island in enumerate(islands):
        for bus in island:
            island_of[bus] = i
    groups: List[Set[int]] = [set(s) for s in islands]

    injections = [
        plan.measurement(i).bus_index
        for i in plan.taken_indices()
        if plan.measurement(i).mtype is MeasurementType.BUS_CONSUMPTION
    ]

    merged = True
    while merged and len({island_of[b.index] for b in grid.buses}) > 1:
        merged = False
        for bus in injections:
            # Boundary lines: active lines at `bus` crossing islands.
            crossing = [
                line for line in grid.lines_at(bus)
                if line.index in active
                and island_of[line.from_bus] != island_of[line.to_bus]
            ]
            if len(crossing) == 1:
                line = crossing[0]
                a = island_of[line.from_bus]
                b = island_of[line.to_bus]
                keep, drop = min(a, b), max(a, b)
                for member in groups[drop]:
                    island_of[member] = keep
                groups[keep] |= groups[drop]
                groups[drop] = set()
                merged = True
    return len({island_of[b.index] for b in grid.buses}) == 1


def redundancy_level(plan: MeasurementPlan) -> float:
    """Taken measurements per state — the redundancy that powers BDD."""
    states = plan.grid.num_buses - 1
    if states == 0:
        return float("inf")
    return len(plan.taken_indices()) / states
