"""Shift-factor (PTDF) formulation of DC-OPF with LODF/LCDF corrections.

This is the paper's second scalability idea (Section IV-A): replace the
angle variables with generation-to-load distribution factors so the OPF
has only the generator outputs as decision variables, and handle a single
line exclusion (or inclusion) through line-outage / line-closure
distribution factors instead of rebuilding the network equations.

The formulation is mathematically equivalent to the angle formulation for
the same topology (verified in the tests) but solves much faster because
the LP drops from ``b + g`` variables and ``b + 2l`` constraints to ``g``
variables and at most ``2l + 1`` constraints, and the susceptance
factorization is computed once per base topology.

Since the sparse-scaling refactor the flow model is built from the
*generator columns* of the PTDF (one batched factorized solve) plus one
solve per demand vector — the full l x b PTDF array is never formed.  On
the sparse backend the LP additionally uses *row generation*: it starts
with no line-capacity rows and adds only the rows a candidate dispatch
actually violates, so each solve touches the handful of shift-factor
rows it binds instead of all ``2l``.  (The restricted LP is a relaxation
of the full one, so an infeasible restriction proves infeasibility and a
violation-free optimum is the true optimum.)
"""

from __future__ import annotations

import time
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple

import numpy as np
from scipy.optimize import linprog

from repro.exceptions import ModelError
from repro.grid.matrices import active_lines
from repro.grid.network import Grid
from repro.grid.sensitivities import (
    compute_ptdf,
    lcdf_column,
    lodf_column,
)
from repro.numerics import resolve_backend
from repro.opf.dcopf import DcOpfResult
from repro.smt.rational import to_fraction

#: Safety cap on row-generation rounds before falling back to the full LP.
_MAX_ROW_GENERATION_ROUNDS = 50


@dataclass
class TopologyChange:
    """A single-line deviation from the base topology."""

    kind: str          # "exclude" or "include"
    line_index: int

    def __post_init__(self) -> None:
        if self.kind not in ("exclude", "include"):
            raise ModelError(f"unknown topology change kind {self.kind!r}")


class _LazyMap(Mapping):
    """A read-only mapping built by ``build()`` on its first read."""

    def __init__(self, build: Callable[[], Dict]) -> None:
        self._build: Optional[Callable[[], Dict]] = build
        self._built: Optional[Dict] = None

    def _map(self) -> Dict:
        if self._built is None:
            self._built = self._build()
            self._build = None
        return self._built

    def __getitem__(self, key):
        return self._map()[key]

    def __iter__(self):
        return iter(self._map())

    def __len__(self) -> int:
        return len(self._map())

    def __repr__(self) -> str:
        return repr(self._map())

    def __reduce__(self):
        return dict, (self._map(),)


class _ChangeModel:
    """The demand-independent half of one topology's flow model:
    ``flows = flow_gen @ p + flow_base(...)`` for generator outputs
    ``p``, rows in ``lines`` order."""

    def __init__(self, grid: Grid, flow_gen: np.ndarray, lines: List[int],
                 column: Optional[np.ndarray] = None, row: int = -1,
                 scale: float = 0.0,
                 dtheta: Optional[np.ndarray] = None) -> None:
        self.flow_gen = flow_gen
        self.lines = lines
        self.capacities = np.array([float(grid.line(i).capacity)
                                    for i in lines])
        self._column = column      # LODF (exclusion) or LCDF column
        self._row = row            # outaged row (exclusion)
        self._scale = scale        # closure factor (inclusion)
        self._dtheta = dtheta      # open-line flow row (inclusion)

    def flow_base(self, base: np.ndarray, demand: np.ndarray) -> np.ndarray:
        """Demand-driven flows, given the base topology's ``base``."""
        if self._column is None:
            return base
        if self._dtheta is None:
            k = self._row
            return np.delete(base + self._column * base[k], k)
        new_base = self._scale * float(self._dtheta @ (-demand))
        return np.append(base + self._column * new_base, new_base)


class ShiftFactorOpf:
    """Reusable PTDF-based OPF for one base topology.

    Build once, then call :meth:`solve` for many load vectors and
    single-line topology changes — the pattern of the framework's
    fast impact-analysis loop.
    """

    def __init__(self, grid: Grid,
                 base_topology: Optional[Iterable[int]] = None,
                 backend: Optional[str] = None) -> None:
        self.grid = grid
        self.base_lines = active_lines(grid, base_topology)
        self.backend = resolve_backend(backend, grid.num_buses)
        self.factors = compute_ptdf(grid, self.base_lines,
                                    backend=self.backend)
        #: base lines whose exclusion islands the grid.
        self.bridges = grid.bridges(self.base_lines)
        self.gen_buses = sorted(grid.generators)
        generators = [grid.generators[b] for b in self.gen_buses]
        self._cost = np.array([float(g.cost_beta) for g in generators])
        self._bounds = [(float(g.p_min), float(g.p_max))
                        for g in generators]
        self._alpha = sum(float(g.cost_alpha)
                          for g in grid.generators.values())
        #: cumulative work counters for sweep traces.
        self.solve_calls = 0
        self.solve_seconds = 0.0
        #: capacity rows materialized by row generation (sparse backend).
        self.rows_generated = 0
        self._row_generation = self.backend == "sparse"
        self._gen_flow: Optional[np.ndarray] = None
        self._ones = np.ones((1, len(self.gen_buses)))
        # (change key, model) of the last topology change: consecutive
        # solves of one candidate reuse its flow model.
        self._last_change: Optional[Tuple[Optional[Tuple[str, int]],
                                          Optional[_ChangeModel]]] = None
        # Warm-started active sets per topology change, so bisection
        # loops re-solve with yesterday's binding rows already present.
        self._active_rows: Dict[Optional[Tuple[str, int]],
                                Set[Tuple[int, int]]] = {}

    # -- flow model -----------------------------------------------------

    def gen_flow_matrix(self) -> np.ndarray:
        """Base-topology flows per unit generator output (l x g)."""
        if self._gen_flow is None:
            self._gen_flow = self.factors.columns(self.gen_buses)
        return self._gen_flow

    def _topology(self, change: Optional[TopologyChange]
                  ) -> Optional[_ChangeModel]:
        """The demand-independent flow model of ``change``, cached for
        the last change key (None when the exclusion islands the grid).

        The base model is one batched solve for the generator columns;
        changes are rank-1 LODF/LCDF corrections of it — never a new
        factorization.
        """
        key = (change.kind, change.line_index) if change else None
        if self._last_change is None or self._last_change[0] != key:
            self._last_change = (key, self._build_topology(change))
        return self._last_change[1]

    def _build_topology(self, change: Optional[TopologyChange]
                        ) -> Optional[_ChangeModel]:
        flow_gen = self.gen_flow_matrix()
        lines = list(self.factors.lines)
        if change is None:
            return _ChangeModel(self.grid, flow_gen, lines)
        if change.kind == "exclude":
            if change.line_index in self.bridges:
                return None
            k = self.factors.row_of(change.line_index)
            column = lodf_column(self.factors, change.line_index)
            # flow_i' = flow_i + LODF_i * flow_k ; row k removed.
            flow_gen = flow_gen + np.outer(column, flow_gen[k])
            flow_gen = np.delete(flow_gen, k, axis=0)
            lines.pop(k)
            return _ChangeModel(self.grid, flow_gen, lines, column, row=k)
        # Inclusion: the closed line's flow as a linear operator over
        # injections, from the cached base factorization.
        if change.line_index in self.factors.lines:
            raise ModelError(
                f"line {change.line_index} is already in the base topology")
        line = self.grid.line(change.line_index)
        y = float(line.admittance)
        x_thevenin = self.factors.thevenin_impedance(line.from_bus,
                                                     line.to_bus)
        scale = 1.0 / (1.0 + y * x_thevenin)
        # delta-theta sensitivity row over bus injections.
        dtheta = self.factors.open_line_flow_row(change.line_index)
        new_row_gen = scale * np.array(
            [dtheta[bus - 1] for bus in self.gen_buses])
        column = lcdf_column(self.factors, change.line_index)
        flow_gen = flow_gen + np.outer(column, new_row_gen)
        flow_gen = np.vstack([flow_gen, new_row_gen])
        lines.append(change.line_index)
        return _ChangeModel(self.grid, flow_gen, lines, column,
                            scale=scale, dtheta=dtheta)

    # -- solve ------------------------------------------------------------

    def solve(self, loads: Optional[Dict[int, float]] = None,
              change: Optional[TopologyChange] = None,
              binding_tolerance: float = 1e-6) -> DcOpfResult:
        """OPF for the given loads (floats or Fractions) and optional
        single-line change."""
        started = time.perf_counter()
        try:
            return self._solve(loads, change, binding_tolerance)
        finally:
            self.solve_calls += 1
            self.solve_seconds += time.perf_counter() - started

    def _solve(self, loads: Optional[Dict[int, float]],
               change: Optional[TopologyChange],
               binding_tolerance: float) -> DcOpfResult:
        grid = self.grid
        model = self._topology(change)
        if model is None:
            return DcOpfResult(False, None)

        demand = np.zeros(grid.num_buses)
        if loads is None:
            for load in grid.loads.values():
                demand[load.bus - 1] = float(load.existing)
        else:
            for bus, value in loads.items():
                demand[bus - 1] = float(value)

        flow_gen = model.flow_gen
        flow_base = model.flow_base(
            self.factors.flows_for_injections(-demand), demand)
        line_order = model.lines
        capacities = model.capacities
        b_eq = np.array([float(demand.sum())])

        if self._row_generation:
            result = self._solve_with_row_generation(
                change, self._cost, self._bounds, self._ones, b_eq,
                flow_gen, flow_base, capacities)
        else:
            A_ub = np.vstack([flow_gen, -flow_gen])
            b_ub = np.concatenate([capacities - flow_base,
                                   capacities + flow_base])
            result = linprog(self._cost, A_ub=A_ub, b_ub=b_ub,
                             A_eq=self._ones, b_eq=b_eq,
                             bounds=self._bounds, method="highs")
        if result is None or not result.success:
            return DcOpfResult(False, None)

        x = result.x
        flow_values = flow_gen @ x + flow_base
        binding = [line_index for r, line_index in enumerate(line_order)
                   if abs(capacities[r] - abs(flow_values[r]))
                   <= binding_tolerance]
        # The exact dispatch and flow maps are packed on first read: the
        # fast analyzer only ever reads the cost.
        dispatch = _LazyMap(lambda: {
            bus: to_fraction(round(x[k], 12))
            for k, bus in enumerate(self.gen_buses)})
        flows = _LazyMap(lambda: {
            line_index: to_fraction(round(float(flow_values[r]), 12))
            for r, line_index in enumerate(line_order)})
        return DcOpfResult(True,
                           to_fraction(round(result.fun + self._alpha, 9)),
                           dispatch, flows, {}, binding)

    def _solve_with_row_generation(self, change: Optional[TopologyChange],
                                   c: np.ndarray, bounds, A_eq, b_eq,
                                   flow_gen: np.ndarray,
                                   flow_base: np.ndarray,
                                   capacities: np.ndarray):
        """Cutting-plane LP over the line-capacity rows.

        Each active row is a ``(line row, sign)`` pair for one side of
        ``|flow| <= capacity``.  The restricted LP is a relaxation of
        the full problem: infeasibility is conclusive, and an optimum
        violating no capacity is the full optimum.  The active set is
        warm-started per topology change across calls.
        """
        key = (change.kind, change.line_index) if change else None
        active = self._active_rows.setdefault(key, set())
        active = {(r, s) for r, s in active if r < flow_gen.shape[0]}
        feasibility_slack = 1e-9
        result = None
        for _ in range(_MAX_ROW_GENERATION_ROUNDS):
            if active:
                ordered = sorted(active)
                rows = np.array([r for r, _ in ordered])
                signs = np.array([float(s) for _, s in ordered])
                A_ub = signs[:, None] * flow_gen[rows]
                b_ub = capacities[rows] - signs * flow_base[rows]
            else:
                A_ub = None
                b_ub = None
            result = linprog(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq,
                             b_eq=b_eq, bounds=bounds, method="highs")
            if not result.success:
                return result       # relaxation infeasible => infeasible
            flows = flow_gen @ result.x + flow_base
            over = flows - capacities > feasibility_slack
            under = -flows - capacities > feasibility_slack
            violated = ([(int(r), 1) for r in np.flatnonzero(over)]
                        + [(int(r), -1) for r in np.flatnonzero(under)])
            fresh = [rs for rs in violated if rs not in active]
            if not fresh:
                self._active_rows[key] = active
                return result
            active.update(fresh)
            self.rows_generated += len(fresh)
        # Degenerate cycling safety net: solve the full LP once.
        A_ub = np.vstack([flow_gen, -flow_gen])
        b_ub = np.concatenate([capacities - flow_base,
                               capacities + flow_base])
        return linprog(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq,
                       bounds=bounds, method="highs")
