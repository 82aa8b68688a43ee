"""Linear sensitivity factors: PTDF, LODF and LCDF.

These implement the scalability enhancement of paper Section IV-A: instead
of re-solving the angle equations for every candidate topology, line flows
are expressed through *generation-to-load distribution factors* (shift
factors / PTDF), corrected for a single line exclusion with Line Outage
Distribution Factors (LODF) or a single line inclusion with Line Closure
Distribution Factors (LCDF) — the "extended factors" of Sauer, Reinhard
and Overbye (HICSS 2001).

All factors are relative to a *base topology* (a set of closed lines) and
the grid's reference bus.

Since the sparse-scaling refactor the factors are *lazy*: a single
condition-guarded factorization of the reduced susceptance matrix backs
every PTDF column/row, LODF/LCDF vector and Thévenin impedance as cached
factorized solves — no explicit inverse is ever formed on either the
dense or the sparse backend, and single-line outages/closures are
Sherman–Morrison rank-1 updates of the base factorization rather than
re-factorizations.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.exceptions import ModelError, NumericalInstability
from repro.grid.matrices import (
    active_lines,
    admittance_values,
    flow_matrix,
    susceptance_matrix,
)
from repro.grid.network import Grid
from repro.numerics import (
    WARNING,
    GuardedFactorization,
    UpdatedSolver,
    resolve_backend,
)
from repro.numerics.diagnostics import NumericalDiagnostic, emit
from repro.numerics.policy import default_policy


class SensitivityFactors:
    """PTDF bundle for a fixed base topology.

    The public surface mirrors the original dense implementation —
    ``ptdf`` is an l x b array with one row per active line (in
    ``lines`` order) and one column per bus (0-based, with an all-zero
    reference column) — but the full array is only materialized when
    the ``ptdf`` property is read.  All other accessors are factorized
    solves against the cached susceptance factorization:

    * :meth:`column` / :meth:`columns` — PTDF columns per injection bus,
    * :meth:`row` — one line's shift-factor row,
    * :meth:`flows_for_injections` — flows for an injection vector
      (one solve, no PTDF materialization),
    * :meth:`transfer_vector` / :meth:`thevenin_impedance` — the
      bus-pair quantities behind LODF/LCDF.
    """

    def __init__(self, grid: Grid, lines: List[int], backend: str,
                 factorization: GuardedFactorization, flow_operator,
                 ) -> None:
        self.grid = grid
        self.lines = lines
        self.backend = backend
        self.factorization = factorization
        self._flow = flow_operator            # D A, full b columns
        ref = grid.reference_bus - 1
        self._ref = ref
        self._keep = np.array(
            [i for i in range(grid.num_buses) if i != ref], dtype=np.int64)
        # Bus (0-based) -> position in the reduced state vector.
        self._pos = np.full(grid.num_buses, -1, dtype=np.int64)
        self._pos[self._keep] = np.arange(self._keep.size)
        self._row_index = {line: r for r, line in enumerate(lines)}
        self._ptdf: Optional[np.ndarray] = None
        self._column_cache: Dict[int, np.ndarray] = {}
        self._row_cache: Dict[int, np.ndarray] = {}
        self._pair_cache: Dict[Tuple[int, int], Tuple[np.ndarray, np.ndarray]] = {}

    # -- low-level helpers ---------------------------------------------

    def _apply_flow(self, theta_reduced: np.ndarray) -> np.ndarray:
        """Line flows for reduced angle vector(s) (ref angle is zero)."""
        if theta_reduced.ndim == 1:
            theta = np.zeros(self.grid.num_buses)
            theta[self._keep] = theta_reduced
        else:
            theta = np.zeros((self.grid.num_buses, theta_reduced.shape[1]))
            theta[self._keep] = theta_reduced
        if self.backend == "sparse":
            return self._flow.matvec(theta)
        return self._flow @ theta

    def _reduced(self, injections: np.ndarray) -> np.ndarray:
        return np.asarray(injections, dtype=float)[self._keep]

    def _pair_solution(self, from_bus: int, to_bus: int
                       ) -> Tuple[np.ndarray, np.ndarray]:
        """Cached ``(w, phi)`` for a unit from->to transfer.

        ``w = B^-1 (e_from - e_to)`` on the reduced state (the angle
        response) and ``phi`` the resulting flows on the base lines.
        """
        key = (from_bus, to_bus)
        cached = self._pair_cache.get(key)
        if cached is not None:
            return cached
        e = np.zeros(self.grid.num_buses)
        e[from_bus - 1] += 1.0
        e[to_bus - 1] -= 1.0
        w = self.factorization.solve(e[self._keep])
        phi = self._apply_flow(w)
        self._pair_cache[key] = (w, phi)
        return w, phi

    # -- public accessors ----------------------------------------------

    @property
    def ptdf(self) -> np.ndarray:
        """The full l x b PTDF array (materialized on first access)."""
        if self._ptdf is None:
            rhs = np.eye(self._keep.size)
            theta = self.factorization.solve(rhs)
            flows = self._apply_flow(theta)
            ptdf = np.zeros((len(self.lines), self.grid.num_buses))
            ptdf[:, self._keep] = flows
            self._ptdf = ptdf
        return self._ptdf

    def row_of(self, line_index: int) -> int:
        try:
            return self._row_index[line_index]
        except KeyError:
            raise ModelError(
                f"line {line_index} is not part of the base topology")

    def column(self, bus: int) -> np.ndarray:
        """PTDF column for 1-based *bus* (flows per unit injection)."""
        cached = self._column_cache.get(bus)
        if cached is not None:
            return cached
        if bus - 1 == self._ref:
            column = np.zeros(len(self.lines))
        else:
            e = np.zeros(self._keep.size)
            e[self._pos[bus - 1]] = 1.0
            column = self._apply_flow(self.factorization.solve(e))
        self._column_cache[bus] = column
        return column

    def columns(self, buses: Iterable[int]) -> np.ndarray:
        """PTDF columns for several 1-based buses as an l x k array."""
        buses = list(buses)
        missing = [b for b in buses
                   if b - 1 != self._ref and b not in self._column_cache]
        if missing:
            rhs = np.zeros((self._keep.size, len(missing)))
            for k, bus in enumerate(missing):
                rhs[self._pos[bus - 1], k] = 1.0
            flows = self._apply_flow(self.factorization.solve(rhs))
            for k, bus in enumerate(missing):
                self._column_cache[bus] = flows[:, k]
        return np.column_stack([self.column(b) for b in buses]) \
            if buses else np.zeros((len(self.lines), 0))

    def row(self, line_index: int) -> np.ndarray:
        """One line's shift-factor row over all buses (ref entry zero).

        Uses the symmetry of the reduced susceptance matrix: the row is
        a single transpose-free solve against the line's flow-operator
        row instead of a full PTDF materialization.
        """
        cached = self._row_cache.get(line_index)
        if cached is not None:
            return cached
        r = self.row_of(line_index)
        if self.backend == "sparse":
            flow_row = np.zeros(self.grid.num_buses)
            start, end = self._flow.indptr[r], self._flow.indptr[r + 1]
            flow_row[self._flow.indices[start:end]] = self._flow.data[start:end]
        else:
            flow_row = self._flow[r]
        solved = self.factorization.solve(flow_row[self._keep])
        row = np.zeros(self.grid.num_buses)
        row[self._keep] = solved
        self._row_cache[line_index] = row
        return row

    def flows_for_injections(self, injections: np.ndarray) -> np.ndarray:
        """Line flows (active-line order) for a bus injection vector."""
        theta = self.factorization.solve(self._reduced(injections))
        return self._apply_flow(theta)

    def angles_for_injections(self, injections: np.ndarray) -> np.ndarray:
        """Bus angles (full b vector, ref fixed at zero) for injections."""
        theta = np.zeros(self.grid.num_buses)
        theta[self._keep] = self.factorization.solve(
            self._reduced(injections))
        return theta

    def transfer_vector(self, from_bus: int, to_bus: int) -> np.ndarray:
        """Flows on all base lines per unit from->to transfer."""
        return self._pair_solution(from_bus, to_bus)[1]

    def thevenin_impedance(self, from_bus: int, to_bus: int) -> float:
        """The Thévenin reactance seen across a bus pair."""
        e = np.zeros(self.grid.num_buses)
        e[from_bus - 1] += 1.0
        e[to_bus - 1] -= 1.0
        w, _ = self._pair_solution(from_bus, to_bus)
        return float(e[self._keep] @ w)

    def transfer_factor(self, line_index: int, from_bus: int,
                        to_bus: int) -> float:
        """Flow change on *line_index* per unit transfer from->to bus."""
        phi = self.transfer_vector(from_bus, to_bus)
        return float(phi[self.row_of(line_index)])

    def open_line_flow_row(self, line_index: int) -> np.ndarray:
        """Would-be flow of an *open* line per unit bus injection.

        For a line outside the base topology this is the sensitivity of
        ``y * (theta_f - theta_t)`` computed on the base network — the
        numerator of the LCDF closure formula.
        """
        line = self.grid.line(line_index)
        y = float(line.admittance)
        w, _ = self._pair_solution(line.from_bus, line.to_bus)
        row = np.zeros(self.grid.num_buses)
        row[self._keep] = y * w
        return row

    # -- rank-1 topology updates ---------------------------------------

    def _reduced_incidence(self, line_index: int) -> np.ndarray:
        line = self.grid.line(line_index)
        a = np.zeros(self.grid.num_buses)
        a[line.from_bus - 1] += 1.0
        a[line.to_bus - 1] -= 1.0
        return a[self._keep]

    def outage_update(self, outaged_line: int) -> UpdatedSolver:
        """A Sherman–Morrison solver for the base matrix minus one line.

        ``B' = B - y_k a_k a_k^T``; solves against ``B'`` reuse the base
        factorization.  Raises the guarded
        :class:`~repro.exceptions.NumericalInstability` when the outage
        makes the matrix singular (bridge line).
        """
        y = float(self.grid.line(outaged_line).admittance)
        a = self._reduced_incidence(outaged_line)
        return self.factorization.updated(
            [(-y, a, a)], operation=f"line-{outaged_line} outage update")

    def closure_update(self, new_line: int) -> UpdatedSolver:
        """A Sherman–Morrison solver for the base matrix plus one line."""
        y = float(self.grid.line(new_line).admittance)
        a = self._reduced_incidence(new_line)
        return self.factorization.updated(
            [(y, a, a)], operation=f"line-{new_line} closure update")


def _check_admittance_spread(grid: Grid, lines: List[int]) -> None:
    """Guard the admittance dynamic range of the PTDF pipeline.

    The reduced susceptance matrix can be perfectly conditioned while
    the flow computation ``D A B^-1`` is still garbage: a line whose
    admittance is many orders below its neighbours' contributes flows
    through catastrophic cancellation, invisible to a condition check
    on ``B`` alone.  The spread ``max|d| / min|d|`` bounds that
    amplification, so it is held to the same warn/fail thresholds the
    condition estimates use.
    """
    admittances = np.abs(admittance_values(grid, lines))
    if admittances.size == 0 or admittances.min() <= 0.0:
        return  # zero/absent admittances are rejected by the Grid model
    spread = float(admittances.max() / admittances.min())
    policy = default_policy()
    if spread >= policy.condition_fail:
        raise NumericalInstability(
            f"admittance spread {spread:.3e} across the active lines "
            f"exceeds the failure threshold {policy.condition_fail:.1e}: "
            f"PTDF flows would be dominated by cancellation noise")
    if spread >= policy.condition_warn:
        emit(NumericalDiagnostic(
            operation="factorize", context="PTDF admittance spread",
            severity=WARNING,
            detail=f"active-line admittances span {spread:.3e}; "
                   f"flow sensitivities lose ~{np.log10(spread):.0f} "
                   f"digits to cancellation",
            condition=spread))


def compute_ptdf(grid: Grid,
                 line_indices: Optional[Iterable[int]] = None,
                 backend: Optional[str] = None) -> SensitivityFactors:
    """Power Transfer Distribution Factors for a base topology.

    ``backend`` forces the linear-algebra path (``dense``/``sparse``);
    ``None`` picks it from the bus count.  The heavy work — one
    condition-guarded factorization of the reduced susceptance matrix —
    happens here; individual factors are lazy solves on the result.
    """
    lines = active_lines(grid, line_indices)
    if not grid.is_connected(lines):
        raise ModelError("PTDF requires a connected base topology")
    _check_admittance_spread(grid, lines)
    resolved = resolve_backend(backend, grid.num_buses)
    B = susceptance_matrix(grid, lines, reduced=True, backend=resolved)
    flow_operator = flow_matrix(grid, lines, backend=resolved)
    factorization = GuardedFactorization(
        B, context="PTDF base susceptance matrix")
    return SensitivityFactors(grid, lines, resolved, factorization,
                              flow_operator)


def lodf_column(factors: SensitivityFactors, outaged_line: int) -> np.ndarray:
    """LODF vector for the outage of *outaged_line*.

    Entry ``r`` (in active-line order) is the fraction of the outaged
    line's pre-outage flow that reappears on line ``r``:
    ``flow_r' = flow_r + LODF[r] * flow_k``.  The outaged line's own entry
    is set to -1 (its post-outage flow is zero).

    This is the Sherman–Morrison rank-1 form of removing line k from the
    base factorization: ``phi`` is one cached solve, the denominator is
    the capacitance scalar of the update.
    """
    grid = factors.grid
    line = grid.line(outaged_line)
    k = factors.row_of(outaged_line)
    # phi[r] = flow on r per unit transfer from line k's from-bus to to-bus.
    phi = factors.transfer_vector(line.from_bus, line.to_bus)
    denominator = 1.0 - phi[k]
    if abs(denominator) < 1e-9:
        remaining = [index for index in factors.lines
                     if index != outaged_line]
        if not grid.is_connected(remaining):
            raise ModelError(
                f"line {outaged_line} is a bridge: outage splits the "
                f"network")
        # Graph-connected, yet the LODF denominator vanished: the rest
        # of the network holds together only through near-zero
        # admittance, so the redistribution factors are pure noise.
        raise NumericalInstability(
            f"LODF denominator for the line-{outaged_line} outage is "
            f"{denominator:.3e}: the remaining network is connected "
            f"only through near-zero admittance")
    column = phi / denominator
    column[k] = -1.0
    return column


def lcdf_flow(factors: SensitivityFactors, new_line: int,
              injections: np.ndarray) -> float:
    """Post-closure flow on *new_line* (not in the base topology).

    Uses the closure analogue of the LODF derivation: let ``delta`` be the
    angle difference across the open line's terminals in the base case and
    ``x_thevenin`` the equivalent reactance the base network presents
    across those terminals.  Then the closed line carries
    ``y_k * delta / (1 + y_k * x_equivalent)``.  Both quantities are
    cached factorized solves — no susceptance re-factorization.
    """
    grid = factors.grid
    line = grid.line(new_line)
    if new_line in factors.lines:
        raise ModelError(f"line {new_line} is already in the base topology")
    y = float(line.admittance)
    theta = factors.angles_for_injections(np.asarray(injections,
                                                     dtype=float))
    delta = theta[line.from_bus - 1] - theta[line.to_bus - 1]
    # Thevenin "resistance" seen by the new line across its terminals.
    x_thevenin = factors.thevenin_impedance(line.from_bus, line.to_bus)
    return y * delta / (1.0 + y * x_thevenin)


def lcdf_column(factors: SensitivityFactors, new_line: int) -> np.ndarray:
    """Flow change on every base line per unit of flow on the closed line.

    ``flow_r' = flow_r - LCDF[r] * flow_new`` would double-count signs; we
    define it so that ``flow_r' = flow_r + column[r] * flow_new`` where
    ``flow_new`` is the new line's post-closure flow (from
    :func:`lcdf_flow`).  Closing a line that carries flow ``f`` from bus m
    to bus n is equivalent to injecting ``-f`` at m and ``+f`` at n on the
    base network (the new line diverts that power).
    """
    grid = factors.grid
    line = grid.line(new_line)
    return -factors.transfer_vector(line.from_bus, line.to_bus)


def flows_after_exclusion(factors: SensitivityFactors,
                          base_flows: np.ndarray,
                          outaged_line: int) -> np.ndarray:
    """Exact post-outage flows from base flows via LODF."""
    column = lodf_column(factors, outaged_line)
    k = factors.row_of(outaged_line)
    flows = base_flows + column * base_flows[k]
    flows[k] = 0.0
    return flows


def flows_after_inclusion(factors: SensitivityFactors,
                          base_flows: np.ndarray,
                          new_line: int,
                          injections: np.ndarray) -> tuple:
    """Post-closure flows: (updated base-line flows, new line's flow)."""
    new_flow = lcdf_flow(factors, new_line, injections)
    column = lcdf_column(factors, new_line)
    return base_flows + column * new_flow, new_flow
