"""SMT encodings of the paper's formal models (Section III).

Two encodings, mirroring the two halves of the paper's framework (Fig. 2):

* :class:`AttackModelEncoding` — the stealthy topology-poisoning attack
  model: the operating point (DC power model, Eqs. 7-9), the topology
  change (Eqs. 10-16), the optional UFDI state infection (Eqs. 23-29),
  the false-data-injection requirements and attacker resources
  (Eqs. 17-22), the believed-load consistency (Eq. 36 bounds) and —
  matching the paper's "combined" model — the convergence requirement
  that the believed system admit *some* dispatch (Eq. 38).

* :class:`OpfModelEncoding` — the OPF feasibility model (Eqs. 30-36) for
  a fixed believed topology and believed loads, with a cost ceiling
  ``T_OPF`` (Eq. 35).  The impact condition (Eq. 37) is checked by
  expecting *unsat* at the attack threshold.

All constants come from the case definition as exact rationals, so
sat/unsat answers are exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Tuple

from repro.exceptions import ModelError
from repro.estimation.measurement import MeasurementPlan
from repro.grid.caseio import CaseDefinition
from repro.grid.network import Grid
from repro.smt import (
    And,
    BoolVar,
    LinExpr,
    Model,
    Not,
    Or,
    RealVar,
    SmtSolver,
    at_most,
    implies,
    linear_sum,
)
from repro.smt.rational import to_fraction

#: Minimum magnitude of a nonzero measurement/state change: a change is
#: either zero or at least this large, since the linear fragment has no
#: strict ``!= 0``.  It keeps degenerate infinitesimal attacks out of the
#: model, but it does not quantize the attack space the way the paper's
#: 2-digit vector precision did (EXPERIMENTS deviation 6): every change at
#: or above it stays reachable.  The search's structure pruning is a
#: separate step, and an unproved one (``block_structure``; ROADMAP,
#: "Close the structure-pruning hole").
EPSILON = Fraction(1, 10000)


@dataclass
class AttackEncodingConfig:
    """Knobs of the attack model."""

    include_state_infection: bool = False
    #: require at least one exclusion/inclusion (the paper's topology
    #: attacks; set False for the pure-UFDI comparison of case study 2).
    require_topology_attack: bool = True
    #: forbid exclusion/inclusion entirely (pure-UFDI analyses).
    forbid_topology_attack: bool = False
    #: require at least one infected state (for pure-UFDI analyses).
    require_state_infection: bool = False
    #: require at least one measurement alteration — rules out the
    #: degenerate "exclude a zero-flow line" attacks that need no false
    #: data at all.
    require_measurement_alteration: bool = False
    #: include the believed-system dispatch-feasibility block (Eq. 38).
    require_believed_feasibility: bool = True


@dataclass
class AttackVectorSolution:
    """A satisfying assignment of the attack model, decoded."""

    excluded: List[int]
    included: List[int]
    infected_states: List[int]
    altered_measurements: List[int]
    compromised_buses: List[int]
    believed_loads: Dict[int, Fraction]
    state_shift: Dict[int, Fraction]
    operating_dispatch: Dict[int, Fraction]
    operating_flows: Dict[int, Fraction]
    operating_cost: Fraction

    def believed_topology(self, grid: Grid) -> List[int]:
        mapped = [l.index for l in grid.lines
                  if l.in_service and l.index not in set(self.excluded)]
        mapped.extend(self.included)
        return sorted(mapped)


class AttackModelEncoding:
    """Builds the attack model into an :class:`SmtSolver`."""

    def __init__(self, case: CaseDefinition,
                 config: Optional[AttackEncodingConfig] = None,
                 certify: bool = False) -> None:
        self.case = case
        self.config = config or AttackEncodingConfig()
        self.grid = case.build_grid()
        self.plan = MeasurementPlan.from_case(case, self.grid)
        self.solver = SmtSolver(certify=certify)
        self._build()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def _build(self) -> None:
        grid, case, cfg = self.grid, self.case, self.config
        solver = self.solver
        l, b = grid.num_lines, grid.num_buses

        # -- variables -------------------------------------------------------
        self.theta = {bus.index: RealVar(f"theta_{bus.index}")
                      for bus in grid.buses}
        self.gen = {bus: RealVar(f"gen_{bus}") for bus in grid.generators}
        self.p = {i: BoolVar(f"p_{i}") for i in range(1, l + 1)}
        self.q = {i: BoolVar(f"q_{i}") for i in range(1, l + 1)}
        self.k = {i: BoolVar(f"k_{i}") for i in range(1, l + 1)}
        self.a = {i: BoolVar(f"a_{i}")
                  for i in range(1, 2 * l + b + 1)}
        self.h = {bus.index: BoolVar(f"h_{bus.index}")
                  for bus in grid.buses}
        self.delta_topo = {i: RealVar(f"dT_{i}") for i in range(1, l + 1)}
        self.delta_total = {i: RealVar(f"dL_{i}") for i in range(1, l + 1)}
        self.delta_bus = {bus.index: RealVar(f"dB_{bus.index}")
                          for bus in grid.buses}
        self.believed_load = {bus: RealVar(f"bl_{bus}")
                              for bus in grid.loads}
        if cfg.include_state_infection:
            self.dtheta = {bus.index: RealVar(f"dth_{bus.index}")
                           for bus in grid.buses}
            self.c = {bus.index: BoolVar(f"c_{bus.index}")
                      for bus in grid.buses
                      if bus.index != grid.reference_bus}

        add = solver.add

        # -- operating point: the DC power model (Eqs. 7-9) ------------------
        add(self.theta[grid.reference_bus].eq(0))

        def closed_flow(line) -> LinExpr:
            """d_i * (theta_f - theta_e) — the flow the line would carry."""
            return line.admittance * (self.theta[line.from_bus]
                                      - self.theta[line.to_bus])

        def physical_flow(line) -> LinExpr:
            if line.in_service:
                return LinExpr.of(closed_flow(line))
            return LinExpr.constant(0)

        for bus in grid.buses:
            inflow = linear_sum(physical_flow(li)
                                for li in grid.lines_in(bus.index))
            outflow = linear_sum(physical_flow(li)
                                 for li in grid.lines_out(bus.index))
            consumption = inflow - outflow                       # Eq. 8
            demand = grid.loads[bus.index].existing \
                if bus.index in grid.loads else Fraction(0)
            if bus.index in self.gen:
                # Eq. 9: P_B = P_D - P_G.
                add(consumption.eq(demand - self.gen[bus.index]))
            else:
                add(consumption.eq(demand))

        for bus, gen in grid.generators.items():                  # Eq. 6
            add(self.gen[bus] >= gen.p_min)
            add(self.gen[bus] <= gen.p_max)
        for line in grid.lines:                                   # Eq. 5
            if line.in_service:
                add(closed_flow(line) <= line.capacity)
                add(closed_flow(line) >= -line.capacity)

        # -- topology attack (Eqs. 10-12) -------------------------------------
        for spec in case.line_specs:
            i = spec.index
            if spec.in_true_topology:
                add(Not(self.q[i]))
                if spec.in_core or spec.status_secured \
                        or not spec.status_alterable:             # Eq. 11
                    add(Not(self.p[i]))
                # Eq. 10 (as iff): mapped iff not excluded.
                add(Or(Not(self.k[i]), Not(self.p[i])))
                add(Or(self.k[i], self.p[i]))
            else:
                add(Not(self.p[i]))
                if spec.status_secured or not spec.status_alterable:
                    add(Not(self.q[i]))                           # Eq. 12
                add(Or(Not(self.k[i]), self.q[i]))
                add(Or(self.k[i], Not(self.q[i])))

        # -- topology-induced measurement changes (Eqs. 13-15) ----------------
        for line in grid.lines:
            i = line.index
            would_be = closed_flow(line)
            flow_now = physical_flow(line)
            add(implies(self.p[i],
                        (self.delta_topo[i] + flow_now).eq(0)))   # Eq. 13
            add(implies(self.q[i],
                        self.delta_topo[i].eq(would_be)))         # Eq. 14
            add(implies(And(Not(self.p[i]), Not(self.q[i])),
                        self.delta_topo[i].eq(0)))                # Eq. 15

        # -- state infection (Eqs. 23-29) --------------------------------------
        if cfg.include_state_infection:
            add(self.dtheta[grid.reference_bus].eq(0))
            for line in grid.lines:
                i = line.index
                shift = line.admittance * (
                    self.dtheta[line.from_bus] - self.dtheta[line.to_bus])
                add(implies(self.k[i],
                            self.delta_total[i].eq(
                                self.delta_topo[i] + shift)))     # Eq. 24/27
                add(implies(Not(self.k[i]),
                            self.delta_total[i].eq(
                                self.delta_topo[i])))             # Eq. 25
            for bus, cvar in self.c.items():                      # Eq. 26
                dth = self.dtheta[bus]
                add(implies(cvar, Or(dth <= -EPSILON, dth >= EPSILON)))
                add(implies(Not(cvar), dth.eq(0)))
        else:
            for line in grid.lines:
                add(self.delta_total[line.index].eq(
                    self.delta_topo[line.index]))

        # -- bus consumption changes (Eqs. 16 / 28) ----------------------------
        for bus in grid.buses:
            inflow = linear_sum(self.delta_total[li.index]
                                for li in grid.lines_in(bus.index))
            outflow = linear_sum(self.delta_total[li.index]
                                 for li in grid.lines_out(bus.index))
            add(self.delta_bus[bus.index].eq(inflow - outflow))

        # -- false data injection requirements (Eqs. 17-19 / 29) ---------------
        self.nz_line = {}
        for line in grid.lines:
            i = line.index
            nz = BoolVar(f"nz_{i}")
            self.nz_line[i] = nz
            delta = self.delta_total[i]
            add(implies(nz, Or(delta <= -EPSILON, delta >= EPSILON)))
            add(implies(Not(nz), delta.eq(0)))
            forward, backward = i, l + i
            for m in (forward, backward):
                if self.plan.is_taken(m):
                    add(implies(nz, self.a[m]))                   # Eq. 17
                    add(implies(self.a[m], nz))                   # Eq. 18
                else:
                    add(Not(self.a[m]))
            # Eq. 19: knowledge needed to compute the required change.
            spec = case.line_spec(i)
            if not spec.knowledge and (self.plan.is_taken(forward)
                                       or self.plan.is_taken(backward)):
                add(Not(nz))
        self.nz_bus = {}
        for bus in grid.buses:
            j = bus.index
            nz = BoolVar(f"nzB_{j}")
            self.nz_bus[j] = nz
            delta = self.delta_bus[j]
            add(implies(nz, Or(delta <= -EPSILON, delta >= EPSILON)))
            add(implies(Not(nz), delta.eq(0)))
            m = 2 * l + j
            if self.plan.is_taken(m):
                add(implies(nz, self.a[m]))
                add(implies(self.a[m], nz))
            else:
                add(Not(self.a[m]))

        # -- accessibility, security and resources (Eqs. 20-22) ----------------
        for m in range(1, 2 * l + b + 1):
            spec = self.plan.spec(m)
            if not spec.alterable or spec.secured:                # Eq. 20
                add(Not(self.a[m]))
            add(implies(self.a[m],
                        self.h[self.plan.location_of(m)]))        # Eq. 21
        add(at_most(list(self.h.values()), case.resource_buses))  # Eq. 22
        add(at_most(list(self.a.values()), case.resource_measurements))

        # -- believed loads and their plausibility (Eq. 36) --------------------
        for bus in grid.buses:
            j = bus.index
            if j in grid.loads:
                load = grid.loads[j]
                add(self.believed_load[j].eq(
                    load.existing + self.delta_bus[j]))
                add(self.believed_load[j] >= load.p_min)
                add(self.believed_load[j] <= load.p_max)
            else:
                # No load to absorb a consumption change (generation
                # measurements are secure, Section II-F).
                add(self.delta_bus[j].eq(0))

        # -- attack-presence requirements --------------------------------------
        if cfg.require_topology_attack and cfg.forbid_topology_attack:
            raise ModelError("cannot both require and forbid topology "
                             "attacks")
        if cfg.require_topology_attack:
            add(Or(*(list(self.p.values()) + list(self.q.values()))))
        if cfg.forbid_topology_attack:
            for var in list(self.p.values()) + list(self.q.values()):
                add(Not(var))
        if cfg.require_state_infection:
            if not cfg.include_state_infection:
                raise ModelError("require_state_infection needs "
                                 "include_state_infection")
            add(Or(*self.c.values()))
        if cfg.require_measurement_alteration:
            add(Or(*self.a.values()))

        # -- believed-system convergence (Eq. 38) -------------------------------
        if cfg.require_believed_feasibility:
            self._build_believed_feasibility()

    def _build_believed_feasibility(self) -> None:
        """Some dispatch must satisfy the believed system (Eq. 38)."""
        grid = self.grid
        add = self.solver.add
        bel_theta = {bus.index: RealVar(f"bth_{bus.index}")
                     for bus in grid.buses}
        bel_gen = {bus: RealVar(f"bg_{bus}") for bus in grid.generators}
        bel_flow = {line.index: RealVar(f"bf_{line.index}")
                    for line in grid.lines}
        add(bel_theta[grid.reference_bus].eq(0))
        for line in grid.lines:
            i = line.index
            expr = line.admittance * (bel_theta[line.from_bus]
                                      - bel_theta[line.to_bus])
            add(implies(self.k[i], bel_flow[i].eq(expr)))         # Eq. 32
            add(implies(Not(self.k[i]), bel_flow[i].eq(0)))
            add(bel_flow[i] <= line.capacity)                     # Eq. 34
            add(bel_flow[i] >= -line.capacity)
        for bus, gen in grid.generators.items():                  # Eq. 31
            add(bel_gen[bus] >= gen.p_min)
            add(bel_gen[bus] <= gen.p_max)
        for bus in grid.buses:                                    # Eq. 33
            j = bus.index
            inflow = linear_sum(bel_flow[li.index]
                                for li in grid.lines_in(j))
            outflow = linear_sum(bel_flow[li.index]
                                 for li in grid.lines_out(j))
            consumption = inflow - outflow
            demand = self.believed_load[j] if j in grid.loads \
                else LinExpr.constant(0)
            if j in bel_gen:
                add(consumption.eq(LinExpr.of(demand) - bel_gen[j]))
            else:
                add(consumption.eq(demand))
        self._believed_feasibility_vars = (bel_theta, bel_gen, bel_flow)

    # ------------------------------------------------------------------
    # Solving and decoding
    # ------------------------------------------------------------------

    def solve(self) -> Optional[AttackVectorSolution]:
        """One attack vector, or None when the model is unsatisfiable.

        With a budget attached to the solver an exhausted search raises
        :class:`~repro.exceptions.BudgetExhausted` so callers can report
        a partial result instead of mistaking UNKNOWN for UNSAT.
        """
        from repro.exceptions import BudgetExhausted
        from repro.smt import SolveResult
        result = self.solver.solve()
        if result is SolveResult.UNKNOWN:
            raise BudgetExhausted(self.solver.last_budget_reason
                                  or "solver budget exhausted")
        if result is SolveResult.UNSAT:
            return None
        return self.decode(self.solver.model())

    def decode(self, model: Model) -> AttackVectorSolution:
        # Strict lookups throughout: every variable queried here is
        # constrained by the encoding, so its absence from a model is a
        # decode bug, not a don't-care — fail loudly instead of silently
        # reading False/0.
        grid = self.grid
        excluded = [i for i, var in self.p.items()
                    if model.bool_value(var, strict=True)]
        included = [i for i, var in self.q.items()
                    if model.bool_value(var, strict=True)]
        altered = [m for m, var in self.a.items()
                   if model.bool_value(var, strict=True)]
        # h_j is only lower-bounded by the a_i (Eq. 21 is an implication),
        # so derive the compromised set from the alterations themselves.
        compromised = sorted({self.plan.location_of(m) for m in altered})
        believed = {bus: model.real_value(var, strict=True)
                    for bus, var in self.believed_load.items()}
        shifts: Dict[int, Fraction] = {}
        infected: List[int] = []
        if self.config.include_state_infection:
            infected = [j for j, var in self.c.items()
                        if model.bool_value(var, strict=True)]
            shifts = {j: model.real_value(self.dtheta[j], strict=True)
                      for j in infected}
        dispatch = {bus: model.real_value(var, strict=True)
                    for bus, var in self.gen.items()}
        flows = {}
        for line in grid.lines:
            if line.in_service:
                value = line.admittance * (
                    model.real_value(self.theta[line.from_bus], strict=True)
                    - model.real_value(self.theta[line.to_bus], strict=True))
                flows[line.index] = value
        cost = sum((gen.cost_alpha + gen.cost_beta * dispatch[bus]
                    for bus, gen in grid.generators.items()), Fraction(0))
        return AttackVectorSolution(
            sorted(excluded), sorted(included), sorted(infected),
            sorted(altered), sorted(compromised), believed, shifts,
            dispatch, flows, cost)

    def add_min_operating_cost(self, threshold: Fraction) -> None:
        """Require the current operating cost to be at least ``threshold``.

        A necessary condition for pure topology attacks: the believed
        optimum can never exceed the current operating cost.  Asserted
        after construction — inside a solver ``push()`` scope — so one
        encoding can swap cost thresholds between queries without
        rebuilding the whole model.
        """
        cost = linear_sum(gen.cost_beta * self.gen[bus]
                          for bus, gen in self.grid.generators.items())
        alpha = sum((gen.cost_alpha
                     for gen in self.grid.generators.values()), Fraction(0))
        self.solver.add(cost + alpha >= to_fraction(threshold))

    def block_structure(self, solution: AttackVectorSolution) -> None:
        """Exclude every vector sharing this solution's discrete structure.

        The structure is the topology bits plus the infected-state
        choice.  The framework calls this after *extremizing* the
        structure's believed loads one coordinate at a time without
        reaching the threshold.  That does not bound the structure's
        best case: the believed-optimal cost is convex in the loads, so
        its maximum lies on a vertex of the believed-load polytope, and
        the 2n coordinate optima are only some of the vertices.  The
        pruning is unproved until ROADMAP's "Remove the ∀: one certified
        SMT query per question" replaces it or the exhaustive oracle of
        "Close the structure-pruning hole" checks it.
        """
        literals = []
        chosen_p = set(solution.excluded)
        chosen_q = set(solution.included)
        for i, var in self.p.items():
            literals.append(Not(var) if i in chosen_p else var)
        for i, var in self.q.items():
            literals.append(Not(var) if i in chosen_q else var)
        if self.config.include_state_infection:
            infected = set(solution.infected_states)
            for j, var in self.c.items():
                literals.append(Not(var) if j in infected else var)
        self.solver.add(Or(*literals))


class OpfModelEncoding:
    """The OPF model (Eqs. 30-36) for a fixed believed system.

    ``check(threshold)`` answers: does a dispatch with total cost at most
    *threshold* exist?  The impact condition (Eq. 37) holds when
    ``check(T_OPF)`` is unsat; convergence (Eq. 38) when ``check(None)``
    is sat.
    """

    def __init__(self, grid: Grid,
                 topology: Iterable[int],
                 loads: Dict[int, Fraction],
                 certify: bool = False) -> None:
        self.grid = grid
        self.topology = sorted(topology)
        self.loads = {bus: to_fraction(v) for bus, v in loads.items()}
        self.solver = SmtSolver(certify=certify)
        self._build()

    def _build(self) -> None:
        grid = self.grid
        add = self.solver.add
        active = set(self.topology)
        theta = {bus.index: RealVar(f"oth_{bus.index}")
                 for bus in grid.buses}
        self.gen = {bus: RealVar(f"og_{bus}") for bus in grid.generators}
        add(theta[grid.reference_bus].eq(0))

        flows: Dict[int, LinExpr] = {}
        for line in grid.lines:
            if line.index not in active:
                continue
            expr = line.admittance * (theta[line.from_bus]
                                      - theta[line.to_bus])       # Eq. 32
            flows[line.index] = LinExpr.of(expr)
            add(expr <= line.capacity)                            # Eq. 34
            add(expr >= -line.capacity)
        for bus, gen in grid.generators.items():                  # Eq. 31
            add(self.gen[bus] >= gen.p_min)
            add(self.gen[bus] <= gen.p_max)
        for bus in grid.buses:                                    # Eq. 33
            j = bus.index
            inflow = linear_sum(flows[li.index]
                                for li in grid.lines_in(j)
                                if li.index in active)
            outflow = linear_sum(flows[li.index]
                                 for li in grid.lines_out(j)
                                 if li.index in active)
            demand = self.loads.get(j, Fraction(0))
            if j in self.gen:
                add((inflow - outflow).eq(demand - self.gen[j]))
            else:
                add((inflow - outflow).eq(LinExpr.constant(demand)))

        self.cost_expr = linear_sum(
            gen.cost_beta * self.gen[bus]
            for bus, gen in grid.generators.items())
        self.cost_alpha = sum((gen.cost_alpha
                               for gen in grid.generators.values()),
                              Fraction(0))

    def check(self, threshold: Optional[Fraction] = None) -> bool:
        """Sat iff a dispatch exists with cost <= threshold (Eq. 35)."""
        from repro.exceptions import BudgetExhausted
        from repro.smt import SolveResult
        assumptions = []
        if threshold is not None:
            assumptions.append(
                self.cost_expr <= to_fraction(threshold) - self.cost_alpha)
        result = self.solver.solve(assumptions)
        if result is SolveResult.UNKNOWN:
            raise BudgetExhausted(self.solver.last_budget_reason
                                  or "solver budget exhausted")
        return result is SolveResult.SAT

    def minimum_cost(self) -> Optional[Fraction]:
        """Exact believed-optimal cost via the SMT optimizer (or None)."""
        from repro.smt import minimize
        result = minimize(self.solver, self.cost_expr)
        if not result.feasible:
            return None
        return result.optimum + self.cost_alpha
