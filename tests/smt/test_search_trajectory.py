"""Pinned search trajectories of the exact path.

The SAT and simplex kernels may get cheaper, but the search they run must
not change: these cells make exactly the decisions, conflicts,
propagations and simplex pivots of the current rules, VSIDS-style
branching in the SAT core and sparsest-column entering with Bland's
fallback in the simplex.  A kernel change that moves any of these counts
changed a branching or pivoting choice: that is a change of behaviour,
not an optimisation, and needs its own review and a deliberate
re-recording here.  Every cell runs certified.

The counts are those of the one encoding lifecycle: the threshold is
asserted inside a solver ``push()`` scope, not built into the encoding,
and the scope's guard literal takes part in propagation.
"""

from fractions import Fraction

import pytest

from repro.core.encoding import OpfModelEncoding
from repro.grid.cases import get_case
from repro.opf import solve_dc_opf
from repro.runner import ScenarioSpec
from repro.runner.engine import execute_scenario
from repro.smt.certificates import verify_sat

#: (case, target %, state infection, satisfiable,
#:  (decisions, conflicts, propagations, simplex pivots))
SCENARIOS = [
    ("5bus-study1", 3, False, True, (1392, 22, 2104, 40)),
    ("5bus-study2", 6, True, True, (1950, 42, 4555, 55)),
    ("5bus-study2", 40, True, False, (9199, 106, 20013, 95)),
]

#: study1-t3 with Bland's rule forced from the first pivot: the
#: fallback's own search, which no change to the assignment arithmetic
#: may move.
BLAND_STUDY1_T3 = (1125, 22, 1821, 58)

#: Fig. 5(a) on ieee14: threshold / optimum -> (propagations, pivots)
OPF_CHECKS = [
    (Fraction(101, 100), (96, 35)),
    (Fraction(3, 2), (96, 34)),
]


@pytest.mark.parametrize(
    "case, target, states, satisfiable, counts", SCENARIOS,
    ids=["study1-t3", "study2-states-t6", "study2-states-t40"])
def test_scenario_search_is_pinned(case, target, states, satisfiable,
                                   counts):
    spec = ScenarioSpec.build(case, analyzer="smt", target=target,
                              with_state_infection=states)
    outcome = execute_scenario(spec, self_check=True)
    assert outcome.status == "ok"
    assert outcome.certified is True
    assert outcome.satisfiable is satisfiable
    smt = outcome.trace["smt"]
    assert (smt["decisions"], smt["conflicts"], smt["propagations"],
            smt["simplex_pivots"]) == counts


def test_bland_fallback_search_is_pinned(bland_pivots):
    spec = ScenarioSpec.build("5bus-study1", analyzer="smt", target=3)
    outcome = execute_scenario(spec, self_check=True)
    assert outcome.certified is True
    assert outcome.satisfiable is True
    smt = outcome.trace["smt"]
    assert (smt["decisions"], smt["conflicts"], smt["propagations"],
            smt["simplex_pivots"]) == BLAND_STUDY1_T3


@pytest.fixture(scope="module")
def ieee14_opf():
    grid = get_case("ieee14").build_grid()
    loads = {bus: load.existing for bus, load in grid.loads.items()}
    topology = [line.index for line in grid.lines if line.in_service]
    optimum = solve_dc_opf(grid, method="highs").require_feasible().cost
    return grid, topology, loads, optimum


@pytest.mark.parametrize("factor, counts", OPF_CHECKS,
                         ids=["x1.01", "x1.5"])
def test_opf_model_search_is_pinned(ieee14_opf, factor, counts):
    grid, topology, loads, optimum = ieee14_opf
    encoding = OpfModelEncoding(grid, topology, loads, certify=True)
    assert encoding.check(optimum * factor)
    verify_sat(encoding.solver)
    stats = encoding.solver.stats
    assert (stats.propagations, stats.simplex_pivots) == counts
