"""Fast analyzers of one grid share one grid kernel through a SessionPool.

Attacker scenarios (``randomize_attacker``) vary only attacker fields,
so every fast analyzer a pool builds for them runs on the pool's
:class:`~repro.core.fast.GridKernel` of that grid: its range and
believed-OPF LPs are solved once per pool, not once per attacker.
Sharing must not change a single answer, in any order the cells run.
"""

import gc
import weakref
from dataclasses import replace
from fractions import Fraction

import pytest

from repro.core import ImpactQuery
from repro.core.fast import FastImpactAnalyzer, GridKernel
from repro.grid.caseio import write_case
from repro.grid.cases import get_case
from repro.numerics import NumericsPolicy, set_policy
from repro.opf.shift_factor import ShiftFactorOpf
from repro.runner import ScenarioSpec
from repro.runner.engine import SessionPool, execute_scenario, run_unit
from repro.runner.spec import randomize_attacker
from repro.runner.trace import OK, deterministic_outcome_view

GRIDS = (("5bus-study1", False), ("ieee14", False), ("ieee30", False),
         ("ieee30", True))
ATTACKERS = tuple(range(2014, 2020))
TARGETS = ("1/2", 1, 3)

SPECS = [ScenarioSpec.build(case, analyzer="fast", target=target,
                            attacker_seed=seed, with_state_infection=states,
                            state_samples=4,
                            label=f"{case}/{states}/{seed}/{target}")
         for case, states in GRIDS for seed in ATTACKERS
         for target in TARGETS]


def _view(outcome):
    return deterministic_outcome_view(outcome.to_dict())


def _pooled(specs):
    """Every spec through ``run_unit`` on one shared pool, in order."""
    pool = SessionPool()
    outcomes = {}
    for spec in specs:
        [outcome] = run_unit([spec], [""], sessions=pool)
        outcomes[spec.label] = outcome
    return outcomes, pool


@pytest.fixture(scope="module")
def fresh_views():
    return {spec.label: _view(execute_scenario(spec, ""))
            for spec in SPECS}


@pytest.mark.parametrize("order", ["forward", "reversed"])
def test_one_pool_equals_fresh_cells(fresh_views, order):
    specs = SPECS if order == "forward" else SPECS[::-1]
    outcomes, pool = _pooled(specs)
    assert {o.status for o in outcomes.values()} == {OK}
    verdicts = {o.satisfiable for o in outcomes.values()}
    assert verdicts == {True, False}
    for label, outcome in outcomes.items():
        assert _view(outcome) == fresh_views[label], label
    # One kernel per grid (ieee30 with and without states is one grid);
    # every other analyzer the pool built ran on a pooled kernel.
    stats = pool.stats()
    assert stats["kernel_misses"] == 3
    assert stats["kernel_hits"] == stats["session_misses"] - 3 > 0


def test_each_believed_opf_is_solved_once_per_pool(monkeypatch):
    """Over one grid's attackers on one pool, the summed
    ``trace.opf.solves`` is the number of distinct believed OPFs."""
    solved = []
    original = ShiftFactorOpf.solve

    def recording(self, loads=None, change=None):
        if change is not None:
            solved.append((change.kind, change.line_index,
                           tuple(sorted(loads.items()))))
        return original(self, loads=loads, change=change)

    monkeypatch.setattr(ShiftFactorOpf, "solve", recording)
    specs = [spec for spec in SPECS if spec.label.startswith("ieee30/False")]
    outcomes, _ = _pooled(specs)
    pooled = sum(o.trace["opf"]["solves"] for o in outcomes.values())
    assert pooled == len(set(solved)) == len(solved)
    solved.clear()
    fresh = sum(execute_scenario(spec, "").trace["opf"]["solves"]
                for spec in specs)
    assert fresh > pooled


def test_pooled_kernel_is_reported_warm():
    pool = SessionPool()
    first, second = (ScenarioSpec.build("ieee14", analyzer="fast", target=1,
                                        attacker_seed=seed)
                     for seed in (2014, 2015))
    [built] = run_unit([first], [""], sessions=pool)
    [shared] = run_unit([second], [""], sessions=pool)
    assert built.trace["session"]["encodings_built"] == 1
    assert built.trace["session"]["warm"] is False
    assert shared.trace["session"]["encodings_built"] == 0
    assert shared.trace["session"]["warm"] is True
    assert shared.trace["session"]["encode_seconds"] == 0.0


def _acquire(pool, case):
    return pool.acquire(write_case(case), case, "fast")


class TestKernelKey:
    def test_one_load_bound_splits_a_grid(self):
        case = get_case("ieee14")
        load = case.loads[0]
        widened = replace(case, loads=[replace(load, p_max=load.p_max + 1)]
                          + case.loads[1:])
        assert GridKernel.key(widened) != GridKernel.key(case)
        pool = SessionPool()
        one, other = _acquire(pool, case), _acquire(pool, widened)
        assert one.kernel is not other.kernel
        assert pool.stats()["kernel_misses"] == 2
        assert pool.stats()["kernels"] == 2


class TestKernelLifetime:
    def test_invalidate_drops_the_kernel(self):
        case = get_case("ieee14")
        pool = SessionPool()
        first = randomize_attacker(case, 2014)
        _acquire(pool, first)
        _acquire(pool, randomize_attacker(case, 2015))
        assert pool.stats()["kernel_hits"] == 1
        pool.invalidate(write_case(first))
        assert pool.stats()["kernels"] == 0
        # The sibling that ran on the dropped kernel went with it.
        assert pool.stats()["sessions"] == 0
        rebuilt = _acquire(pool, randomize_attacker(case, 2016))
        assert pool.stats()["kernel_misses"] == 2
        assert rebuilt._kernel_shared is False

    def test_a_kernel_built_under_warnings_is_not_shared(self):
        # A condition-number warn threshold of 1 makes every guarded
        # factorization of the kernel build warn.
        set_policy(NumericsPolicy(condition_warn=1.0))
        try:
            case = get_case("ieee14")
            pool = SessionPool()
            first = _acquire(pool, randomize_attacker(case, 2014))
            second = _acquire(pool, randomize_attacker(case, 2015))
            fresh = FastImpactAnalyzer(randomize_attacker(case, 2015))
            query = ImpactQuery(target_increase_percent=Fraction(1))
            second_report, fresh_report = second.analyze(query), \
                fresh.analyze(query)
        finally:
            set_policy(None)
        assert first.kernel.warned
        assert second.kernel is not first.kernel
        stats = pool.stats()
        assert (stats["kernels"], stats["kernel_misses"]) == (0, 2)
        assert second.numerically_suspect is True
        assert second.numerically_suspect == fresh.numerically_suspect
        assert second_report.satisfiable == fresh_report.satisfiable
        assert second_report.trace.session["encodings_built"] == 1


class TestEvictionFreesTheAnalyzer:
    """An analyzer evicted from a pool goes at once, with the grid
    kernel or SMT encoding it held: nothing but the pool refers to it,
    so reference counting frees it without a cycle collection."""

    @pytest.fixture(autouse=True)
    def no_cycle_collection(self):
        gc.disable()
        try:
            yield
        finally:
            gc.enable()

    @staticmethod
    def _evict(kind, first, second, held):
        """Use *first*'s analyzer on a one-slot pool, evict it with
        *second*'s; weak references to the analyzer and to its attribute
        *held*."""
        pool = SessionPool(limit=1)
        analyzer = pool.acquire(first, get_case(first), kind)
        assert analyzer.solve_at(Fraction(1)).status == "complete"
        refs = weakref.ref(analyzer), weakref.ref(getattr(analyzer, held))
        del analyzer
        assert pool.acquire(second, get_case(second), kind) \
            .solve_at(Fraction(1)).status == "complete"
        assert pool.stats()["session_evictions"] == 1
        return pool, refs

    def test_an_evicted_fast_analyzer_frees_its_kernel(self):
        pool, (analyzer, kernel) = self._evict("fast", "ieee14", "ieee30",
                                               "kernel")
        assert analyzer() is None
        assert kernel() is None
        assert pool.stats()["kernels"] == 1

    def test_an_evicted_smt_analyzer_frees_its_encoding(self):
        _, (analyzer, encoding) = self._evict("smt", "5bus-study1",
                                              "5bus-study2", "_encoding")
        assert analyzer() is None
        assert encoding() is None
