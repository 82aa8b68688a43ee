"""Regression tests for the fast analyzer's candidate kernels.

The fast path must do each piece of work once: the LP-free load windows
drop a candidate before its range LPs run, a range LP runs only while
its result can still change the usable flow interval, each distinct
flow value of a candidate costs one believed OPF solve, and a maximized
candidate whose interval endpoints are both feasible costs exactly two
solves.  The answers are pinned to the values the un-memoised kernels
produced.
"""

from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

import repro.core.fast as fast_module
from repro.core import ImpactQuery
from repro.core.fast import FastImpactAnalyzer, GridKernel, \
    box_balance_extremes
from repro.grid.cases import get_case
from repro.opf.shift_factor import ShiftFactorOpf
from repro.runner import ScenarioSpec
from repro.runner.spec import randomize_attacker


def _analyzer(case="ieee30", attacker_seed=None):
    spec = ScenarioSpec.build(case, analyzer="fast", target=1,
                              attacker_seed=attacker_seed)
    return FastImpactAnalyzer(spec.resolve_case())


def _spy(analyzer, name, log):
    """Record the positional arguments of every call to a method."""
    original = getattr(analyzer, name)

    def spy(*args):
        log.append(args)
        return original(*args)

    setattr(analyzer, name, spy)


@pytest.fixture
def solve_counter(monkeypatch):
    """Counts every ``ShiftFactorOpf.solve`` call, by name."""
    calls = []
    original = ShiftFactorOpf.solve

    def counting(self, *args, **kwargs):
        calls.append(args)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(ShiftFactorOpf, "solve", counting)
    return calls


class TestOneSolvePerFlow:
    @pytest.mark.parametrize("case,attacker_seed,states", [
        ("ieee14", None, False),
        ("ieee30", 2017, False),
        ("ieee57", 2014, True),
    ])
    def test_no_flow_solved_twice_in_a_query(self, case, attacker_seed,
                                             states):
        analyzer = _analyzer(case, attacker_seed)
        calls = []
        _spy(analyzer, "_believed_cost", calls)
        analyzer.analyze(ImpactQuery(target_increase_percent=Fraction(1, 2),
                                     with_state_infection=states,
                                     state_samples=4))
        assert calls, "no candidate reached the believed OPF"
        repeated = [key for key, n in Counter(calls).items() if n > 1]
        assert repeated == []

    def test_bisection_solves_each_flow_once(self):
        """An interval with infeasible endpoints is bisected; every
        probed flow is still solved exactly once."""
        analyzer = _analyzer("5bus-study1")
        analyzer.analyze(ImpactQuery())
        calls = []
        _spy(analyzer, "_believed_cost", calls)
        before = analyzer.kernel.sf_opf.solve_calls
        best = analyzer._maximize_over_interval("exclude", 6, -0.5, 0.5)
        assert best is not None
        assert -0.5 < best[0] < 0.5
        assert len(calls) > 3                      # bisection ran
        assert len(set(calls)) == len(calls)
        assert analyzer.kernel.sf_opf.solve_calls - before == len(calls)

    def test_feasible_endpoints_cost_two_solves(self, solve_counter):
        analyzer = _analyzer("ieee30", 2017)
        spans = []
        original = analyzer._maximize_over_interval

        def measured(kind, line_index, lo, hi):
            start = len(solve_counter)
            best = original(kind, line_index, lo, hi)
            spans.append((kind, line_index, lo, hi,
                          len(solve_counter) - start))
            return best

        analyzer._maximize_over_interval = measured
        analyzer.analyze(ImpactQuery(target_increase_percent=Fraction(1)))
        both_feasible = [
            solves for kind, line_index, lo, hi, solves in spans
            if analyzer._believed_cost(kind, line_index, lo) is not None
            and analyzer._believed_cost(kind, line_index, hi) is not None]
        assert both_feasible, "no candidate with two feasible endpoints"
        assert set(both_feasible) == {2}


class TestGridKernel:
    """The grid-only state is one kernel an analyzer can be handed."""

    def test_attacker_fields_do_not_split_a_grid(self):
        case = get_case("ieee14")
        keys = {GridKernel.key(randomize_attacker(case, seed))
                for seed in range(2014, 2020)}
        assert keys == {GridKernel.key(case)}

    def test_a_handed_kernel_is_not_rebuilt(self, monkeypatch):
        case = get_case("ieee30")
        first = FastImpactAnalyzer(randomize_attacker(case, 2014))
        built = []
        monkeypatch.setattr(fast_module, "ShiftFactorOpf",
                            lambda *args: built.append(args))
        second = FastImpactAnalyzer(randomize_attacker(case, 2017),
                                    kernel=first.kernel)
        monkeypatch.undo()
        assert built == []
        assert second.kernel is first.kernel
        query = ImpactQuery(target_increase_percent=Fraction(1, 2))
        report = second.analyze(query)
        fresh = FastImpactAnalyzer(
            randomize_attacker(case, 2017)).analyze(query)
        assert (report.satisfiable, report.achieved_increase_percent,
                report.candidates_examined) == \
            (fresh.satisfiable, fresh.achieved_increase_percent,
             fresh.candidates_examined)
        assert report.trace.session["encodings_built"] == 0


class TestLoadWindowsFirst:
    @pytest.mark.parametrize("case,attacker_seed", [
        ("ieee57", 2014), ("ieee118", 2014),
    ])
    def test_no_range_lp_for_an_endpoint_without_load(self, case,
                                                      attacker_seed):
        analyzer = _analyzer(case, attacker_seed)
        ranged = []
        _spy(analyzer, "_reachable_flow_range", ranged)
        analyzer.analyze(ImpactQuery(target_increase_percent=Fraction(1)))
        grid = analyzer.grid
        dropped = [e for e in analyzer.evaluations
                   if e.reason.endswith("has no load headroom")]
        assert dropped, "no candidate was dropped by a load window"
        assert ranged
        for kind, line_index in ranged:
            line = grid.line(line_index)
            assert line.from_bus in grid.loads
            assert line.to_bus in grid.loads
        assert not {(e.kind, e.line_index) for e in dropped} \
            & set(ranged)


class TestPinnedAnswers:
    """``ieee30`` answers recorded before the kernels were memoised."""

    BASE = Fraction(862359320787, 125000000)

    @pytest.mark.parametrize("target", [1, 4, 8])
    def test_above_the_ceiling(self, target):
        report = FastImpactAnalyzer(get_case("ieee30")).analyze(
            ImpactQuery(target_increase_percent=Fraction(target)))
        assert report.status == "complete"
        assert report.base_cost == self.BASE
        assert not report.satisfiable
        assert report.achieved_increase_percent is None
        assert report.believed_min_cost is None
        assert report.candidates_examined == 32

    def test_below_the_ceiling(self):
        report = FastImpactAnalyzer(get_case("ieee30")).analyze(
            ImpactQuery(target_increase_percent=Fraction(1, 2)))
        assert report.satisfiable
        assert report.achieved_increase_percent == \
            Fraction(76418214844143, 100000000000000)
        assert report.believed_min_cost == Fraction(
            8689493167718750198545100541, 1250000000000000000000000)
        assert report.attack.excluded == [11]


def _usable_interval_from_both_extremes(analyzer, kind, line_index):
    """The usable flow interval as both range LPs give it: the min and
    max flow over the operating polytope, clipped to the line capacity
    and to both endpoints' Eq.-36 load windows.  None when it is empty."""
    grid = analyzer.grid
    factors = analyzer.kernel.sf_opf.factors
    row = factors.row(line_index) if kind == "exclude" \
        else factors.open_line_flow_row(line_index)
    c = np.array([row[bus - 1] for bus in analyzer.kernel.sf_opf.gen_buses])
    const = -float(row @ analyzer.kernel.demand)
    extremes = []
    for direction in (1.0, -1.0):
        result = linprog(direction * c, **analyzer.kernel.operating_lp)
        assert result.success
        extremes.append(float(c @ result.x) + const)
    line = grid.line(line_index)
    cap = float(line.capacity)
    lo, hi = max(min(extremes), -cap), min(max(extremes), cap)
    sign = 1.0 if kind == "exclude" else -1.0
    # believed load = existing + s*f must stay within [p_min, p_max]
    for bus, s in ((line.from_bus, sign), (line.to_bus, -sign)):
        load = grid.loads[bus]
        low = float(load.p_min - load.existing)
        high = float(load.p_max - load.existing)
        window = (low, high) if s > 0 else (-high, -low)
        lo, hi = max(lo, window[0]), min(hi, window[1])
    return None if lo > hi else (lo, hi)


class TestRangeLpsOnlyWhenTheyMatter:
    """The usable flow interval is settled by a closed-form bound, one
    LP or both — and always equals what both extremes give."""

    @pytest.mark.parametrize("case,range_lps,settled_by", [
        ("ieee57", 14, {0: 2, 1: 6, 2: 4}),
        ("ieee118", 49, {0: 4, 1: 9, 2: 20}),
    ])
    def test_interval_equals_both_extremes(self, monkeypatch, case,
                                           range_lps, settled_by):
        analyzer = _analyzer(case, 2014)
        lps = []
        counted = fast_module.linprog

        def counting(*args, **kwargs):
            lps.append(args)
            return counted(*args, **kwargs)

        monkeypatch.setattr(fast_module, "linprog", counting)
        ranges = {}
        original = analyzer._reachable_flow_range

        def spy(kind, line_index):
            before = len(lps)
            usable = original(kind, line_index)
            ranges[kind, line_index] = (usable, len(lps) - before)
            return usable

        analyzer._reachable_flow_range = spy
        analyzer.analyze(ImpactQuery(target_increase_percent=Fraction(1)))

        assert len(lps) == range_lps
        assert Counter(n for _, n in ranges.values()) == settled_by
        for (kind, line_index), (usable, _) in ranges.items():
            expected = _usable_interval_from_both_extremes(
                analyzer, kind, line_index)
            if expected is None:
                assert usable[0] > usable[1], (kind, line_index)
            else:
                assert usable == expected, (kind, line_index)


def _box_balance_lp(c, low, high, total, A_ub=None, b_ub=None):
    """``linprog`` min and max of ``c @ x`` over the same polytope."""
    values = []
    for direction in (1.0, -1.0):
        result = linprog(direction * c, A_ub=A_ub, b_ub=b_ub,
                         A_eq=np.ones((1, len(c))), b_eq=[total],
                         bounds=list(zip(low, high)), method="highs")
        if not result.success:
            return None
        values.append(float(c @ result.x))
    return values[0], values[1]


class TestBoxBalanceExtremes:
    """The closed-form bound is exact over the generator box and power
    balance, and only loosens once line rows are added."""

    @staticmethod
    def _box(seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 9))
        low = np.round(rng.uniform(-1.0, 2.0, n), 3)
        high = low + np.round(rng.uniform(0.0, 3.0, n), 3)
        # ties between coefficients are common in PTDF rows
        c = np.round(rng.uniform(-1.0, 1.0, n), int(rng.integers(1, 4)))
        total = float(low.sum() + rng.uniform(0.0, 1.0)
                      * (high - low).sum())
        return rng, c, low, high, total

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_equals_linprog_on_the_relaxed_polytope(self, seed):
        _, c, low, high, total = self._box(seed)
        closed = box_balance_extremes(c, low, high, total)
        lp = _box_balance_lp(c, low, high, total)
        assert lp is not None
        assert closed[0] == pytest.approx(lp[0], abs=1e-9)
        assert closed[1] == pytest.approx(lp[1], abs=1e-9)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_no_tighter_than_linprog_with_line_rows(self, seed):
        rng, c, low, high, total = self._box(seed)
        rows = int(rng.integers(1, 6))
        A_ub = rng.uniform(-1.0, 1.0, (rows, len(c)))
        # keep one random dispatch of the box and balance feasible
        point = low + (high - low) * (total - low.sum()) \
            / max((high - low).sum(), 1e-12)
        b_ub = A_ub @ point + rng.uniform(0.0, 1.0, rows)
        lp = _box_balance_lp(c, low, high, total, A_ub, b_ub)
        assert lp is not None
        lower, upper = box_balance_extremes(c, low, high, total)
        assert lower <= lp[0] + 1e-9
        assert upper >= lp[1] - 1e-9
