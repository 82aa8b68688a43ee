"""Regression tests for the fast analyzer's candidate kernels.

The fast path must do each piece of work once: the LP-free load windows
drop a candidate before its range LPs run, each distinct flow value of a
candidate costs one believed OPF solve, and a maximized candidate whose
interval endpoints are both feasible costs exactly two solves.  The
answers are pinned to the values the un-memoised kernels produced.
"""

from collections import Counter
from fractions import Fraction

import pytest

from repro.core.fast import FastImpactAnalyzer, FastQuery
from repro.grid.cases import get_case
from repro.opf.shift_factor import ShiftFactorOpf
from repro.runner import ScenarioSpec


def _analyzer(case="ieee30", attacker_seed=None):
    spec = ScenarioSpec.build(case, analyzer="fast", target=1,
                              attacker_seed=attacker_seed)
    return FastImpactAnalyzer(spec.resolve_case())


def _spy(strategy, name, log):
    """Record the positional arguments of every call to a method."""
    original = getattr(strategy, name)

    def spy(*args):
        log.append(args)
        return original(*args)

    setattr(strategy, name, spy)


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
        _spy(analyzer._strategy, "_believed_cost", calls)
        analyzer.analyze(FastQuery(target_increase_percent=Fraction(1, 2),
                                   with_state_infection=states,
                                   state_samples=4))
        assert calls, "no candidate reached the believed OPF"
        repeated = [key for key, n in Counter(calls).items() if n > 1]
        assert repeated == []

    def test_bisection_solves_each_flow_once(self):
        """An interval with infeasible endpoints is bisected; every
        probed flow is still solved exactly once."""
        analyzer = _analyzer("5bus-study1")
        analyzer.analyze(FastQuery())
        strategy = analyzer._strategy
        calls = []
        _spy(strategy, "_believed_cost", calls)
        before = strategy._sf_opf.solve_calls
        best = strategy._maximize_over_interval("exclude", 6, -0.5, 0.5,
                                                1e-4)
        assert best is not None
        assert -0.5 < best[0] < 0.5
        assert len(calls) > 3                      # bisection ran
        assert len(set(calls)) == len(calls)
        assert strategy._sf_opf.solve_calls - before == len(calls)

    def test_feasible_endpoints_cost_two_solves(self, solve_counter):
        analyzer = _analyzer("ieee30", 2017)
        strategy = analyzer._strategy
        spans = []
        original = strategy._maximize_over_interval

        def measured(kind, line_index, lo, hi, tolerance):
            start = len(solve_counter)
            best = original(kind, line_index, lo, hi, tolerance)
            spans.append((kind, line_index, lo, hi,
                          len(solve_counter) - start))
            return best

        strategy._maximize_over_interval = measured
        analyzer.analyze(FastQuery(target_increase_percent=Fraction(1)))
        both_feasible = [
            solves for kind, line_index, lo, hi, solves in spans
            if strategy._believed_cost(kind, line_index, lo) is not None
            and strategy._believed_cost(kind, line_index, hi) is not None]
        assert both_feasible, "no candidate with two feasible endpoints"
        assert set(both_feasible) == {2}


class TestLoadWindowsFirst:
    @pytest.mark.parametrize("case,attacker_seed", [
        ("ieee57", 2014), ("ieee118", 2014),
    ])
    def test_no_range_lp_for_an_endpoint_without_load(self, case,
                                                      attacker_seed):
        analyzer = _analyzer(case, attacker_seed)
        ranged = []
        _spy(analyzer._strategy, "_reachable_flow_range", ranged)
        analyzer.analyze(FastQuery(target_increase_percent=Fraction(1)))
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
            FastQuery(target_increase_percent=Fraction(target)))
        assert report.status == "complete"
        assert report.base_cost == self.BASE
        assert not report.satisfiable
        assert report.achieved_increase_percent is None
        assert report.believed_min_cost is None
        assert report.candidates_examined == 32

    def test_below_the_ceiling(self):
        report = FastImpactAnalyzer(get_case("ieee30")).analyze(
            FastQuery(target_increase_percent=Fraction(1, 2)))
        assert report.satisfiable
        assert report.achieved_increase_percent == \
            Fraction(76418214844143, 100000000000000)
        assert report.believed_min_cost == Fraction(
            8689493167718750198545100541, 1250000000000000000000000)
        assert report.attack.excluded == [11]
