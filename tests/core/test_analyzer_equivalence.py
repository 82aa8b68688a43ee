"""Differential suite: the SMT framework vs. the fast analyzer.

Both analyzers answer the same question — does a stealthy topology
poisoning attack with at least the target cost impact exist? — through
the shared :class:`~repro.core.session.AnalysisSession` layer, so their
*verdicts* must agree wherever the fast analyzer's single-line candidate
space contains a witness.  This suite pins that agreement across a
seeded case library, including the cross-cutting paths the session
layer owns: budget exhaustion, preflight rejection, run-note
diagnostics, and warm re-solving.
"""

from fractions import Fraction

import pytest

from repro.core import (
    FastImpactAnalyzer,
    ImpactAnalyzer,
    ImpactQuery,
)
from repro.exceptions import ModelError
from repro.grid.caseio import parse_case, write_case
from repro.grid.cases import get_case
from repro.smt.budget import SolverBudget

#: (case, target %) cells where the two analyzers must agree.  Chosen so
#: the sweep crosses each case's sat/unsat boundary.
CASE_LIBRARY = [
    ("5bus-study1", 1),
    ("5bus-study1", 3),
    ("5bus-study1", 5),
    ("5bus-study2", 2),
    ("5bus-study2", 8),
]


def _run_both(case, target, **common):
    smt = ImpactAnalyzer(case).analyze(ImpactQuery(
        target_increase_percent=target, **common))
    fast = FastImpactAnalyzer(case).analyze(ImpactQuery(
        target_increase_percent=target, **common))
    return smt, fast


def _codes(report):
    if report.diagnostics is None:
        return set()
    return {d.code for d in report.diagnostics.diagnostics}


class TestVerdictAgreement:
    @pytest.mark.parametrize("name,target", CASE_LIBRARY)
    def test_same_verdict_and_status(self, name, target):
        smt, fast = _run_both(get_case(name), target)
        assert smt.status == "complete"
        assert fast.status == "complete"
        assert smt.satisfiable == fast.satisfiable

    @pytest.mark.parametrize("name,target", CASE_LIBRARY)
    def test_cost_increase_agrees_to_query_precision(self, name, target):
        smt, fast = _run_both(get_case(name), target)
        if not smt.satisfiable:
            assert smt.believed_min_cost is None
            assert fast.believed_min_cost is None
            return
        smt_inc = float(smt.achieved_increase_percent)
        fast_inc = float(fast.achieved_increase_percent)
        # Both witnesses meet the target, but each analyzer stops at the
        # first attack that does, not at the worst one, so the believed
        # optima may differ by sub-0.1% — never by a different verdict
        # band.
        assert smt_inc >= target - 1e-6
        assert fast_inc >= target - 1e-6
        assert abs(smt_inc - fast_inc) < 0.1
        assert smt.believed_min_cost >= smt.threshold
        assert Fraction(fast.believed_min_cost) >= \
            fast.threshold * Fraction(999999, 1000000)


class TestOneQueryBothAnalyzers:
    """Both analyzers are asked the *same* query object, its sampling
    fields set (the SMT search samples nothing and ignores them)."""

    @pytest.mark.parametrize("target", [1, 3])
    def test_same_verdict_and_exact_base_cost(self, target):
        case = get_case("5bus-study1")
        query = ImpactQuery(target_increase_percent=Fraction(target),
                            state_samples=4, seed=7)
        smt = ImpactAnalyzer(case).analyze(query)
        fast = FastImpactAnalyzer(case).analyze(query)
        assert smt.status == fast.status == "complete"
        assert smt.satisfiable == fast.satisfiable
        # The fast pipeline's HiGHS cost is packed to 9 decimals; the
        # SMT analyzer's exact rational base cost rounds to it.
        assert isinstance(smt.base_cost, Fraction)
        assert round(smt.base_cost, 9) == fast.base_cost

    @pytest.mark.parametrize("fields", [
        {"allow_topology_attack": False, "with_state_infection": True},
        {"verify_with_smt_opf": True},
    ])
    def test_fast_refuses_what_it_cannot_honour(self, fields):
        query = ImpactQuery(**fields)
        with pytest.raises(ModelError):
            FastImpactAnalyzer(get_case("5bus-study1")).analyze(query)
        # The SMT analyzer answers the same query.
        assert ImpactAnalyzer(get_case("5bus-study1")).analyze(
            query).status == "complete"


class TestIslandingRunNotes:
    """Satellite: both code paths emit the *same* run-note codes when a
    candidate islands the believed five-bus topology."""

    def _case(self):
        # Line 3 (2-3) removed from the true topology: bus 3 hangs on
        # line 6 alone, so the exclude-line-6 candidate islands it.
        text = write_case(get_case("5bus-study1"))
        text = text.replace("3 2 3 5.05 0.05 1 1 1 1 1",
                            "3 2 3 5.05 0.05 1 0 1 1 1")
        return parse_case(text, name="islanding-candidate")

    def test_identical_run_note_codes(self):
        smt, fast = _run_both(self._case(), 2)
        assert smt.satisfiable == fast.satisfiable
        assert _codes(smt) == _codes(fast)
        assert "topology.attack_islands_network" in _codes(smt)

    def test_fast_note_names_the_islanding_line(self):
        _, fast = _run_both(self._case(), 2)
        notes = [d for d in fast.diagnostics.diagnostics
                 if d.code == "topology.attack_islands_network"]
        assert notes and "line:6" in notes[0].components


class TestBudgetExhaustedAgreement:
    def test_both_report_partial_with_reason(self):
        case = get_case("5bus-study1")
        smt = ImpactAnalyzer(case).analyze(ImpactQuery(
            target_increase_percent=3,
            budget=SolverBudget(wall_seconds=1e-9)))
        fast = FastImpactAnalyzer(case).analyze(ImpactQuery(
            target_increase_percent=3,
            budget=SolverBudget(wall_seconds=1e-9)))
        for report in (smt, fast):
            assert report.status == "budget_exhausted"
            assert report.is_partial
            assert not report.satisfiable
            assert "wall-clock" in report.budget_reason
        # certified tracks the (shared) self-check default either way
        assert smt.certified == fast.certified


class TestRejectedAgreement:
    def _islanded_case(self):
        text = write_case(get_case("5bus-study1"))
        text = text.replace("3 2 3 5.05 0.05 1 1 1 1 1",
                            "3 2 3 5.05 0.05 1 0 1 1 1")
        text = text.replace("6 3 4 5.85 0.2 1 1 0 0 1",
                            "6 3 4 5.85 0.2 1 0 0 0 1")
        return parse_case(text, name="islanded")

    def test_both_reject_identically(self):
        case = self._islanded_case()
        smt = ImpactAnalyzer(case).analyze(ImpactQuery(
            target_increase_percent=3))
        fast = FastImpactAnalyzer(case).analyze(ImpactQuery(
            target_increase_percent=3))
        for report in (smt, fast):
            assert report.status == "degenerate_case"
            assert report.is_rejected
            assert not report.satisfiable
        smt_fatal = {d.code for d in smt.diagnostics.fatal}
        fast_fatal = {d.code for d in fast.diagnostics.fatal}
        assert smt_fatal == fast_fatal
        assert "topology.disconnected" in smt_fatal


class TestWarmColdEquivalence:
    """Reusing one SMT analyzer (warm re-solves) is a pure optimization:
    verdicts match a fresh analyzer's cold first solve at every
    threshold, and the session trace proves the reused analyzer built
    its encoding exactly once."""

    def test_threshold_sweep_matches_cold(self):
        case = get_case("5bus-study1")
        warm = ImpactAnalyzer(case)
        built = 0
        for target in (1, 2, 3, 4, 5, 6):
            warm_report = warm.solve_at(target)
            cold_report = ImpactAnalyzer(case).analyze(ImpactQuery(
                target_increase_percent=target))
            assert warm_report.satisfiable == cold_report.satisfiable
            assert warm_report.status == cold_report.status == "complete"
            session = warm_report.trace.session
            built += session["encodings_built"]
            assert session["strategy"] == "smt"
            cold_session = cold_report.trace.session
            assert cold_session["warm"] is False
            assert cold_session["encodings_built"] == 1
        assert built == 1   # encoded once, re-solved five more times

    def test_fast_solve_at_is_warm_after_first_run(self):
        analyzer = FastImpactAnalyzer(get_case("5bus-study1"))
        first = analyzer.solve_at(1)
        second = analyzer.solve_at(5)
        assert first.trace.session["encodings_built"] == 1
        assert second.trace.session["warm"] is True
        assert second.trace.session["encodings_built"] == 0


class TestSolveAtDefaultTarget:
    """Satellite: ``solve_at(percent=None)`` must fall back to
    ``case.min_increase_percent`` on *both* strategies, exactly like the
    one-shot ``analyze`` path does."""

    @pytest.mark.parametrize("name", ["5bus-study1", "5bus-study2"])
    def test_none_means_case_default_on_both_paths(self, name):
        case = get_case(name)
        expected = Fraction(case.min_increase_percent)
        smt = ImpactAnalyzer(case).solve_at(None)
        fast = FastImpactAnalyzer(case).solve_at(None)
        for report in (smt, fast):
            assert report.status == "complete"
            assert report.target_increase_percent == expected
            # the fallback threshold is derived from the default, on
            # each analyzer's own exact base cost
            assert report.threshold == \
                report.base_cost * (1 + expected / 100)
        assert smt.satisfiable == fast.satisfiable

    def test_none_equals_explicit_default_and_oneshot(self):
        case = get_case("5bus-study1")
        expected = Fraction(case.min_increase_percent)
        implicit = FastImpactAnalyzer(case).solve_at()
        explicit = FastImpactAnalyzer(case).solve_at(expected)
        oneshot = FastImpactAnalyzer(case).analyze(ImpactQuery())
        assert implicit.satisfiable == explicit.satisfiable \
            == oneshot.satisfiable
        assert implicit.threshold == explicit.threshold \
            == oneshot.threshold
        assert implicit.target_increase_percent == expected
        assert oneshot.target_increase_percent == expected
