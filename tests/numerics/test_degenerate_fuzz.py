"""Numeric-family fuzzer checks plus the targeted ill-conditioning
escalation behaviors the case fuzzer's float/exact oracle rests on (the
rest of the fuzzer is tested in ``tests/chaos/test_fuzz_invariants.py``)."""

from repro.core import FastImpactAnalyzer, ImpactQuery
from repro.grid.caseio import parse_case, write_case
from repro.grid.cases import get_case
from repro.testing import CaseFuzzer
from repro.testing.fuzz import NUMERIC, run_fuzz


def _scaled_case(factor, line_row="3 2 3 5.05 0.05 1 1 1 1 1",
                 admittance="5.05"):
    """5bus-study1 with one line's admittance rescaled."""
    text = write_case(get_case("5bus-study1"))
    scaled = line_row.replace(admittance, repr(float(admittance) * factor))
    return parse_case(text.replace(line_row, scaled), name="scaled")


class TestFuzzerDeterminism:
    def test_mutants_are_iteration_addressable(self):
        # A numeric mutant drawn on its own equals the one at the same
        # position of the stream, down to the parsed admittances.
        text = write_case(get_case("5bus-study1"))
        streamed = [m for m in CaseFuzzer(text, seed=3).mutants(40)
                    if m.family == NUMERIC]
        assert streamed
        for mutant in streamed:
            alone = CaseFuzzer(text, seed=3).mutant(mutant.iteration)
            assert alone == mutant
            assert [s.admittance for s in parse_case(alone.text).line_specs] \
                == [s.admittance for s in parse_case(mutant.text).line_specs]


class TestFuzzSmoke:
    def test_time_limit_truncates(self):
        report = run_fuzz(write_case(get_case("5bus-study1")), seed=0,
                          iterations=10_000, time_limit=1.0)
        assert report.truncated
        assert not report.ok
        assert report.requested == 10_000
        assert 0 < report.iterations < 10_000
        assert sum(report.counts.values()) == report.iterations


class TestIllConditioningEscalation:
    """A verdict computed under guarded-linalg warnings is re-decided on
    the exact path even far from the Eq. 37 boundary."""

    def test_warn_band_spread_escalates_verdict(self):
        # Spread ~4.7e8: above the 1e8 warn threshold, below fail.
        case = _scaled_case(1e-8)
        report = FastImpactAnalyzer(case).analyze(ImpactQuery(
            target_increase_percent=1, state_samples=2))
        assert report.status == "complete"
        codes = {d.code for d in report.diagnostics.diagnostics}
        assert "numeric.ill_conditioned" in codes
        assert "numeric.boundary_escalated" in codes
        assert report.trace.session["boundary_escalations"] >= 1

    def test_fail_band_spread_degrades_to_numerical_unstable(self):
        # Spread ~4.7e12: past the 1e12 fail threshold.
        case = _scaled_case(1e-12)
        report = FastImpactAnalyzer(case).analyze(ImpactQuery(
            target_increase_percent=1, state_samples=2))
        assert report.status == "numerical_unstable"
        assert not report.satisfiable
        assert "admittance spread" in report.numeric_reason

    def test_clean_case_does_not_escalate(self):
        report = FastImpactAnalyzer(get_case("5bus-study1")).analyze(
            ImpactQuery(target_increase_percent=1, state_samples=2))
        assert report.status == "complete"
        codes = {d.code for d in (report.diagnostics.diagnostics
                                  if report.diagnostics else [])}
        assert "numeric.boundary_escalated" not in codes
        assert report.trace.session["boundary_escalations"] == 0
