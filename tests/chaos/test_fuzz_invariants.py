"""Property-based fuzzing of the preflight boundary and the numerics.

The invariant: no mutated case — corrupted text or ill-conditioned
numbers — may escape the parse → preflight → analyze path as an
uncaught exception.  Every mutant must come back either analyzed
(``sat``/``unsat``) or rejected/degraded with structured diagnostics,
and on the fast analyzer its float verdict must never silently
disagree with the exact path's.
"""

import re

import pytest

from repro.grid.caseio import parse_case, write_case
from repro.grid.cases import get_case
from repro.testing import CaseFuzzer, ESCAPE
from repro.testing import fuzz as fuzz_module
from repro.testing.fuzz import NUMERIC, TEXT, fuzz_bundled_case, run_fuzz

#: the only statuses a mutant may produce.  ``unknown`` /
#: ``budget_exhausted`` are included for completeness (a budgeted run
#: may stop early); ``numerical_unstable`` is the documented refusal of
#: an ill-conditioned numeric mutant; an ``escape`` is always a failure.
ALLOWED_STATUSES = {"sat", "unsat", "unknown", "budget_exhausted",
                    "invalid_input", "degenerate_case",
                    "numerical_unstable"}


class TestNoEscapes:
    # 300 + 150 + 60 = 510 seeded mutants per full run — comfortably
    # past the 500-mutant bar, split across cases and both analyzers.
    @pytest.mark.parametrize("case,analyzer,seed,iterations", [
        ("5bus-study1", "fast", 0, 300),
        ("ieee14", "fast", 1, 150),
        ("5bus-study1", "smt", 2, 60),
    ])
    def test_mutants_never_escape(self, case, analyzer, seed,
                                  iterations):
        report = fuzz_bundled_case(case, seed=seed,
                                   iterations=iterations,
                                   analyzer=analyzer)
        assert report.ok, report.render()
        assert sum(report.counts.values()) == iterations
        assert set(report.counts) <= ALLOWED_STATUSES
        # the stream must actually exercise the rejection paths, not
        # just produce analyzable near-copies.
        assert report.counts.get("invalid_input", 0) > 0

    def test_seeded_run_reaches_every_oracle_outcome(self):
        # The CI smoke's stream: parser rejections, numeric refusals,
        # analyzable verdicts and boundary probes, with the float and
        # exact paths never silently disagreeing.
        report = fuzz_bundled_case("5bus-study1", seed=0, iterations=200)
        assert report.ok, report.render()
        assert report.iterations == 200
        assert not report.disagreements
        assert report.counts.get("invalid_input", 0) > 0
        assert report.counts.get("numerical_unstable", 0) > 0
        assert report.counts.get("sat", 0) \
            + report.counts.get("unsat", 0) > 0
        assert report.boundary_probes > 0

    def test_statuses_match_the_cli_exit_contract(self):
        # every rejection status the fuzzer can tally has a dedicated
        # CLI exit code; drift here would desynchronize CI gating.
        from repro.cli import (EXIT_DEGENERATE_CASE, EXIT_INVALID_INPUT,
                               EXIT_NUMERICAL_UNSTABLE)
        assert EXIT_INVALID_INPUT == 3
        assert EXIT_DEGENERATE_CASE == 4
        assert EXIT_NUMERICAL_UNSTABLE == 6
        assert {"invalid_input", "degenerate_case",
                "numerical_unstable"} <= ALLOWED_STATUSES


def _first_of_each_family(fuzzer, limit=50):
    found = {}
    for iteration in range(limit):
        found.setdefault(fuzzer.mutant(iteration).family, iteration)
    return found


class TestFuzzerMechanics:
    def test_mutants_are_deterministic_and_addressable(self):
        text = write_case(get_case("5bus-study1"))
        found = _first_of_each_family(CaseFuzzer(text, seed=9))
        assert set(found) == {TEXT, NUMERIC}
        for family, iteration in found.items():
            one = CaseFuzzer(text, seed=9).mutant(iteration)
            two = CaseFuzzer(text, seed=9).mutant(iteration)
            assert one == two
            assert one.family == family
            assert one.text != text
            assert one.mutations
        # a different seed reaches a different mutant
        assert CaseFuzzer(text, seed=10).mutant(17).text \
            != CaseFuzzer(text, seed=9).mutant(17).text

    def test_base_case_is_never_mutated(self):
        text = write_case(get_case("5bus-study1"))
        fuzzer = CaseFuzzer(text, seed=0)
        list(fuzzer.mutants(60))
        assert fuzzer.base_text == text
        assert fuzzer.base == parse_case(text, name="fuzz")

    def test_numeric_mutant_text_parses_to_its_exact_values(self):
        base = get_case("5bus-study1")
        fuzzer = CaseFuzzer(write_case(base), seed=0, max_mutations=1)
        pinned = scaled = 0
        for mutant in fuzzer.mutants(200):
            if mutant.family != NUMERIC:
                continue
            case = parse_case(mutant.text)
            (mutation,) = mutant.mutations
            if "pinned near" in mutation:
                # the margin is 1e-7..1e-10 of the load's span: a lossy
                # writer would round it back onto the bound.
                pinned += 1
                bus = int(re.search(r"bus (\d+)", mutation).group(1))
                load = next(x for x in case.loads if x.bus == bus)
                assert load.p_min < load.existing < load.p_max
            match = re.match(r"line (\d+): admittance /1e(\d+)", mutation)
            if match:
                scaled += 1
                index, k = int(match.group(1)), int(match.group(2))
                assert case.line_spec(index).admittance == \
                    base.line_spec(index).admittance / 10 ** k
        assert pinned and scaled

    def test_escapes_are_captured_not_raised(self, monkeypatch):
        def boom(text, **kwargs):
            raise RuntimeError("driver bug")
        monkeypatch.setattr(fuzz_module, "analyze_text", boom)
        text = write_case(get_case("5bus-study1"))
        report = run_fuzz(text, iterations=3)
        assert not report.ok
        assert report.counts == {ESCAPE: 3}
        assert "RuntimeError: driver bug" in report.escapes[0].detail
        assert "ESCAPE at iteration 0" in report.render()

    def test_silent_disagreement_fails_the_run(self, monkeypatch):
        # A float path that says sat while the forced-exact path says
        # unsat, with no escalation note, must fail the oracle.
        real = fuzz_module.analyze_text

        def skewed(text, **kwargs):
            status, report = real(text, **kwargs)
            if kwargs.get("escalation_band") == float("inf") \
                    and status == "sat":
                return "unsat", report
            return status, report
        monkeypatch.setattr(fuzz_module, "analyze_text", skewed)
        report = fuzz_bundled_case("5bus-study1", seed=0, iterations=40)
        assert not report.ok
        assert report.disagreements
        assert not report.escapes
        assert "exact path says unsat" in report.disagreements[0].detail
        assert "SILENT DISAGREEMENT at iteration" in report.render()

    def test_time_limit_truncates_instead_of_overshooting(self):
        text = write_case(get_case("5bus-study1"))
        report = run_fuzz(text, iterations=100_000, time_limit=0.0)
        assert report.truncated
        assert not report.ok
        assert report.iterations < 100_000
        assert "[truncated by time limit]" in report.render()

    def test_bundled_entry_point_and_render(self):
        report = fuzz_bundled_case("5bus-study2", seed=7, iterations=15)
        assert report.ok, report.render()
        text = report.render()
        assert "fuzz 5bus-study2" in text
        assert "15 of 15 mutants" in text
        assert "oracle held on every mutant" in text
