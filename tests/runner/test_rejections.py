"""Rejected-input plumbing through the sweep engine and cache.

Preflight rejections are deterministic verdicts: they must be cached
and served like ``ok`` results, survive a diagnostics round-trip, and
be protected against the two ways a wrong rejection could get in —
fault-corrupted worker specs and stale cache entries.
"""

import pytest

from repro.runner import (
    ResultCache,
    ScenarioSpec,
    SweepConfig,
    SweepEngine,
)
from repro.runner.engine import (
    execute_scenario,
    parse_failure_report,
    verify_cached_outcome,
)
from repro.runner.trace import (
    DEGENERATE_CASE,
    INVALID_INPUT,
    OK,
    ScenarioOutcome,
)
from repro.grid.caseio import write_case
from repro.grid.cases import get_case
from repro.testing import CORRUPT_CASE, Fault, FaultPlan
from repro.validation import ValidationReport


def clean_text() -> str:
    return write_case(get_case("5bus-study1"))


def islanded_text() -> str:
    text = clean_text()
    text = text.replace("3 2 3 5.05 0.05 1 1 1 1 1",
                        "3 2 3 5.05 0.05 1 0 1 1 1")
    return text.replace("6 3 4 5.85 0.2 1 1 0 0 1",
                        "6 3 4 5.85 0.2 1 0 0 0 1")


def spec_for(text, label="cell"):
    return ScenarioSpec.build("inline", analyzer="fast", case_text=text,
                              label=label)


class TestExecuteScenario:
    def test_unparsable_text_is_invalid_input(self):
        outcome = execute_scenario(spec_for("not a case file"))
        assert outcome.status == INVALID_INPUT
        assert outcome.error
        report = outcome.diagnostics_report()
        assert report is not None and report.has("parse.malformed")

    def test_islanded_case_is_degenerate(self):
        outcome = execute_scenario(spec_for(islanded_text()))
        assert outcome.status == DEGENERATE_CASE
        assert "topology.disconnected" in outcome.error
        # the outcome round-trips its diagnostics payload losslessly.
        rebuilt = ScenarioOutcome.from_dict(outcome.to_dict())
        assert rebuilt.diagnostics == outcome.diagnostics
        assert rebuilt.diagnostics_report().fatal_status() \
            == DEGENERATE_CASE

    def test_field_error_carries_its_path(self):
        outcome = execute_scenario(
            spec_for(clean_text().replace("5.05", "1/0")))
        assert outcome.status == INVALID_INPUT
        [diag] = outcome.diagnostics_report().fatal
        assert "field:topology[2].admittance" in diag.components


class TestOutcomeValidation:
    def test_rejected_status_requires_matching_diagnostics(self):
        outcome = execute_scenario(spec_for(islanded_text()))
        payload = outcome.to_dict()
        # rewriting the status without the diagnostics to back it up
        # must be caught at the deserialization boundary.
        payload["status"] = INVALID_INPUT
        with pytest.raises(ValueError):
            ScenarioOutcome.from_dict(payload)
        payload["status"] = DEGENERATE_CASE
        payload["diagnostics"] = None
        with pytest.raises(ValueError):
            ScenarioOutcome.from_dict(payload)


class TestCachedRejections:
    def test_stale_rejection_is_not_served(self):
        # a cached degenerate verdict whose case has since been repaired
        # must fail re-verification (the engine then recomputes).
        stale = execute_scenario(spec_for(islanded_text()))
        verify_cached_outcome(stale, spec_for(islanded_text()))
        with pytest.raises(ValueError):
            verify_cached_outcome(stale, spec_for(clean_text()))

    def test_parse_failures_are_never_cached(self, tmp_path):
        # an unparsable case has no fingerprint, so its rejection cannot
        # be checkpointed; every sweep recomputes it.
        config = SweepConfig(workers=1,
                             cache_dir=str(tmp_path / "cache"),
                             use_cache=True)
        spec = spec_for("garbage", label="bad")
        for _ in range(2):
            trace = SweepEngine(config).run([spec])
            outcome = trace.outcomes[0]
            assert outcome.status == INVALID_INPUT
            assert not outcome.cache_hit
        assert ResultCache(str(tmp_path / "cache")).clear() == 0

    def test_fault_corrupted_spec_does_not_poison_cache(self, tmp_path,
                                                         monkeypatch):
        # CORRUPT_CASE swaps the worker's case text for garbage on the
        # first attempt: the resulting invalid_input rejection belongs
        # to the *mutated* spec and must not be checkpointed under the
        # original fingerprint.  The fault fires inside the supervised
        # worker, which checkpoints under the fingerprint of the spec it
        # actually analysed.
        spec = ScenarioSpec.build("5bus-study1", analyzer="fast",
                                  target=1, state_samples=4,
                                  label="cell-0")
        neighbour = ScenarioSpec.build("5bus-study2", analyzer="fast",
                                       target=1, state_samples=4,
                                       label="cell-1")
        plan = FaultPlan.single(tmp_path / "plan", "cell-0",
                                Fault(CORRUPT_CASE, times=1))
        monkeypatch.setenv("REPRO_FAULTS",
                           plan.to_file(tmp_path / "faults.json"))
        config = SweepConfig(workers=2,
                             cache_dir=str(tmp_path / "cache"),
                             use_cache=True)
        faulted = SweepEngine(config).run([spec, neighbour])
        assert faulted.mode == "parallel"
        assert faulted.outcomes[0].status == INVALID_INPUT
        assert ResultCache(str(tmp_path / "cache")).get(
            spec.fingerprint()) is None
        # the fault is exhausted; a fresh sweep must recompute the real
        # verdict, not serve the poisoned rejection from cache.
        clean = SweepEngine(config).run([spec, neighbour])
        assert clean.outcomes[0].status == OK
        assert not clean.outcomes[0].cache_hit


class TestParseFailureReport:
    def test_plain_exception_has_no_component(self):
        report = parse_failure_report("case", ValueError("boom"))
        [diag] = report.fatal
        assert diag.code == "parse.malformed"
        assert diag.components == ()
        assert isinstance(report, ValidationReport)
