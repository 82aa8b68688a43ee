"""End-to-end plumbing of the ``numerical_unstable`` degradation status:
worker outcome, structural validation, cache round-trip with load-time
re-verification, and the CLI exit code."""

import pytest

from repro.cli import EXIT_NUMERICAL_UNSTABLE, main
from repro.grid.caseio import write_case
from repro.grid.cases import get_case
from repro.runner import (
    ScenarioOutcome,
    ScenarioSpec,
    SweepConfig,
    SweepEngine,
    execute_scenario,
)
from repro.runner.engine import verify_cached_outcome
from repro.runner.trace import NUMERICAL_UNSTABLE


_LINE_ROW = "3 2 3 5.05 0.05 1 1 1 1 1"


def _unstable_case_text():
    """5bus-study1 with one admittance scaled to a ~5e12 spread."""
    text = write_case(get_case("5bus-study1"))
    assert _LINE_ROW in text
    return text.replace(_LINE_ROW,
                        _LINE_ROW.replace("5.05", repr(5.05e-12)))


def _unstable_spec(label="unstable"):
    return ScenarioSpec.build("5bus-unstable", analyzer="fast",
                              case_text=_unstable_case_text(), target=1,
                              state_samples=2, label=label)


class TestWorkerOutcome:
    def test_execute_scenario_degrades_not_crashes(self):
        outcome = execute_scenario(_unstable_spec(), "fp")
        assert outcome.status == NUMERICAL_UNSTABLE
        assert outcome.satisfiable is not True
        assert "admittance spread" in outcome.error

    def test_structural_validation_requires_a_reason(self):
        payload = execute_scenario(_unstable_spec(), "fp").to_dict()
        ScenarioOutcome.from_dict(payload)  # intact: accepted
        payload["error"] = None
        with pytest.raises(ValueError):
            ScenarioOutcome.from_dict(payload)


class TestCacheRoundTrip:
    def _engine(self, tmp_path):
        return SweepEngine(SweepConfig(
            workers=1, cache_dir=str(tmp_path / "cache")))

    def test_outcome_is_cacheable_and_served(self, tmp_path):
        engine = self._engine(tmp_path)
        specs = [_unstable_spec()]
        first = engine.run(specs)
        assert first.outcomes[0].status == NUMERICAL_UNSTABLE
        second = engine.run(specs)
        assert second.cache_hits == 1
        served = second.outcomes[0]
        assert served.cache_hit
        assert served.status == NUMERICAL_UNSTABLE
        assert "admittance spread" in served.error

    def test_verify_accepts_honest_cached_refusal(self):
        spec = _unstable_spec()
        outcome = execute_scenario(spec, "fp")
        verify_cached_outcome(outcome, spec)  # must not raise

    def test_verify_rejects_refusal_claiming_a_verdict(self):
        spec = _unstable_spec()
        outcome = execute_scenario(spec, "fp")
        outcome.satisfiable = True
        with pytest.raises(ValueError):
            verify_cached_outcome(outcome, spec)


class TestCliExitCode:
    def test_analyze_exits_6_and_reports_reason(self, tmp_path, capsys):
        case_file = tmp_path / "unstable.case"
        case_file.write_text(_unstable_case_text())
        code = main(["analyze", "--input", str(case_file),
                     "--analyzer", "fast"])
        assert code == EXIT_NUMERICAL_UNSTABLE
        out = capsys.readouterr().out
        assert "numerically unstable (verdict withheld)" in out
        assert "admittance spread" in out

    def test_healthy_case_unaffected(self, capsys):
        assert main(["analyze", "--case", "5bus-study1",
                     "--analyzer", "fast"]) == 0
