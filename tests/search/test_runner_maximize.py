"""Maximize mode through the runner: specs, outcomes, cache, warm groups."""

import json
from fractions import Fraction

import pytest

from repro.exceptions import ModelError
from repro.runner.engine import (
    SweepConfig,
    SweepEngine,
    execute_scenario,
    run_unit,
    verify_cached_outcome,
)
from repro.runner.spec import ScenarioSpec
from repro.runner.trace import ScenarioOutcome


def _maximize_spec(**kwargs):
    kwargs.setdefault("analyzer", "fast")
    return ScenarioSpec.build("5bus-study1", search="maximize", **kwargs)


class TestSpec:
    def test_search_mode_validated(self):
        with pytest.raises(ModelError):
            ScenarioSpec.build("5bus-study1", search="minimize")

    def test_tolerance_requires_maximize(self):
        with pytest.raises(ModelError):
            ScenarioSpec.build("5bus-study1", tolerance="1/8")
        with pytest.raises(ModelError):
            ScenarioSpec.build("5bus-study1", search="maximize",
                               tolerance=0)

    def test_fingerprint_distinguishes_search_and_tolerance(self):
        decision = ScenarioSpec.build("5bus-study1")
        maximize = _maximize_spec(analyzer="auto")
        finer = ScenarioSpec.build("5bus-study1", search="maximize",
                                   tolerance="1/16")
        prints = {decision.fingerprint(), maximize.fingerprint(),
                  finer.fingerprint()}
        assert len(prints) == 3

    def test_maximize_label_and_exact_tolerance(self):
        spec = _maximize_spec(tolerance="0.25")
        assert spec.label.endswith("/max")
        assert spec.tolerance_fraction() == Fraction(1, 4)

    def test_decision_and_maximize_share_encoding_groups(self):
        decision = ScenarioSpec.build("5bus-study1", analyzer="fast")
        assert decision.encoding_group() == \
            _maximize_spec().encoding_group()


class TestOutcome:
    @pytest.fixture(scope="class")
    def outcome(self):
        spec = _maximize_spec()
        return execute_scenario(spec, spec.fingerprint())

    def test_execution_fills_max_impact_payload(self, outcome):
        assert outcome.status == "ok"
        assert outcome.satisfiable
        payload = outcome.max_impact
        assert payload["status"] == "complete"
        istar = Fraction(payload["max_increase_percent"])
        assert Fraction(4) < istar < Fraction(5)
        # verdict mirror: threshold corresponds to I*, not the anchor
        assert Fraction(outcome.threshold) == \
            Fraction(outcome.base_cost) * (1 + istar / 100)
        search = outcome.trace["session"]["search"]
        assert search["mode"] == "maximize"
        assert search["solve_at_calls"] == payload["solve_at_calls"]

    def test_round_trip_and_semantic_verification(self, outcome):
        spec = outcome.spec
        payload = json.loads(json.dumps(outcome.to_dict()))
        restored = ScenarioOutcome.from_dict(payload)
        verify_cached_outcome(restored, spec)

    def test_tampered_bracket_is_rejected(self, outcome):
        spec = outcome.spec
        tampered = json.loads(json.dumps(outcome.to_dict()))
        tampered["max_impact"]["lower_bound"] = "63"
        tampered["max_impact"]["upper_bound"] = "505/8"
        tampered["max_impact"]["max_increase_percent"] = "63"
        restored = ScenarioOutcome.from_dict(tampered)
        with pytest.raises(ValueError):
            verify_cached_outcome(restored, spec)

    def test_ok_maximize_outcome_requires_payload(self, outcome):
        stripped = json.loads(json.dumps(outcome.to_dict()))
        stripped["max_impact"] = None
        with pytest.raises(ValueError):
            ScenarioOutcome.from_dict(stripped)

    def test_decision_outcome_must_not_carry_payload(self):
        spec = ScenarioSpec.build("5bus-study1", analyzer="fast")
        outcome = execute_scenario(spec, spec.fingerprint())
        assert outcome.max_impact is None
        bad = json.loads(json.dumps(outcome.to_dict()))
        bad["max_impact"] = {"status": "complete"}
        with pytest.raises(ValueError):
            ScenarioOutcome.from_dict(bad)


class TestWarmGroup:
    def test_group_maximize_matches_cold_and_reuses_encoding(self):
        specs = [ScenarioSpec.build("5bus-study1", analyzer="smt",
                                    target=3),
                 ScenarioSpec.build("5bus-study1", analyzer="smt",
                                    search="maximize")]
        outcomes = list(run_unit(
            specs, [s.fingerprint() for s in specs]))
        assert [o.status for o in outcomes] == ["ok", "ok"]
        warm = outcomes[1]
        cold = execute_scenario(specs[1], specs[1].fingerprint())
        assert warm.max_impact["max_increase_percent"] == \
            cold.max_impact["max_increase_percent"]
        # the decision cell built the encoding; the maximize cell only
        # re-solved warm inside it
        assert warm.max_impact["encodings_built"] == 0
        assert warm.max_impact["warm_solves"] == \
            warm.max_impact["solve_at_calls"]


class TestEngineCache:
    def test_sweep_caches_and_reverifies_maximize_cells(self, tmp_path):
        spec = _maximize_spec()
        config = SweepConfig(workers=1, cache_dir=str(tmp_path))
        first = SweepEngine(config).run([spec])
        assert [o.status for o in first.outcomes] == ["ok"]
        assert first.cache_hits == 0
        second = SweepEngine(config).run([spec])
        assert second.cache_hits == 1
        served = second.outcomes[0]
        assert served.max_impact["max_increase_percent"] == \
            first.outcomes[0].max_impact["max_increase_percent"]
        assert second.to_dict()["totals"]["max_impact_cells"] == 1

    def test_budget_exhausted_maximize_is_unknown_with_bracket(self):
        spec = _maximize_spec()
        config = SweepConfig(workers=1, use_cache=False,
                             task_timeout=1e-9)
        trace = SweepEngine(config).run([spec])
        outcome = trace.outcomes[0]
        assert outcome.status == "unknown"
        assert outcome.max_impact["status"] == "budget_exhausted"
