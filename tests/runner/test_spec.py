"""Tests for scenario specifications and fingerprinting."""

from fractions import Fraction

import pytest

from repro.exceptions import ModelError
from repro.grid import write_case
from repro.grid.cases import get_case
from repro.runner import ScenarioSpec, code_fingerprint


class TestBuild:
    def test_target_normalized_to_fraction_string(self):
        spec = ScenarioSpec.build("5bus-study1", target=2.5)
        assert spec.target == "5/2"
        assert spec.target_fraction() == Fraction(5, 2)

    def test_no_target(self):
        spec = ScenarioSpec.build("5bus-study1")
        assert spec.target is None
        assert spec.target_fraction() is None

    def test_label_generated(self):
        spec = ScenarioSpec.build("5bus-study1", attacker_seed=2014,
                                  target=3, with_state_infection=True)
        assert spec.label == "5bus-study1/s2014/t3/states"

    def test_rejects_unknown_analyzer(self):
        with pytest.raises(ModelError):
            ScenarioSpec.build("5bus-study1", analyzer="quantum")

    def test_round_trips_through_dict(self):
        spec = ScenarioSpec.build("ieee14", attacker_seed=7, target=2,
                                  with_state_infection=True)
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec

    @pytest.mark.parametrize("payload", [
        ["5bus-study1"],
        {"case": "5bus-study1", "not_a_field": 1},
        # A cache-format-v7 spec: the backend knob no longer exists, so
        # a stale entry is recomputed rather than served.
        dict(ScenarioSpec.build("synth300").to_dict(), backend="dense"),
    ])
    def test_from_dict_rejects_unknown_payloads(self, payload):
        with pytest.raises(ValueError):
            ScenarioSpec.from_dict(payload)


class TestResolution:
    def test_bundled_case(self):
        spec = ScenarioSpec.build("5bus-study1")
        assert spec.resolve_case().name == "5bus-study1"

    def test_inline_case_text(self):
        text = write_case(get_case("5bus-study1"))
        spec = ScenarioSpec.build("custom", case_text=text)
        case = spec.resolve_case()
        assert case.num_buses == 5 and case.name == "custom"

    def test_attacker_seed_applied(self):
        spec = ScenarioSpec.build("ieee14", attacker_seed=2014)
        case = spec.resolve_case()
        assert case.name == "ieee14-scenario2014"

    def test_auto_analyzer_by_size(self):
        small = ScenarioSpec.build("5bus-study1")
        large = ScenarioSpec.build("ieee57")
        assert small.resolved_analyzer(small.resolve_case()) == "smt"
        assert large.resolved_analyzer(large.resolve_case()) == "fast"

    def test_explicit_analyzer_wins(self):
        spec = ScenarioSpec.build("ieee57", analyzer="smt")
        assert spec.resolved_analyzer(spec.resolve_case()) == "smt"


class TestFingerprint:
    def test_deterministic(self):
        a = ScenarioSpec.build("5bus-study1", target=3)
        b = ScenarioSpec.build("5bus-study1", target=3)
        assert a.fingerprint() == b.fingerprint()

    def test_query_changes_fingerprint(self):
        base = ScenarioSpec.build("5bus-study1", target=3)
        assert base.fingerprint() != \
            ScenarioSpec.build("5bus-study1", target=4).fingerprint()
        assert base.fingerprint() != ScenarioSpec.build(
            "5bus-study1", target=3,
            with_state_infection=True).fingerprint()

    def test_case_content_changes_fingerprint(self):
        a = ScenarioSpec.build("5bus-study1")
        b = ScenarioSpec.build("5bus-study2")
        assert a.fingerprint() != b.fingerprint()

    def test_attacker_seed_changes_fingerprint(self):
        a = ScenarioSpec.build("ieee14", attacker_seed=2014)
        b = ScenarioSpec.build("ieee14", attacker_seed=2015)
        assert a.fingerprint() != b.fingerprint()

    def test_label_does_not_change_fingerprint(self):
        a = ScenarioSpec.build("5bus-study1", target=3, label="x")
        b = ScenarioSpec.build("5bus-study1", target=3, label="y")
        assert a.fingerprint() == b.fingerprint()

    def test_covers_code_version(self):
        # The fingerprint must be derived from the package sources, so
        # code changes invalidate cached results.
        assert len(code_fingerprint()) == 16
        spec = ScenarioSpec.build("5bus-study1")
        assert spec.fingerprint()  # cheap sanity: hashing succeeds
