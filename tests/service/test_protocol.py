"""Strict wire-protocol parsing: structured 400s, never stack traces."""

import pytest

from repro.runner.spec import CACHE_FORMAT_VERSION
from repro.service.protocol import (
    BAD_FIELD,
    MALFORMED,
    PROTOCOL_VERSION,
    UNKNOWN_FIELD,
    VERSION_MISMATCH,
    ProtocolError,
    error_body,
    parse_request,
    parse_sweep_request,
)

GOOD_SPEC = {"case": "5bus-study1", "analyzer": "fast"}


def codes(exc: ProtocolError):
    return [d.code for d in exc.report.diagnostics]


def fields(exc: ProtocolError):
    return sorted(c for d in exc.report.diagnostics
                  for c in d.components)


class TestParseRequest:
    def test_minimal_request_parses(self):
        request = parse_request({"spec": GOOD_SPEC}, "analyze")
        assert request.kind == "analyze"
        assert request.spec.case == "5bus-study1"
        assert request.spec.search == "decision"
        assert request.use_cache is True
        assert request.deadline_seconds is None

    def test_maximize_endpoint_forces_search_mode(self):
        request = parse_request({"spec": GOOD_SPEC}, "maximize")
        assert request.spec.search == "maximize"

    def test_non_object_body_is_malformed(self):
        for body in (None, [], "x", 7):
            with pytest.raises(ProtocolError) as err:
                parse_request(body, "analyze")
            assert codes(err.value) == [MALFORMED]

    def test_missing_spec_is_malformed(self):
        with pytest.raises(ProtocolError) as err:
            parse_request({}, "analyze")
        assert MALFORMED in codes(err.value)

    def test_unknown_toplevel_field_rejected_by_name(self):
        with pytest.raises(ProtocolError) as err:
            parse_request({"spec": GOOD_SPEC, "bogus": 1}, "analyze")
        assert codes(err.value) == [UNKNOWN_FIELD]
        assert "field:bogus" in fields(err.value)

    def test_unknown_spec_field_rejected_by_name(self):
        spec = dict(GOOD_SPEC, not_a_field=True)
        with pytest.raises(ProtocolError) as err:
            parse_request({"spec": spec}, "analyze")
        assert UNKNOWN_FIELD in codes(err.value)
        assert "field:not_a_field" in fields(err.value)

    def test_spec_backend_is_an_unknown_field(self):
        spec = {"case": "synth300", "backend": "dense"}
        with pytest.raises(ProtocolError) as err:
            parse_request({"spec": spec}, "analyze")
        assert codes(err.value) == [UNKNOWN_FIELD]
        assert fields(err.value) == ["field:backend"]

    def test_spec_max_candidates_is_an_unknown_field(self):
        # The SMT search has no candidate cap: its budget is the only
        # bound, so a client still sending the old knob is told so.
        spec = {"case": "5bus-study1", "max_candidates": 60}
        with pytest.raises(ProtocolError) as err:
            parse_request({"spec": spec}, "analyze")
        assert codes(err.value) == [UNKNOWN_FIELD]
        assert fields(err.value) == ["field:max_candidates"]

    @pytest.mark.parametrize("field,value", [
        ("with_state_infection", "false"),
        ("with_state_infection", 1),
        ("with_state_infection", None),
        ("state_samples", 7.9),
        ("state_samples", True),
        ("state_samples", "7"),
        ("state_samples", 24.0),
        ("state_samples", None),
        ("sample_seed", True),
        ("sample_seed", "0"),
        ("attacker_seed", 1.5),
        ("attacker_seed", False),
    ])
    def test_spec_fields_are_never_coerced(self, field, value):
        spec = {"case": "synth300", field: value}
        with pytest.raises(ProtocolError) as err:
            parse_request({"spec": spec}, "analyze")
        assert codes(err.value) == [BAD_FIELD]
        assert fields(err.value) == [f"field:{field}"]

    def test_typed_spec_fields_pass_through(self):
        spec = {"case": "synth300", "with_state_infection": True,
                "state_samples": 3, "sample_seed": 2,
                "attacker_seed": None}
        parsed = parse_request({"spec": spec}, "analyze").spec
        assert (parsed.with_state_infection, parsed.state_samples,
                parsed.sample_seed,
                parsed.attacker_seed) == (True, 3, 2, None)

    def test_search_conflicting_with_endpoint_rejected(self):
        spec = dict(GOOD_SPEC, search="maximize")
        with pytest.raises(ProtocolError) as err:
            parse_request({"spec": spec}, "analyze")
        assert BAD_FIELD in codes(err.value)

    def test_bad_case_type_never_raises_typeerror(self):
        for case in (None, 7, [], {}):
            with pytest.raises(ProtocolError) as err:
                parse_request({"spec": {"case": case}}, "analyze")
            assert BAD_FIELD in codes(err.value)

    def test_semantically_invalid_spec_is_bad_field(self):
        spec = dict(GOOD_SPEC, analyzer="quantum")
        with pytest.raises(ProtocolError) as err:
            parse_request({"spec": spec}, "analyze")
        assert BAD_FIELD in codes(err.value)

    def test_deadline_must_be_positive_number(self):
        for bad in (0, -1, "soon", True):
            with pytest.raises(ProtocolError) as err:
                parse_request({"spec": GOOD_SPEC,
                               "deadline_seconds": bad}, "analyze")
            assert BAD_FIELD in codes(err.value)
        request = parse_request(
            {"spec": GOOD_SPEC, "deadline_seconds": 2.5}, "analyze")
        assert request.deadline_seconds == 2.5

    def test_budget_keys_validated(self):
        with pytest.raises(ProtocolError) as err:
            parse_request({"spec": GOOD_SPEC,
                           "budget": {"max_conflicts": -5}}, "analyze")
        assert BAD_FIELD in codes(err.value)
        with pytest.raises(ProtocolError) as err:
            parse_request({"spec": GOOD_SPEC,
                           "budget": {"max_wizards": 5}}, "analyze")
        assert UNKNOWN_FIELD in codes(err.value)
        request = parse_request(
            {"spec": GOOD_SPEC, "budget": {"max_conflicts": 100}},
            "analyze")
        assert request.budget == {"max_conflicts": 100}

    def test_protocol_version_pin(self):
        ok = parse_request(
            {"spec": GOOD_SPEC, "protocol_version": PROTOCOL_VERSION},
            "analyze")
        assert ok.spec.case == "5bus-study1"
        with pytest.raises(ProtocolError) as err:
            parse_request({"spec": GOOD_SPEC,
                           "protocol_version": PROTOCOL_VERSION + 1},
                          "analyze")
        assert codes(err.value) == [VERSION_MISMATCH]

    def test_cache_format_pin(self):
        ok = parse_request(
            {"spec": GOOD_SPEC, "cache_format": CACHE_FORMAT_VERSION},
            "analyze")
        assert ok.spec.case == "5bus-study1"
        with pytest.raises(ProtocolError) as err:
            parse_request({"spec": GOOD_SPEC, "cache_format": 1},
                          "analyze")
        assert codes(err.value) == [VERSION_MISMATCH]

    def test_multiple_problems_reported_together(self):
        with pytest.raises(ProtocolError) as err:
            parse_request({"spec": GOOD_SPEC, "bogus": 1,
                           "deadline_seconds": -3}, "analyze")
        got = codes(err.value)
        assert UNKNOWN_FIELD in got and BAD_FIELD in got

    def test_job_payload_round_trips_options(self):
        request = parse_request(
            {"spec": GOOD_SPEC, "budget": {"max_conflicts": 7},
             "self_check": True, "use_cache": False}, "analyze")
        payload = request.job_payload()
        assert payload["budget"] == {"max_conflicts": 7}
        assert payload["self_check"] is True
        assert payload["use_cache"] is False
        assert payload["spec"]["case"] == "5bus-study1"


class TestParseSweepRequest:
    def test_parses_cells_with_shared_options(self):
        requests = parse_sweep_request(
            {"specs": [GOOD_SPEC, dict(GOOD_SPEC, target="2")],
             "deadline_seconds": 9})
        assert len(requests) == 2
        assert all(r.deadline_seconds == 9 for r in requests)
        assert all(r.kind == "analyze" for r in requests)

    def test_maximize_search_applies_to_every_cell(self):
        requests = parse_sweep_request(
            {"specs": [GOOD_SPEC], "search": "maximize"})
        assert requests[0].spec.search == "maximize"

    def test_empty_specs_rejected(self):
        for specs in ([], None, "x"):
            with pytest.raises(ProtocolError) as err:
                parse_sweep_request({"specs": specs})
            assert MALFORMED in codes(err.value)

    def test_bad_cell_named_by_index(self):
        with pytest.raises(ProtocolError) as err:
            parse_sweep_request(
                {"specs": [GOOD_SPEC, {"case": ""}]})
        assert BAD_FIELD in codes(err.value)


def test_error_body_shape():
    body = error_body("queue_full", "busy", retry_after=1.5)
    assert body["error"] == "queue_full"
    assert body["retry_after"] == 1.5
    assert body["protocol_version"] == PROTOCOL_VERSION
    assert "diagnostics" not in body
