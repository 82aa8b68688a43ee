"""The sweep trace's ``totals`` block, pinned on a mixed-status sweep."""

from repro.runner import ScenarioSpec
from repro.runner.trace import (
    CERTIFICATE_ERROR,
    DEGENERATE_CASE,
    INVALID_INPUT,
    NUMERICAL_UNSTABLE,
    OK,
    UNKNOWN,
    ScenarioOutcome,
    SweepTrace,
)


def _outcome(status, **fields):
    spec = ScenarioSpec.build("5bus-study1", analyzer="fast", target=1)
    return ScenarioOutcome(spec=spec, fingerprint="", status=status,
                           **fields)


def _mixed_sweep():
    session = {"encodings_built": 1, "encode_seconds": 0.5}
    return SweepTrace(
        outcomes=[
            _outcome(OK, satisfiable=True, certified=True, cache_hit=True,
                     solver_calls=2, analysis_seconds=0.25,
                     trace={"opf": {"solves": 3}, "session": session}),
            _outcome(OK, satisfiable=False, analysis_seconds=0.5,
                     trace={"opf": {"solves": 1},
                            "session": {"encodings_built": 0}}),
            _outcome(OK, satisfiable=True, certified=True,
                     max_impact={"status": "complete"}, solver_calls=5,
                     trace={"session": {"search": {
                         "encodings_built": 1, "encode_seconds": 0.25}}}),
            _outcome(INVALID_INPUT),
            _outcome(DEGENERATE_CASE, cache_hit=True),
            _outcome(UNKNOWN, cache_write_error="disk full",
                     solver_calls=7, trace={"opf": {"solves": 2}}),
            _outcome(NUMERICAL_UNSTABLE, analysis_seconds=0.125),
            _outcome(CERTIFICATE_ERROR, certified=False),
        ],
        wall_seconds=2.0, workers=2, mode="parallel", cache_rejected=1)


def test_totals_of_a_mixed_status_sweep():
    totals = _mixed_sweep().to_dict()["totals"]
    assert list(totals.items()) == [
        ("scenarios", 8), ("cache_hits", 2), ("cache_rejected", 1),
        ("failures", 5), ("unknown", 1), ("certificate_errors", 1),
        ("invalid_input", 1), ("degenerate_case", 1),
        ("numerical_unstable", 1), ("certified", 2),
        ("max_impact_cells", 1), ("cache_write_errors", 1),
        ("wall_seconds", 2.0), ("analysis_seconds", 0.875),
        ("solver_calls", 14), ("opf_solves", 6), ("encodings_built", 2),
        ("encode_seconds", 0.75)]
