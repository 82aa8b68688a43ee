"""Tests for the benchmark's own helpers.

    python3 -m pytest perfbench/tests -q
"""

import json
from pathlib import Path

import pytest

from perfbench import cells, layers, reference
from perfbench.stats import Tally, percentile
from perfbench.tracing import Span, Tracer, covered, self_times


# -- percentile ---------------------------------------------------------

def test_p90_of_100_samples_has_ten_beyond():
    point = percentile([float(i) for i in range(100, 0, -1)], 90)
    assert (point.value, point.samples, point.beyond) == (90.0, 100, 10)


def test_percentile_nearest_rank_on_small_samples():
    assert percentile([3.0, 1.0, 2.0], 50).value == 2.0
    assert percentile([3.0, 1.0, 2.0], 50).beyond == 1
    assert percentile([5.0], 90) == percentile([5.0], 50)
    assert percentile([1.0, 2.0], 100).beyond == 0


def test_percentile_rejects_empty_and_bad_rank():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 0)


# -- self time ----------------------------------------------------------

def test_self_time_of_nested_and_overlapping_sibling_spans():
    spans = [
        Span("root", 0.0, 10.0),
        Span("a", 1.0, 4.0, parent=0),
        Span("b", 3.0, 6.0, parent=0),       # overlaps its sibling a
        Span("a.inner", 1.5, 2.0, parent=1),
        Span("c", 8.0, 9.0, parent=0),
    ]
    assert self_times(spans) == pytest.approx([10 - 5 - 1, 2.5, 3.0, 0.5,
                                               1.0])


def test_covered_clips_children_to_the_parent():
    assert covered([(-1.0, 1.0), (0.5, 3.0)], 0.0, 2.0) == 2.0
    assert covered([], 0.0, 2.0) == 0.0


def test_tracer_records_parents_and_restores_patches():
    tracer = Tracer()

    class Thing:
        def work(self, n):
            return n * 2

        def outer(self):
            return self.work(3)

    original = Thing.__dict__["work"]
    tracer.patch_method(Thing, "work", "inner",
                        after=lambda state, args, kwargs, result:
                        {"result": result})
    tracer.patch_method(Thing, "outer", "outer")
    assert Thing().outer() == 6
    names = [(s.name, s.parent) for s in tracer.spans]
    assert names == [("outer", None), ("inner", 0)]
    assert tracer.spans[1].counters == {"result": 6}
    tracer.restore()
    assert Thing.__dict__["work"] is original


def test_layer_counters_count_only_the_outermost_span():
    spans = [Span("smt.simplex.minimize", 0.0, 4.0,
                  counters={"pivots": 7}),
             Span("smt.simplex", 1.0, 2.0, parent=0,
                  counters={"pivots": 3})]
    metrics = layers.from_spans(spans)
    assert metrics["smt.simplex.pivots"] == 7
    assert metrics["smt.simplex.checks"] == 1
    assert metrics["smt.simplex.check_s"] == pytest.approx(4.0)


# -- reference check ------------------------------------------------------

SMT_OUTCOME = {"status": "ok", "satisfiable": True, "certified": True,
               "base_cost": "7/2", "threshold": "707/200",
               "believed_min_cost": "3.6", "trace": {}}


def test_reference_flags_a_flipped_smt_verdict():
    entry = reference.expected_entry("smt", SMT_OUTCOME)
    assert reference.check(entry, SMT_OUTCOME, certify=True) is None
    flipped = dict(SMT_OUTCOME, satisfiable=False)
    assert "satisfiable" in reference.check(entry, flipped, certify=True)


def test_reference_flags_an_uncertified_smt_answer():
    entry = reference.expected_entry("smt", SMT_OUTCOME)
    uncertified = dict(SMT_OUTCOME, certified=None)
    assert "not certified" in reference.check(entry, uncertified,
                                              certify=True)
    assert reference.check(entry, uncertified, certify=False) is None


def test_reference_ignores_smt_witness_but_not_the_bracket():
    outcome = dict(SMT_OUTCOME, max_impact={
        "status": "complete", "lower_bound": "4", "upper_bound": "33/8",
        "max_increase_percent": "4", "witness": {"excluded": [6]}})
    entry = reference.expected_entry("smt", outcome)
    other_witness = dict(outcome, believed_min_cost="3.7", max_impact=dict(
        outcome["max_impact"], witness={"excluded": [3]}))
    assert reference.check(entry, other_witness, certify=True) is None
    wider = dict(outcome, max_impact=dict(outcome["max_impact"],
                                          upper_bound="17/4"))
    assert "max_impact" in reference.check(entry, wider, certify=True)


def test_reference_compares_the_full_fast_view():
    outcome = {"spec": {"case": "x", "sample_seed": 1}, "fingerprint": "f",
               "status": "ok", "satisfiable": True, "base_cost": "1",
               "achieved_increase_percent": 1.25, "task_seconds": 0.1,
               "trace": {"opf": {"solves": 3}}, "certified": None}
    entry = reference.expected_entry("fast", outcome)
    # Timings, traces, the spec and the fingerprint may differ.
    rerun = dict(outcome, task_seconds=9.0, trace={}, fingerprint="g",
                 spec={"case": "x", "sample_seed": 2})
    assert reference.check(entry, rerun, certify=False) is None
    drifted = dict(outcome, achieved_increase_percent=1.2500001)
    assert "achieved_increase_percent" in reference.check(
        entry, drifted, certify=False)


def test_reference_key_ignores_sample_seeds_that_cannot_matter():
    smt = cells.Cell("a", {"case": "5bus-study1", "analyzer": "auto",
                           "target": "1", "sample_seed": 1})
    same = cells.Cell("b", dict(smt.spec, sample_seed=2))
    assert reference.result_key(smt) == reference.result_key(same)
    states = cells.Cell("c", {"case": "ieee57", "analyzer": "fast",
                              "target": "1", "with_state_infection": True,
                              "sample_seed": 1})
    other = cells.Cell("d", dict(states.spec, sample_seed=2))
    assert reference.result_key(states) != reference.result_key(other)


# -- failed_ratio accounting --------------------------------------------

def test_failed_ratio_counts_errors_mismatches_and_missing_outcomes():
    entry = reference.expected_entry("smt", SMT_OUTCOME)
    tally = Tally()
    tally.record("ok", reference.check(entry, SMT_OUTCOME, True))
    tally.record("error", reference.check(
        entry, {"status": "error", "error": "boom"}, True))
    tally.record("unknown", reference.check(
        entry, {"status": "unknown", "error": "budget"}, True))
    tally.record("lost", reference.check(entry, None, True))
    assert (tally.attempted, tally.failed) == (4, 3)
    assert tally.failed_ratio == 0.75
    assert tally.problems()[0].startswith("error: status error")


def test_failed_ratio_of_nothing_attempted_is_a_failure():
    assert Tally().failed_ratio == 1.0


# -- workload inputs ------------------------------------------------------

@pytest.mark.parametrize("workload", cells.WORKLOADS)
def test_inputs_depend_only_on_the_seed(workload):
    def ids(seed):
        return [(c.id, json.dumps(c.spec, sort_keys=True))
                for c in cells.cells_for(workload, seed)]
    assert ids(5) == ids(5)
    assert ids(5) != ids(6)


def test_serve_mix_is_fixed_and_never_repeats_a_request():
    requests = cells.cells_for("serve-2c", 3)
    assert len(requests) == 120
    assert [c.is_maximize for c in requests] == \
        [i % 6 == 5 for i in range(120)]
    assert len({c.spec["sample_seed"] for c in requests}) == 120
    def mix(cells_):
        return sorted((c.spec["case"], c.spec.get("target", ""))
                      for c in cells_)
    assert mix(requests) == mix(cells.cells_for("serve-2c", 4))


def test_every_pooled_cell_has_a_reference():
    entries = reference.load()
    for workload in cells.WORKLOADS:
        for seed in range(50):
            for cell in cells.cells_for(workload, seed):
                assert reference.result_key(cell) in entries, cell.id


def test_declared_concurrency_fits_two_cpus():
    for workload, counts in cells.CONCURRENCY.items():
        assert max(counts.values()) <= 2
        assert 1 <= cells.COPIES[workload] <= 2


def test_benchmark_json_lists_every_layer_metric():
    spec = json.loads((Path(__file__).resolve().parents[2]
                       / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        [(name, unit) for name, unit, _ in layers.PER_LAYER]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())
