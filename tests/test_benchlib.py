"""Tests for the paper harness (``benchmarks/paper.py``): its
measurement and formatting helpers, one registry entry end to end, and
the attacker-scenario randomization it shares with the sweep grid."""

import json
import time

import pytest

from benchmarks import paper
from benchmarks.paper import format_series, measured, profile_memory
from repro.cli import format_table
from repro.grid.cases import get_case
from repro.runner.spec import randomize_attacker, scenario_seeds


class TestScenarios:
    def test_seeds_are_stable(self):
        assert scenario_seeds(3) == [2014, 2015, 2016]

    def test_randomization_is_deterministic(self):
        case = get_case("ieee14")
        a = randomize_attacker(case, 7)
        b = randomize_attacker(case, 7)
        assert a.resource_measurements == b.resource_measurements
        assert a.resource_buses == b.resource_buses
        assert [m.secured for m in a.measurement_specs] == \
            [m.secured for m in b.measurement_specs]

    def test_randomization_varies_with_seed(self):
        case = get_case("ieee57")
        variants = {randomize_attacker(case, s).resource_measurements
                    for s in range(8)}
        assert len(variants) > 1

    def test_grid_untouched(self):
        case = get_case("ieee14")
        variant = randomize_attacker(case, 3)
        assert variant.line_specs == case.line_specs
        assert variant.generators == case.generators
        assert variant.loads == case.loads

    def test_only_adds_protection(self):
        case = get_case("ieee14")
        variant = randomize_attacker(case, 3)
        for original, varied in zip(case.measurement_specs,
                                    variant.measurement_specs):
            if original.secured:
                assert varied.secured
            assert varied.taken == original.taken


class TestMeasure:
    def test_measured_returns_result_and_time(self):
        result, elapsed = measured(lambda: 42)
        assert result == 42
        assert elapsed >= 0

    def test_measured_times_sleep(self):
        _, elapsed = measured(lambda: time.sleep(0.02))
        assert elapsed >= 0.015

    def test_profile_memory_tracks_allocation(self):
        def allocate():
            return [0] * 300000
        result, profile = profile_memory(allocate)
        assert len(result) == 300000
        assert profile.peak_alloc_mb > 1.0
        assert profile.elapsed_seconds >= 0

    def test_profile_memory_stops_tracing_on_error(self):
        import tracemalloc
        with pytest.raises(RuntimeError):
            profile_memory(lambda: (_ for _ in ()).throw(
                RuntimeError("boom")))
        assert not tracemalloc.is_tracing()

    def test_profile_memory_is_reentrant(self):
        # Nested profiling (e.g. pytest-memray or an outer profile_memory
        # already tracing) must not stop the outer tracemalloc session.
        import tracemalloc

        def outer():
            result, profile = profile_memory(lambda: [0] * 200000)
            assert len(result) == 200000
            assert profile.peak_alloc_mb > 0
            assert tracemalloc.is_tracing()  # outer session still live
            return result

        _, outer_profile = profile_memory(outer)
        assert not tracemalloc.is_tracing()
        assert outer_profile.peak_alloc_mb > 0

    def test_profile_memory_preserves_external_session(self):
        import tracemalloc
        tracemalloc.start()
        try:
            profile_memory(lambda: [0] * 100000)
            assert tracemalloc.is_tracing()
        finally:
            tracemalloc.stop()
        assert not tracemalloc.is_tracing()


class TestTables:
    def test_format_table(self):
        text = format_table("T", ("a", "bb"), [(1, 2.5), ("x", "y")])
        assert "== T ==" in text
        assert "a" in text and "bb" in text
        assert "2.5" in text

    def test_format_series_bars_scale(self):
        text = format_series("S", "x", "y", {1: 1.0, 2: 2.0})
        lines = text.splitlines()
        bar_1 = next(l for l in lines if l.strip().startswith("1 |"))
        bar_2 = next(l for l in lines if l.strip().startswith("2 |"))
        assert bar_2.count("#") > bar_1.count("#")

    def test_format_series_empty_safe(self):
        assert "== S ==" in format_series("S", "x", "y", {})


class TestPaperHarness:
    def test_case1_entry_writes_its_cells_and_keeps_others(
            self, tmp_path, capsys):
        artifact = tmp_path / "BENCH_paper.json"
        kept = {"paper": "Fig. 4(a)", "scale": "default", "checks": {},
                "cells": {}}
        artifact.write_text(json.dumps(
            {"benchmark": "paper", "entries": {"fig4a": kept}}))

        assert paper.main(["case1"], artifact=artifact) == 0

        entries = json.loads(artifact.read_text())["entries"]
        assert list(entries) == ["fig4a", "case1"]
        assert entries["fig4a"] == kept
        case1 = entries["case1"]
        assert case1["scale"] == "default"
        assert case1["checks"] and all(case1["checks"].values())
        cell = case1["cells"]["5bus-study1"]
        assert cell["verdict"] == "sat"
        assert cell["excluded"] == [6]
        assert cell["altered"] == [6, 13, 17, 18]
        assert cell["seconds"] > 0
        assert cell["decisions"] > 0 and cell["candidates"] >= 1
        assert "Case study 1 — paper vs reproduction" in \
            capsys.readouterr().out

    def test_unknown_entry_is_a_usage_error(self, tmp_path, capsys):
        artifact = tmp_path / "BENCH_paper.json"
        with pytest.raises(SystemExit) as exc:
            paper.main(["case1", "fig9z"], artifact=artifact)
        assert exc.value.code == 2
        assert "unknown entry fig9z" in capsys.readouterr().err
        assert not artifact.exists()
