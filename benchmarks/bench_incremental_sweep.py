"""Warm vs. cold encoding reuse on a Fig. 4-style threshold sweep.

One case, many impact targets — the workload behind the paper's Fig. 4
time-vs-target curves.  The cold path runs each target as its own
one-cell unit, on a fresh analyzer that encodes the attack model anew;
the warm path (the sweep engine's encoding-group batching)
builds one :class:`~repro.core.encoding.AttackModelEncoding` and
re-solves each threshold inside a solver ``push()``/``pop()`` scope,
carrying learned clauses across scenarios.

Expected shape: warm total time ≈ cold total time minus (N-1) encoding
constructions, with per-scenario solve time *also* dropping on adjacent
thresholds thanks to clause reuse.  Verdicts are identical by
construction.  Results are written to ``BENCH_incremental_sweep.json``
at the repository root.
"""

import json
from pathlib import Path

import pytest

from repro.runner import ScenarioSpec, SweepConfig, SweepEngine
from repro.runner.engine import execute_scenario
from repro.benchlib import format_table

CASE = "5bus-study1"
TARGETS = (1, 2, 3, 4, 5, 6)
ARTIFACT = Path(__file__).resolve().parent.parent / \
    "BENCH_incremental_sweep.json"


def _specs():
    return [ScenarioSpec.build(CASE, analyzer="smt", target=t,
                               label=f"{CASE}/t{t}") for t in TARGETS]


@pytest.mark.paper("Fig. 4 (threshold sweep, incremental reuse)")
def test_incremental_sweep_warm_vs_cold(benchmark):
    specs = _specs()
    results = {}

    def run_both():
        cold = [execute_scenario(spec, "bench") for spec in specs]
        warm = SweepEngine(SweepConfig(
            workers=1, use_cache=False)).run(specs).outcomes
        results["cold"] = cold
        results["warm"] = warm
        return results

    benchmark.pedantic(run_both, rounds=1, iterations=1)
    cold, warm = results["cold"], results["warm"]

    assert [o.satisfiable for o in warm] == \
        [o.satisfiable for o in cold]
    warm_built = sum(o.trace["session"]["encodings_built"] for o in warm)
    cold_built = sum(o.trace["session"]["encodings_built"] for o in cold)
    assert warm_built == 1 and cold_built == len(specs)

    rows = []
    for spec, c, w in zip(specs, cold, warm):
        rows.append((spec.label, c.verdict,
                     f"{c.analysis_seconds:.3f}",
                     f"{w.analysis_seconds:.3f}",
                     "yes" if w.trace["session"]["warm"] else "no"))
    print()
    print(format_table(
        f"incremental sweep — {CASE}, {len(specs)} targets",
        ("scenario", "verdict", "cold (s)", "warm (s)", "warm?"),
        rows))
    cold_total = sum(o.analysis_seconds for o in cold)
    warm_total = sum(o.analysis_seconds for o in warm)
    print(f"cold total: {cold_total:.3f}s "
          f"(encode {sum(o.trace['session']['encode_seconds'] for o in cold):.3f}s)  "
          f"warm total: {warm_total:.3f}s "
          f"(encode {sum(o.trace['session']['encode_seconds'] for o in warm):.3f}s)  "
          f"speedup: {cold_total / warm_total:.2f}x")

    ARTIFACT.write_text(json.dumps({
        "benchmark": "incremental_sweep",
        "case": CASE,
        "targets": list(TARGETS),
        "cold": {
            "total_seconds": round(cold_total, 4),
            "encodings_built": cold_built,
            "encode_seconds": round(sum(
                o.trace["session"]["encode_seconds"] for o in cold), 4),
        },
        "warm": {
            "total_seconds": round(warm_total, 4),
            "encodings_built": warm_built,
            "encode_seconds": round(sum(
                o.trace["session"]["encode_seconds"] for o in warm), 4),
        },
        "speedup": round(cold_total / warm_total, 2),
        "scenarios": [
            {"label": spec.label, "verdict": c.verdict,
             "cold_seconds": round(c.analysis_seconds, 4),
             "warm_seconds": round(w.analysis_seconds, 4)}
            for spec, c, w in zip(specs, cold, warm)],
    }, indent=2) + "\n")
    print(f"artifact written: {ARTIFACT}")
