"""Bisection vs. linear sweep to the maximum achievable impact I*.

The paper reports each case study's impact *ceiling* ("around 4%",
"below 9%") by re-running the decision query at increasing targets.
:class:`~repro.search.MaxImpactSearch` exploits the monotonicity of
sat-at-threshold to bisect instead: gallop to an unsat upper bound,
then halve the bracket to tolerance — O(log((hi-lo)/eps)) decision
queries against one warm session.

This benchmark pits that search against the naive alternative at the
same resolution: a linear sweep probing 0, eps, 2*eps, ... until the
first unsat answer.  Both run warm (same session machinery), so the
measured gap is purely the probe-count gap.  Both must land on the
same I*.  Two resolutions are measured: at the default 1/8 the probe
counts differ ~4x but wall time is near parity (the linear sweep's
probes are almost all cheap warm *sat* re-solves, while bisection
spends half its probes on the expensive unsat side); at 1/64 the
linear sweep's O(I*/eps) probe bill dominates and bisection wins
outright.  The cold column bisects at 1/8 on a fresh analyzer (a new
encoding) per probe, which is what one reused analyzer saves.  Results
are written to ``BENCH_max_impact.json`` at the repository root.
"""

import json
import time
from fractions import Fraction
from pathlib import Path

import pytest

from repro.core import ImpactAnalyzer
from repro.grid.cases import get_case
from repro.search import MaxImpactSearch
from repro.benchlib import format_table

CASE = "5bus-study1"
TOLERANCES = (Fraction(1, 8), Fraction(1, 64))
ARTIFACT = Path(__file__).resolve().parent.parent / "BENCH_max_impact.json"


class _FreshPerProbe:
    """The ``solve_at`` surface on a fresh analyzer for every probe."""

    def __init__(self, case):
        self.case = case

    def solve_at(self, percent, query=None):
        return ImpactAnalyzer(self.case).solve_at(percent, query)


def _linear_sweep(analyzer, step):
    """Largest multiple of ``step`` still satisfiable, by linear probing."""
    calls = 0
    percent = Fraction(0)
    last_sat = None
    while True:
        report = analyzer.solve_at(percent)
        calls += 1
        if not report.satisfiable:
            return last_sat, calls
        last_sat = percent
        percent += step


@pytest.mark.paper("Sec. III-G (maximum-impact ceiling)")
def test_max_impact_bisection_vs_linear(benchmark):
    case = get_case(CASE)
    results = {}

    def run_all():
        configs = {}
        for tol in TOLERANCES:
            t0 = time.perf_counter()
            bisect = MaxImpactSearch(ImpactAnalyzer(case),
                                     tolerance=tol).run()
            t1 = time.perf_counter()
            linear_istar, linear_calls = _linear_sweep(
                ImpactAnalyzer(case), tol)
            t2 = time.perf_counter()
            configs[tol] = {
                "bisect": bisect, "bisect_seconds": t1 - t0,
                "linear_istar": linear_istar,
                "linear_calls": linear_calls,
                "linear_seconds": t2 - t1,
            }
        t0 = time.perf_counter()
        cold = MaxImpactSearch(_FreshPerProbe(case),
                               tolerance=TOLERANCES[0]).run()
        results["cold"] = cold
        results["cold_seconds"] = time.perf_counter() - t0
        results["configs"] = configs
        return results

    benchmark.pedantic(run_all, rounds=1, iterations=1)
    cold = results["cold"]
    assert cold.status == "complete"
    assert cold.encodings_built == cold.solve_at_calls

    rows = []
    artifact_configs = []
    for tol, r in results["configs"].items():
        bisect = r["bisect"]
        assert bisect.status == "complete"
        assert bisect.satisfiable
        # Same grid, same answer: the bisection's lower bound is the
        # largest satisfiable multiple of eps, exactly what the linear
        # sweep finds.
        assert bisect.lower_bound == r["linear_istar"]
        assert bisect.encodings_built == 1
        assert bisect.solve_at_calls < r["linear_calls"]
        speedup = r["linear_seconds"] / r["bisect_seconds"]
        rows.append((str(tol), str(bisect.lower_bound),
                     f"{bisect.solve_at_calls} / {r['linear_calls']}",
                     f"{r['bisect_seconds']:.3f} / "
                     f"{r['linear_seconds']:.3f}",
                     f"{speedup:.2f}x"))
        artifact_configs.append({
            "tolerance": str(tol),
            "max_increase_percent": str(bisect.lower_bound),
            "bracket": [str(bisect.lower_bound),
                        str(bisect.upper_bound)],
            "bisection_warm": {
                "solve_at_calls": bisect.solve_at_calls,
                "encodings_built": bisect.encodings_built,
                "warm_solves": bisect.warm_solves,
                "seconds": round(r["bisect_seconds"], 4),
            },
            "linear_sweep_warm": {
                "solve_at_calls": r["linear_calls"],
                "seconds": round(r["linear_seconds"], 4),
            },
            "probe_ratio": round(
                r["linear_calls"] / bisect.solve_at_calls, 2),
            "speedup_vs_linear": round(speedup, 2),
        })
    assert results["configs"][TOLERANCES[0]]["bisect"].lower_bound == \
        cold.lower_bound

    print()
    print(format_table(
        f"max-impact search — {CASE}, bisection vs linear (warm)",
        ("tolerance", "I*", "calls (bis/lin)", "time s (bis/lin)",
         "speedup"),
        rows))
    coarse = results["configs"][TOLERANCES[0]]
    print(f"I* = {coarse['bisect'].lower_bound} "
          f"({float(coarse['bisect'].lower_bound):.3f}%)  "
          f"warm-vs-cold bisection at {TOLERANCES[0]}: "
          f"{results['cold_seconds'] / coarse['bisect_seconds']:.2f}x "
          f"({cold.encodings_built} cold encodings vs 1)")

    ARTIFACT.write_text(json.dumps({
        "benchmark": "max_impact",
        "case": CASE,
        "configs": artifact_configs,
        "bisection_cold": {
            "tolerance": str(TOLERANCES[0]),
            "solve_at_calls": cold.solve_at_calls,
            "encodings_built": cold.encodings_built,
            "seconds": round(results["cold_seconds"], 4),
            "warm_speedup": round(
                results["cold_seconds"] / coarse["bisect_seconds"], 2),
        },
    }, indent=2) + "\n")
    print(f"artifact written: {ARTIFACT}")
