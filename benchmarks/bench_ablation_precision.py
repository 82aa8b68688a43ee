"""Ablation: attack-vector dedup precision (paper Section IV-A, idea 1).

The paper treats two attack vectors as identical when they agree to two
decimal digits; this bench sweeps the precision and shows the trade-off
the paper's choice makes: coarse precision prunes the continuous space
after few candidates, fine precision enumerates many near-identical
vectors.

The workload is case study 2 with state infection at an unreachable 40%
target, so the solver must exhaust the (quantized) space of state-
strengthened attack vectors.  Structure-level pruning is off so the
per-vector blocking behavior is isolated, and every terminal UNSAT is
certified.  A 30 s budget bounds each run: the finest precision may end
``budget_exhausted`` rather than exhausted, never in an unproved unsat.
"""

from fractions import Fraction

import pytest

from repro.benchlib import format_table, measured
from repro.core.framework import ImpactAnalyzer, ImpactQuery
from repro.grid.cases import get_case
from repro.smt import SolverBudget

PRECISIONS = (1, 2, 3)


@pytest.mark.paper("Section IV-A idea 1 (ablation)")
def test_ablation_blocking_precision(benchmark):
    case = get_case("5bus-study2")
    rows = []
    reports = []

    def run_all():
        rows.clear()
        reports.clear()
        for precision in PRECISIONS:
            def analyze(p=precision):
                analyzer = ImpactAnalyzer(case)
                return analyzer.analyze(ImpactQuery(
                    target_increase_percent=Fraction(40),
                    with_state_infection=True,
                    precision=p,
                    extremize_structures=False,
                    self_check=True,
                    budget=SolverBudget(wall_seconds=30)))
            report, elapsed = measured(analyze)
            reports.append(report)
            rows.append((precision, report.candidates_examined,
                         report.status, f"{elapsed:.3f}"))
        return rows

    benchmark.pedantic(run_all, rounds=1, iterations=1)
    print()
    print(format_table(
        "Ablation — blocking precision (unsat workload, 30 s budget)",
        ("digits", "vectors examined", "status", "time (s)"), rows))
    for report in reports:
        assert not report.satisfiable
    # Precisions 1 and 2 exhaust the space: a complete, certified unsat.
    for report in reports[:2]:
        assert report.status == "complete"
        assert report.certified is True
        assert report.trace.certificates["unsat_checked"] >= 1
    assert reports[2].status in ("complete", "budget_exhausted")
    # Finer precision never needs fewer vectors than coarser.
    examined = [r[1] for r in rows]
    assert examined == sorted(examined)
