#!/usr/bin/env python3
"""Scalability sweep: impact analysis across the IEEE system sizes.

Mirrors the paper's Section IV methodology on the 5/14/30/57/118-bus
systems using the LODF/LCDF fast analyzer (the paper's own scalability
enhancement), printing per-size timing, verdicts and the best attack
found — the data behind Fig. 4 at large scale.

Run:  python examples/scalability_sweep.py
"""

import time

from repro.cli import format_table
from repro.core import FastImpactAnalyzer, ImpactQuery
from repro.grid.cases import SCALABILITY_SWEEP, get_case
from repro.runner.spec import randomize_attacker


def main() -> None:
    timings = {}
    for name in SCALABILITY_SWEEP:
        case = randomize_attacker(get_case(name), seed=2014)
        started = time.perf_counter()
        analyzer = FastImpactAnalyzer(case)
        report = analyzer.analyze(ImpactQuery(target_increase_percent=1))
        elapsed = time.perf_counter() - started
        buses = case.num_buses
        timings[buses] = elapsed

        print(f"{name} ({buses} buses, {case.num_lines} lines, "
              f"{len(case.generators)} generators)")
        print(f"  candidates examined : {report.candidates_examined}")
        print(f"  verdict             : "
              f"{'sat' if report.satisfiable else 'unsat'}")
        if report.satisfiable:
            attack = report.attack
            kind = "exclude" if attack.excluded else "include"
            target = (attack.excluded or attack.included)[0]
            print(f"  best attack         : {kind} line {target}, "
                  f"+{float(report.achieved_increase_percent):.2f}% cost")
            print(f"  measurements / buses: "
                  f"{len(attack.altered_measurements)} / "
                  f"{len(attack.compromised_buses)}")
        print(f"  analysis time       : {elapsed:.2f}s")
        print()

    print(format_table("fast impact analysis time", ("buses", "seconds"),
                       [(buses, f"{t:.3f}") for buses, t in timings.items()]))


if __name__ == "__main__":
    main()
