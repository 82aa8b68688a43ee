#!/usr/bin/env python3
"""Case study 2 (paper Table III): topology poisoning + state infection.

Reproduces Section III-G's second worked example — the attack that
combines excluding line 6 with a UFDI attack on state 3, so the believed
load shift lands on buses 2 and 4 instead of 3 and 4 — and explores the
impact landscape around it:

* the maximum achievable cost increase (the paper's "cannot increase the
  cost more than 8%"),
* the pure-UFDI bound (the paper's "without topology attacks ... less
  than 3%"),
* the superiority of the combined attack over each ingredient alone.

Run:  python examples/case_study_2.py
"""

from repro.core import ImpactAnalyzer, ImpactQuery
from repro.estimation import MeasurementPlan
from repro.grid.cases import get_case


def main() -> None:
    case = get_case("5bus-study2")
    analyzer = ImpactAnalyzer(case)
    plan = MeasurementPlan.from_case(case)

    # The headline query: >= 6% with topology + state attacks.
    report = analyzer.analyze(ImpactQuery(with_state_infection=True,
                                          verify_with_smt_opf=True))
    print(report.render(plan))

    # How far can each attack class push the cost?
    print("\nimpact ceilings I* (bisected to 1/8 percentage point):")
    ceilings = {}
    for label, query in (
            ("topology attack alone", ImpactQuery()),
            ("topology + state infection",
             ImpactQuery(with_state_infection=True)),
            ("UFDI (state) attack alone",
             ImpactQuery(with_state_infection=True,
                         allow_topology_attack=False))):
        result = analyzer.max_impact(query=query)
        ceilings[label] = result
        print(f"  {label:<28} : {float(result.max_increase_percent):.2f}% "
              f"(I* in [{result.lower_bound}, {result.upper_bound}))")
    pure = ceilings["topology attack alone"]
    combined = ceilings["topology + state infection"]
    ufdi = ceilings["UFDI (state) attack alone"]

    print("\npaper's qualitative claims, checked:")
    print(f"  combined > topology-only     : "
          f"{combined.lower_bound > pure.upper_bound}")
    print(f"  UFDI alone misses the 6% goal: {ufdi.upper_bound <= 6}")
    print(f"  no attack reaches {combined.upper_bound}%     : "
          f"{combined.verdict_basis}")


if __name__ == "__main__":
    main()
