#!/usr/bin/env python3
"""Defense planning: which protections actually kill the attack?

The paper positions its framework as a tool for operators to "preemptively
analyze and explore potential threats".  This example does exactly that on
the 5-bus system through :mod:`repro.defense`: it asks, for each candidate
countermeasure, whether the case-study attack survives —

* securing the status channel of the vulnerable line,
* integrity-protecting individual measurements,
* shrinking the attacker's measurement / substation budgets,

and then lets :class:`~repro.defense.DefensePlanner` greedy-minimize the
full candidate set down to a 1-minimal set that makes the 3% impact goal
unsatisfiable.  All case rebuilds go through ``dataclasses.replace`` (via
the transforms in :mod:`repro.defense.planner`), so every field — the
reference bus included — survives the rewrite.

Run:  python examples/defense_planning.py
"""

from repro.core import ImpactQuery
from repro.defense import (
    DefensePlanner,
    SecureLineStatus,
    SecureMeasurement,
    TightenBudgets,
)
from repro.grid.cases import get_case

# Re-exported here so the example keeps working as a snippet source; the
# real implementations (dataclasses.replace-based) live in repro.defense.
from repro.defense import (          # noqa: F401
    with_budgets,
    with_secured_line,
    with_secured_measurement,
)


def main() -> None:
    base_case = get_case("5bus-study1")
    planner = DefensePlanner(base_case,
                             ImpactQuery(target_increase_percent=3))

    survives = planner.attack_survives(base_case)
    print(f"undefended: attack {'succeeds' if survives else 'fails'}")

    print("\ncountermeasure study (3% impact target):")
    candidates = [
        ("secure line 6 status channel", SecureLineStatus(6)),
        ("secure measurement m6 (line-6 forward flow)",
         SecureMeasurement(6)),
        ("secure measurement m17 (bus-3 consumption)",
         SecureMeasurement(17)),
        ("secure measurement m7 (line-7 forward flow)",
         SecureMeasurement(7)),
        ("budget: 3 measurements max",
         TightenBudgets(3, base_case.resource_buses)),
        ("budget: 1 substation max",
         TightenBudgets(base_case.resource_measurements, 1)),
    ]
    effective = []
    for label, measure in candidates:
        blocked = planner.attack_survives(measure.apply(base_case)) is False
        print(f"  {'BLOCKS attack' if blocked else 'ineffective  '} : "
              f"{label}")
        if blocked:
            effective.append(label)

    print(f"\n{len(effective)} single countermeasures suffice; any one of:")
    for label in effective:
        print(f"  - {label}")

    plan = planner.plan([measure for _, measure in candidates])
    print(f"\ngreedy-minimal set ({plan.status}): "
          f"{[c.label for c in plan.selected]}")
    print(f"  {len(plan.probes)} probes, {plan.sessions_built} sessions "
          f"built, {plan.sessions_reused} reused warm")


if __name__ == "__main__":
    main()
