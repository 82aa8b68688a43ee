"""Randomized attack scenarios for the scalability evaluation.

Paper Section IV-B: "At each problem size, we perform three experiments
taking different random scenarios, especially in terms of the attacker's
resource limitation."  This module produces those scenario variants
deterministically from a seed.
"""

from __future__ import annotations

import random
from dataclasses import replace
from typing import List, Optional

from repro.grid.caseio import CaseDefinition, MeasurementSpec


def scenario_seeds(count: int = 3, base: int = 2014) -> List[int]:
    """The per-size scenario seeds (2014: the paper's year)."""
    return [base + i for i in range(count)]


def randomize_attacker(case: CaseDefinition, seed: int) -> CaseDefinition:
    """A scenario variant with randomized attacker resources.

    Varies the resource budgets (the paper's emphasis) and sprinkles
    additional measurement protection, while keeping the grid itself —
    and therefore the OPF — untouched.
    """
    rng = random.Random(seed)
    total = case.num_potential_measurements
    buses = case.num_buses

    measurement_budget = max(4, int(total * rng.uniform(0.05, 0.25)))
    bus_budget = max(2, int(buses * rng.uniform(0.15, 0.45)))

    secured_fraction = rng.uniform(0.0, 0.15)
    new_specs = []
    for spec in case.measurement_specs:
        secured = spec.secured or rng.random() < secured_fraction
        new_specs.append(MeasurementSpec(spec.index, spec.taken,
                                         secured, spec.alterable))

    return CaseDefinition(
        name=f"{case.name}-scenario{seed}",
        line_specs=list(case.line_specs),
        measurement_specs=new_specs,
        bus_types=list(case.bus_types),
        generators=list(case.generators),
        loads=list(case.loads),
        resource_measurements=measurement_budget,
        resource_buses=bus_budget,
        base_cost=case.base_cost,
        min_increase_percent=case.min_increase_percent,
    )


def combined_spec(name: str, seed: Optional[int], with_state: bool,
                  percent, analyzer: str = "auto",
                  state_samples: int = 8):
    """A sweep-engine :class:`~repro.runner.spec.ScenarioSpec` for one
    Fig.-4 cell: bundled case *name*, attacker randomized with *seed*
    (None: as-is), at impact target *percent*.

    The returned spec reproduces exactly what the pre-engine benchmarks
    ran inline: the same randomized case, query and (for the fast
    analyzer) sampling seed.
    """
    from repro.runner.spec import ScenarioSpec
    return ScenarioSpec.build(
        name, analyzer=analyzer, attacker_seed=seed, target=percent,
        with_state_infection=with_state, state_samples=state_samples,
        sample_seed=0 if seed is None else seed)
