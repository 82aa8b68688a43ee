"""Common machinery for the evaluation benchmarks.

The paper evaluates on 5/14/30/57/118-bus systems.  Our from-scratch SMT
solver is pure Python, so the *combined* model is benchmarked with the
same hybrid the paper itself adopts for large systems (Section IV-A): the
full SMT framework up to 14 buses and the LODF/LCDF fast analyzer above.
Set ``REPRO_BENCH_SCALE=paper`` to push the SMT models further up the
sweep (slow).
"""

from __future__ import annotations

import os
from fractions import Fraction
from typing import Dict, List

from repro.benchlib import combined_spec, randomize_attacker, scenario_seeds
from repro.core import FastImpactAnalyzer, ImpactAnalyzer, ImpactQuery
from repro.grid.cases import get_case
from repro.runner import SweepConfig, SweepEngine, SweepTrace

#: case name -> bus count, in the paper's sweep order.
SWEEP: Dict[str, int] = {
    "5bus-study2": 5,
    "ieee14": 14,
    "ieee30": 30,
    "ieee57": 57,
    "ieee118": 118,
}

#: sizes analyzed with the full SMT framework (the rest use the fast
#: LODF/LCDF analyzer, as the paper does for its larger systems).
SMT_SIZES = {"5bus-study2": 5}
if os.environ.get("REPRO_BENCH_SCALE") == "paper":
    SMT_SIZES["ieee14"] = 14

SCENARIOS: List[int] = scenario_seeds(3)


def scenario_case(name: str, seed: int):
    return randomize_attacker(get_case(name), seed)


def combined_analysis(name: str, seed: int, with_state: bool,
                      percent: Fraction):
    """One combined-model run (Fig. 4 workload) at the right fidelity."""
    case = scenario_case(name, seed)
    analyzer = ImpactAnalyzer(case) if name in SMT_SIZES \
        else FastImpactAnalyzer(case)
    return analyzer.analyze(ImpactQuery(
        target_increase_percent=percent,
        with_state_infection=with_state,
        state_samples=8, seed=seed))


#: sweep-engine configuration for the benchmarks.  Workers default to 1
#: (serial, so pytest-benchmark wall timings stay comparable run to run);
#: caching is opt-in via REPRO_BENCH_CACHE so reruns can short-circuit.
BENCH_WORKERS = int(os.environ.get("REPRO_BENCH_WORKERS", "1"))
BENCH_CACHE_DIR = os.environ.get("REPRO_BENCH_CACHE")


def combined_specs(name: str, with_state: bool, percent: Fraction):
    """The engine specs for one Fig.-4 problem size (all scenarios)."""
    analyzer = "smt" if name in SMT_SIZES else "fast"
    return [combined_spec(name, seed, with_state, percent,
                          analyzer=analyzer)
            for seed in SCENARIOS]


def run_sweep(specs) -> SweepTrace:
    """One benchmark sweep on the engine (see BENCH_* knobs above)."""
    engine = SweepEngine(SweepConfig(
        workers=BENCH_WORKERS,
        cache_dir=BENCH_CACHE_DIR,
        use_cache=BENCH_CACHE_DIR is not None))
    return engine.run(specs)
