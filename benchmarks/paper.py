"""The paper's evaluation (Section IV) from one table-driven script.

Run::

    PYTHONPATH=src:. python benchmarks/paper.py [ENTRY ...] [--paper-scale]

Each entry of :data:`ENTRIES` regenerates one figure, table, case study
or supporting record: it runs its cells, prints its table(s) and checks
the paper's shape on the cells it ran.  With no ENTRY every entry runs.
The cells (verdict, seconds and the counters the outcome trace already
carries) and the shape checks are written to ``BENCH_paper.json`` at
the repository root; a run of some entries rewrites only theirs.  The
exit status is 1 when any shape check fails.

Every quoted figure is measured serial and uncached: Fig. 4 runs its
cells through ``SweepEngine(workers=1)`` without a result cache, one
sweep per problem size, and Fig. 5 and Table IV build the two encodings
directly, Table IV each in a fresh process.  The full SMT framework
analyzes the 5-bus systems and the LODF/LCDF fast analyzer the larger
ones, the hybrid the paper itself adopts (Section IV-A).
``--paper-scale`` pushes the SMT models further up the sweep (slow):
ieee14 on the full SMT framework in Fig. 4 and ieee57 in Fig. 5(a).

Absolute timings are not expected to match the paper (Z3 vs. a
pure-Python DPLL(T) solver); EXPERIMENTS.md compares the shapes.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import resource
import time
import tracemalloc
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable, Dict, List, Tuple

from repro.cli import format_table
from repro.core import (
    AttackEncodingConfig,
    AttackModelEncoding,
    ImpactAnalyzer,
    ImpactQuery,
    OpfModelEncoding,
)
from repro.grid.caseio import CaseDefinition
from repro.grid.cases import get_case
from repro.opf import ShiftFactorOpf, TopologyChange, solve_dc_opf
from repro.runner import ScenarioSpec, SweepConfig, SweepEngine
from repro.runner.engine import execute_scenario
from repro.runner.spec import randomize_attacker, scenario_seeds
from repro.search import MaxImpactSearch

ARTIFACT = Path(__file__).resolve().parent.parent / "BENCH_paper.json"

#: case name -> bus count, in the paper's sweep order.
SWEEP = {"5bus-study2": 5, "ieee14": 14, "ieee30": 30, "ieee57": 57,
         "ieee118": 118}
SCENARIOS = scenario_seeds(3)
#: Fig. 5(a) thresholds as multiples of the optimum (closer to 1 is
#: tighter).
TIGHTNESS = (Fraction(101, 100), Fraction(11, 10), Fraction(3, 2))
#: paper Table IV rows (MB): attack model, OPF model.
TABLE4_PAPER = {5: (0.90, 1.55), 14: (1.60, 2.85), 30: (3.10, 5.10),
                57: (5.90, 10.15), 118: (12.20, 22.35)}

Cells = Dict[str, Dict[str, Any]]


# -- measurement -----------------------------------------------------------

@dataclass
class MemoryProfile:
    """Time, allocation and process-RSS footprint of a measured run.

    ``peak_alloc_bytes`` is tracemalloc's Python-heap high-water mark
    *within the run* (the paper's Table IV reports the solver's memory
    by model; the peak allocation of building and solving a model plays
    the same role).  ``peak_rss_bytes`` is the OS-reported maximum
    resident set of the whole process so far (``ru_maxrss``): a monotone
    high-water mark, so deltas between profiles of growing problem sizes
    trace the real memory growth curve.
    """

    peak_alloc_bytes: int
    peak_rss_bytes: int
    elapsed_seconds: float

    @property
    def peak_alloc_mb(self) -> float:
        return self.peak_alloc_bytes / (1024 * 1024)

    @property
    def peak_rss_mb(self) -> float:
        return self.peak_rss_bytes / (1024 * 1024)


def measured(fn: Callable[[], Any]) -> Tuple[Any, float]:
    """(result, wall-clock seconds) of a call."""
    started = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - started


def profile_memory(fn: Callable[[], Any]) -> Tuple[Any, MemoryProfile]:
    """Run *fn* under tracemalloc; returns (result, profile).

    Reentrancy-safe: when a tracemalloc session is already running (an
    outer profile, or a tool tracing the whole process), the outer
    session is left running and only its peak counter is reset, so the
    inner measurement sees its own high-water mark.
    """
    was_tracing = tracemalloc.is_tracing()
    if was_tracing:
        tracemalloc.reset_peak()
    else:
        tracemalloc.start()
    started = time.perf_counter()
    try:
        result = fn()
    finally:
        _, peak = tracemalloc.get_traced_memory()
        if not was_tracing:
            tracemalloc.stop()
    elapsed = time.perf_counter() - started
    # ru_maxrss is in kB on Linux.
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
    return result, MemoryProfile(peak, rss, elapsed)


def format_series(title: str, x_label: str, y_label: str,
                  points: Dict, width: int = 40) -> str:
    """An ASCII bar series: one bar per x value (paper figure analogue)."""
    values = {k: float(v) for k, v in points.items()}
    peak = max(values.values()) if values else 1.0
    peak = peak if peak > 0 else 1.0
    out = [f"== {title} ==", f"   ({y_label} by {x_label})"]
    for key, value in values.items():
        bar = "#" * max(1, int(width * value / peak))
        out.append(f"  {str(key):>12} | {bar} {value:.4g}")
    return "\n".join(out)


# -- cells -----------------------------------------------------------------

def _cell(verdict, seconds: float, **fields) -> Dict[str, Any]:
    return {"verdict": verdict, "seconds": round(seconds, 4), **fields}


def _trace_counters(trace: Dict[str, Any], candidates: int
                    ) -> Dict[str, int]:
    """The work counters an outcome or report trace already carries."""
    smt, opf = trace.get("smt", {}), trace.get("opf", {})
    return {"decisions": smt.get("decisions", 0),
            "conflicts": smt.get("conflicts", 0),
            "pivots": smt.get("simplex_pivots", 0),
            "opf_solves": opf.get("solves", 0),
            "candidates": candidates}


def _solver_counters(encoding) -> Dict[str, int]:
    stats = encoding.solver.stats
    return {"decisions": stats.decisions, "conflicts": stats.conflicts,
            "pivots": stats.simplex_pivots}


def _verdict(satisfiable: bool) -> str:
    return "sat" if satisfiable else "unsat"


def _serial_sweep(specs):
    """One serial, uncached sweep-engine run (every quoted figure's)."""
    return SweepEngine(SweepConfig(workers=1,
                                   cache_dir=None)).run(specs).outcomes


def _outcome_cell(outcome, **fields) -> Dict[str, Any]:
    return _cell(outcome.verdict, outcome.analysis_seconds,
                 smt_calls=outcome.solver_calls, **fields,
                 **_trace_counters(outcome.trace,
                                   outcome.candidates_examined))


def _report_cell(report, seconds: float) -> Dict[str, Any]:
    """A case-study analysis: verdict, witness and work counters."""
    cell = _cell(_verdict(report.satisfiable), seconds,
                 status=report.status,
                 **_trace_counters(report.trace.to_dict(),
                                   report.candidates_examined))
    attack = report.attack
    if attack is not None:
        cell.update(
            increase_percent=float(report.achieved_increase_percent),
            excluded=list(attack.excluded),
            infected_states=list(attack.infected_states),
            altered=list(attack.altered_measurements),
            buses=list(attack.compromised_buses),
            believed_loads={str(bus): float(load) for bus, load
                            in sorted(attack.believed_loads.items())})
    if report.smt_opf_unsat_confirmed is not None:
        cell["smt_opf_unsat_confirmed"] = report.smt_opf_unsat_confirmed
    return cell


def _search_cell(result, seconds: float) -> Dict[str, Any]:
    """One I* search: its exact bracket and what it cost."""
    return _cell(_verdict(result.satisfiable), seconds,
                 status=result.status,
                 bracket=[str(result.lower_bound), str(result.upper_bound)],
                 solve_at_calls=result.solve_at_calls,
                 encodings_built=result.encodings_built,
                 warm_solves=result.warm_solves,
                 candidates=result.candidates_examined)


def _listed(values) -> str:
    return ", ".join(map(str, values or ()))


def _set(values) -> str:
    return "{" + _listed(sorted(values or ())) + "}"


def _percent(value, digits: int = 2) -> str:
    return "-" if value is None else f"{value:.{digits}f}%"


def _mean_seconds_by_buses(cells: Cells) -> Dict[int, float]:
    by_buses: Dict[int, List[float]] = {}
    for cell in cells.values():
        by_buses.setdefault(cell["buses"], []).append(cell["seconds"])
    return {b: sum(v) / len(v) for b, v in sorted(by_buses.items())}


def _opf_inputs(name: str):
    """(grid, in-service topology, existing loads) of a bundled case."""
    grid = get_case(name).build_grid()
    loads = {b: load.existing for b, load in grid.loads.items()}
    topology = [line.index for line in grid.lines if line.in_service]
    return grid, topology, loads


def _opf_cells(name: str, thresholds: Dict[str, Fraction]) -> Cells:
    """The SMT OPF model alone, checked at each labelled multiple of the
    optimum."""
    grid, topology, loads = _opf_inputs(name)
    optimum = solve_dc_opf(grid, method="highs").require_feasible().cost
    cells: Cells = {}
    for label, factor in thresholds.items():
        def check():
            encoding = OpfModelEncoding(grid, topology, loads)
            return encoding, encoding.check(optimum * factor)
        (encoding, sat), seconds = measured(check)
        cells[label] = _cell(_verdict(sat), seconds, buses=SWEEP[name],
                             **_solver_counters(encoding))
    return cells


def _attack_cell(case: CaseDefinition, **config) -> Dict[str, Any]:
    """The Section III-C attack model alone (no believed-OPF block)."""
    def solve():
        encoding = AttackModelEncoding(case, AttackEncodingConfig(
            require_believed_feasibility=False, **config))
        return encoding, encoding.solve()
    (encoding, solution), seconds = measured(solve)
    return _cell(_verdict(solution is not None), seconds,
                 buses=case.num_buses, **_solver_counters(encoding))


# -- Fig. 4: the combined model on the sweep engine ------------------------

def _smt_sizes(paper_scale: bool) -> Tuple[str, ...]:
    """Sizes on the full SMT framework; the rest use the fast analyzer."""
    return ("5bus-study2", "ieee14") if paper_scale else ("5bus-study2",)


def _fig4_cells(with_state: bool, unsat: bool):
    """Three attacker scenarios per size at a 1% target or, for
    Fig. 4(c), an unreachable one: just above the known ceiling on the
    SMT sizes (so the solver exhausts the attack-vector space instead of
    being cut off by the necessary-condition pruning), 40% on the rest.
    """
    def cells(paper_scale: bool) -> Cells:
        smt = _smt_sizes(paper_scale)
        out: Cells = {}
        for name, buses in SWEEP.items():
            target = (6 if name in smt else 40) if unsat else 1
            specs = [ScenarioSpec.build(
                name, analyzer="smt" if name in smt else "fast",
                attacker_seed=seed, target=target,
                with_state_infection=with_state, state_samples=8,
                sample_seed=seed) for seed in SCENARIOS]
            for outcome in _serial_sweep(specs):
                out[outcome.spec.label] = _outcome_cell(outcome,
                                                        buses=buses)
        return out
    return cells


def _fig4_tables(fig: str, title: str):
    def tables(cells: Cells, done: Dict[str, Cells]) -> List[str]:
        mean = _mean_seconds_by_buses(cells)
        out = [format_table(
            f"Fig. 4({fig}) — {title}, 3 scenarios per size",
            ("scenario", "verdict", "time (s)", "smt calls", "decisions",
             "conflicts", "pivots", "opf solves", "candidates"),
            [(label, c["verdict"], f"{c['seconds']:.3f}", c["smt_calls"],
              c["decisions"], c["conflicts"], c["pivots"],
              c["opf_solves"], c["candidates"])
             for label, c in cells.items()]),
            format_series(f"Fig. 4({fig}) average combined-model time",
                          "buses", "seconds", mean)]
        if fig != "a" and "fig4a" in done:
            sat = _mean_seconds_by_buses(done["fig4a"])
            shared = sorted(set(sat) & set(mean))
            if fig == "b":
                slower = sum(mean[b] >= 0.5 * sat[b] for b in shared)
                out.append(f"   with-state slower or comparable at "
                           f"{slower}/{len(shared)} sizes "
                           f"(paper: uniformly slower)")
            else:
                out.extend(f"   {b} buses: unsat/sat time ratio = "
                           f"{mean[b] / max(sat[b], 1e-9):.2f} "
                           f"(paper: > 1)" for b in shared)
        return out
    return tables


def _every_cell(check: str, holds: Callable[[str, Dict], bool]):
    """A shape check that *holds* for every (label, cell)."""
    return lambda cells: {check: all(holds(label, c)
                                     for label, c in cells.items())}


_ANSWERED = _every_cell("every cell answered sat or unsat",
                        lambda _, c: c["verdict"] in ("sat", "unsat"))


# -- Fig. 5: the two individual models -------------------------------------

def _fig5a_cells(paper_scale: bool) -> Cells:
    """The OPF model alone at thresholds above the optimum."""
    sizes = ["5bus-study2", "ieee14", "ieee30"]
    if paper_scale:
        sizes.append("ieee57")
    cells: Cells = {}
    for name in sizes:
        cells.update(_opf_cells(name, {f"{name}/{float(f):.2f}x": f
                                       for f in TIGHTNESS}))
    return cells


def _fig5a_tables(cells: Cells, done: Dict[str, Cells]) -> List[str]:
    tight, loose = (f"{float(f):.2f}x" for f in (TIGHTNESS[0],
                                                 TIGHTNESS[-1]))
    sizes = {label.split("/")[0]: c["buses"] for label, c in cells.items()}
    return [
        format_table("Fig. 5(a) — OPF model alone",
                     ("size / threshold", "verdict", "time (s)",
                      "decisions", "pivots"),
                     [(label, c["verdict"], f"{c['seconds']:.4f}",
                       c["decisions"], c["pivots"])
                      for label, c in cells.items()]),
        format_series("Fig. 5(a) average OPF-model time", "buses",
                      "seconds", _mean_seconds_by_buses(cells)),
        *(f"   {buses} buses: tight "
          f"{cells[f'{name}/{tight}']['seconds']:.4f}s vs loose "
          f"{cells[f'{name}/{loose}']['seconds']:.4f}s "
          f"(paper: tighter is slower)" for name, buses in sizes.items())]


def _fig5b_cells(paper_scale: bool) -> Cells:
    """The attack model alone, three attacker scenarios per size."""
    return {f"{name}/s{seed}": _attack_cell(
        randomize_attacker(get_case(name), seed))
        for name in ("5bus-study2", "ieee14") for seed in SCENARIOS}


def _fig5b_tables(cells: Cells, done: Dict[str, Cells]) -> List[str]:
    mean = _mean_seconds_by_buses(cells)
    opf = _mean_seconds_by_buses(done.get("fig5a", {}))
    return [
        format_table("Fig. 5(b) — attack model alone",
                     ("scenario", "verdict", "time (s)", "decisions",
                      "pivots"),
                     [(label, c["verdict"], f"{c['seconds']:.3f}",
                       c["decisions"], c["pivots"])
                      for label, c in cells.items()]),
        format_series("Fig. 5(b) average attack-model time", "buses",
                      "seconds", mean),
        *(f"   {b} buses: attack model {mean[b]:.3f}s vs OPF model "
          f"{opf[b]:.3f}s" for b in sorted(set(mean) & set(opf)))]


def _starved(case: CaseDefinition) -> CaseDefinition:
    """*case* with an attacker of 1 measurement and 1 bus."""
    return CaseDefinition(
        case.name + "-starved", case.line_specs, case.measurement_specs,
        case.bus_types, case.generators, case.loads,
        1, 1, case.base_cost, case.min_increase_percent)


def _fig5c_cells(paper_scale: bool) -> Cells:
    """Both models, unsat next to sat.  The OPF model is unsat below the
    optimum; the attack model is unsat for a starved attacker that must
    alter something, since a nonzero-flow single-line attack needs at
    least the line's two flow measurements."""
    cells: Cells = {}
    for name in ("5bus-study2", "ieee14"):
        case = get_case(name)
        cells.update(_opf_cells(name, {
            f"{name}/OPF model (unsat)": Fraction(99, 100),
            f"{name}/OPF model (sat)": Fraction(3, 2)}))
        cells[f"{name}/attack model (unsat)"] = _attack_cell(
            _starved(case), require_measurement_alteration=True)
        cells[f"{name}/attack model (sat)"] = _attack_cell(case)
    return cells


def _fig5c_tables(cells: Cells, done: Dict[str, Cells]) -> List[str]:
    return [format_table(
        "Fig. 5(c) — individual models, unsat vs sat",
        ("size / model", "verdict", "time (s)", "decisions", "pivots"),
        [(label, c["verdict"], f"{c['seconds']:.4f}", c["decisions"],
          c["pivots"]) for label, c in cells.items()])]


# -- Table IV: memory ------------------------------------------------------

def _table4_cell(name: str, model: str) -> Dict[str, Any]:
    """Peak allocation of building one model (and solving it: the
    attack model on the 5-bus system only, where the solver's own
    allocation is measured too; solving the larger ones measures time,
    not memory)."""
    case = get_case(name)

    def build_attack():
        encoding = AttackModelEncoding(case, AttackEncodingConfig(
            include_state_infection=True,
            require_believed_feasibility=False))
        verdict = (_verdict(encoding.solve() is not None)
                   if case.num_buses <= 5 else None)
        return verdict, _solver_counters(encoding)

    def build_opf():
        encoding = OpfModelEncoding(*_opf_inputs(name))
        return _verdict(encoding.check(None)), _solver_counters(encoding)

    build = build_attack if model == "attack" else build_opf
    (verdict, counters), prof = profile_memory(build)
    return _cell(verdict, prof.elapsed_seconds, buses=case.num_buses,
                 peak_alloc_mb=round(prof.peak_alloc_mb, 2), **counters)


def _table4_cells(paper_scale: bool) -> Cells:
    """Each (case, model) cell of :func:`_table4_cell`, in a fresh
    spawned process: a model's peak allocation then never depends on
    what the harness built before it (in one process, caches earlier
    entries left behind moved the 30-bus OPF model from 0.84 to 1.40
    MB)."""
    context = multiprocessing.get_context("spawn")
    cells: Cells = {}
    for name in ("5bus-study2", "ieee14", "ieee30", "ieee57"):
        for model in ("attack", "opf"):
            with context.Pool(1) as pool:
                cells[f"{name}/{model}"] = pool.apply(
                    _table4_cell, (name, model))
    return cells


def _table4_rows(cells: Cells) -> List[Tuple]:
    rows = []
    for label, attack in cells.items():
        if label.endswith("/attack"):
            opf = cells[label[:-len("attack")] + "opf"]
            rows.append((attack["buses"], attack["peak_alloc_mb"],
                         opf["peak_alloc_mb"],
                         *TABLE4_PAPER[attack["buses"]]))
    return rows


def _table4_tables(cells: Cells, done: Dict[str, Cells]) -> List[str]:
    return [format_table(
        "Table IV — solver memory (MB), measured vs paper",
        ("buses", "attack model (ours)", "OPF model (ours)",
         "attack model (paper)", "OPF model (paper)"),
        [(b, f"{a:.2f}", f"{o:.2f}", pa, po)
         for b, a, o, pa, po in _table4_rows(cells)])]


def _table4_checks(cells: Cells) -> Dict[str, bool]:
    rows = _table4_rows(cells)
    attack, opf = [r[1] for r in rows], [r[2] for r in rows]
    return {"attack-model memory monotone in bus count":
            attack == sorted(attack),
            "OPF-model memory monotone in bus count": opf == sorted(opf)}


# -- the case studies (Tables II and III, Section III-G) -------------------

def _case1_cells(paper_scale: bool) -> Cells:
    case = get_case("5bus-study1")
    report, seconds = measured(lambda: ImpactAnalyzer(case).analyze(
        ImpactQuery(verify_with_smt_opf=True)))
    return {"5bus-study1": _report_cell(report, seconds)}


def _case1_tables(cells: Cells, done: Dict[str, Cells]) -> List[str]:
    c = cells["5bus-study1"]
    return [format_table(
        "Case study 1 — paper vs reproduction",
        ("quantity", "paper", "measured"),
        [("verdict", "sat", c["verdict"]),
         ("topology attack", "exclude line 6",
          f"exclude line {_listed(c.get('excluded'))}"),
         ("altered measurements", "{6, 13, 17, 18}",
          _set(c.get("altered"))),
         ("buses compromised", "{3, 4}", _set(c.get("buses"))),
         ("cost increase", "~4% ($1650 vs $1580 = 4.4%)",
          _percent(c.get("increase_percent")))])]


def _case1_checks(cells: Cells) -> Dict[str, bool]:
    c = cells["5bus-study1"]
    return {"sat": c["verdict"] == "sat",
            "excludes line 6": c.get("excluded") == [6],
            "alters {6, 13, 17, 18}": c.get("altered") == [6, 13, 17, 18],
            "compromises buses {3, 4}": c.get("buses") == [3, 4],
            "SMT-OPF confirms the believed optimum":
                c.get("smt_opf_unsat_confirmed") is True}


def _case2_cells(paper_scale: bool) -> Cells:
    case = get_case("5bus-study2")
    cells: Cells = {}
    report, seconds = measured(lambda: ImpactAnalyzer(case).analyze(
        ImpactQuery(with_state_infection=True, verify_with_smt_opf=True)))
    cells["5bus-study2/states"] = _report_cell(report, seconds)
    analyzer = ImpactAnalyzer(case)
    for percent in (10, 11):
        report, seconds = measured(lambda: analyzer.analyze(ImpactQuery(
            target_increase_percent=Fraction(percent),
            with_state_infection=True)))
        cells[f"5bus-study2/t{percent}/states"] = _report_cell(report,
                                                               seconds)
    ufdi, seconds = measured(lambda: ImpactAnalyzer(case).max_impact(
        query=ImpactQuery(with_state_infection=True,
                          allow_topology_attack=False)))
    cells["5bus-study2/ufdi-only/max"] = _search_cell(ufdi, seconds)
    witness = ufdi.witness_report
    cells["5bus-study2/ufdi-only/max"]["witness_percent"] = (
        None if witness is None
        else float(witness.achieved_increase_percent))
    return cells


def _case2_tables(cells: Cells, done: Dict[str, Cells]) -> List[str]:
    c = cells["5bus-study2/states"]
    loads = c.get("believed_loads", {})
    ufdi = cells["5bus-study2/ufdi-only/max"]
    lo, hi = ufdi["bracket"]
    reaches = "sat" if Fraction(hi) > 6 else "unsat"
    return [
        format_table(
            "Case study 2 — paper vs reproduction",
            ("quantity", "paper", "measured"),
            [("verdict at 6%", "sat", c["verdict"]),
             ("topology attack", "exclude line 6",
              f"exclude line {_listed(c.get('excluded'))}"),
             ("UFDI on state", "3", _listed(c.get("infected_states"))),
             ("altered measurements", "{3, 6, 10, 13, 16, 18}",
              _set(c.get("altered"))),
             ("buses compromised", "{2, 3, 4}", _set(c.get("buses"))),
             ("believed loads moved", "0.21->0.29 and 0.18->0.10",
              ", ".join(f"bus{b} -> {loads[b]:.2f}" for b in ("2", "4")
                        if b in loads)),
             ("cost increase", "~7%",
              _percent(c.get("increase_percent")))]),
        format_table(
            "Case study 2 boundaries — paper vs reproduction",
            ("quantity", "paper", "measured"),
            [("near-ceiling target", "8% sat, 9% unsat",
              f"10% {cells['5bus-study2/t10/states']['verdict']}, "
              f"11% {cells['5bus-study2/t11/states']['verdict']}"),
             ("UFDI alone at the target", "unsat (max < 3%)",
              f"{reaches} (I* in [{lo}, {hi}), witness "
              f"{_percent(ufdi['witness_percent'], 3)})")])]


def _case2_checks(cells: Cells) -> Dict[str, bool]:
    c = cells["5bus-study2/states"]
    ufdi = cells["5bus-study2/ufdi-only/max"]
    return {"sat at 6%": c["verdict"] == "sat",
            "excludes line 6": c.get("excluded") == [6],
            "infects state 3": c.get("infected_states") == [3],
            "alters {3, 6, 10, 13, 16, 18}":
                c.get("altered") == [3, 6, 10, 13, 16, 18],
            "compromises buses {2, 3, 4}": c.get("buses") == [2, 3, 4],
            "sat at 10%":
                cells["5bus-study2/t10/states"]["verdict"] == "sat",
            "unsat at 11%":
                cells["5bus-study2/t11/states"]["verdict"] == "unsat",
            "UFDI alone cannot reach 6% (complete I* bracket below it)":
                ufdi["status"] == "complete"
                and Fraction(ufdi["bracket"][1]) <= 6}


# -- ablations ---------------------------------------------------------------

def _ablation_opf_cells(paper_scale: bool) -> Cells:
    """Angle-formulation OPF vs shift factors + LODF (Section IV-A idea
    2) over single-line exclusion candidates."""
    cells: Cells = {}
    for name in ("ieee14", "ieee30", "ieee57"):
        grid = get_case(name).build_grid()
        lines = [line.index for line in grid.lines]
        candidates = [i for i in lines[: max(10, len(lines) // 4)]
                      if grid.is_connected([j for j in lines if j != i])]
        angle, angle_s = measured(lambda: [solve_dc_opf(
            grid, line_indices=[j for j in lines if j != out],
            method="highs").cost for out in candidates])

        def factor_sweep():
            solver = ShiftFactorOpf(grid)
            return [solver.solve(change=TopologyChange("exclude",
                                                       out)).cost
                    for out in candidates]
        factor, factor_s = measured(factor_sweep)
        agree = all(
            (a is None) == (b is None) and (a is None or abs(
                float(a) - float(b)) < 1e-4 * max(1.0, float(a)))
            for a, b in zip(angle, factor))
        cells[f"{name}/angle formulation"] = _cell(
            None, angle_s, candidates=len(candidates))
        cells[f"{name}/shift factors + LODF"] = _cell(
            None, factor_s, candidates=len(candidates), agrees=agree,
            speedup=round(angle_s / max(factor_s, 1e-9), 2))
    return cells


def _ablation_opf_tables(cells: Cells, done: Dict[str, Cells]
                         ) -> List[str]:
    return [format_table(
        "Ablation — OPF formulation over exclusion candidates",
        ("case / formulation", "candidates", "sweep time (s)", "speedup"),
        [(label, c["candidates"], f"{c['seconds']:.4f}",
          f"{c['speedup']:.1f}x" if "speedup" in c else "")
         for label, c in cells.items()])]


def _ablation_smt_cells(paper_scale: bool) -> Cells:
    """What the DPLL(T) solver spends its effort on: the case-study
    attack models' statistics (supports DESIGN.md's Z3-substitution
    note)."""
    cells: Cells = {}
    for name, with_state in (("5bus-study1", False), ("5bus-study2", True)):
        encoding = AttackModelEncoding(get_case(name), AttackEncodingConfig(
            include_state_infection=with_state))
        solution, seconds = measured(encoding.solve)
        stats = encoding.solver.stats
        cells[name] = _cell(
            _verdict(solution is not None), seconds,
            sat_vars=stats.sat_vars, clauses=stats.clauses,
            atoms=stats.theory_atoms, decisions=stats.decisions,
            conflicts=stats.conflicts,
            theory_conflicts=stats.theory_conflicts,
            pivots=stats.simplex_pivots)
    return cells


_SMT_STATS = ("sat_vars", "clauses", "atoms", "decisions", "conflicts",
              "theory_conflicts", "pivots")


def _ablation_smt_tables(cells: Cells, done: Dict[str, Cells]
                         ) -> List[str]:
    return [format_table(
        "DPLL(T) workload on the case-study attack models",
        ("case", "sat vars", "clauses", "atoms", "decisions", "conflicts",
         "T-conflicts", "pivots"),
        [(name, *(c[k] for k in _SMT_STATS)) for name, c in cells.items()])]


# -- I*: bisection vs linear sweep (Section III-G's ceilings) ---------------

class _FreshPerProbe:
    """The ``solve_at`` surface on a fresh analyzer for every probe."""

    def __init__(self, case):
        self.case = case

    def solve_at(self, percent, query=None):
        return ImpactAnalyzer(self.case).solve_at(percent, query)


def _linear_sweep(analyzer, step):
    """(largest satisfiable multiple of ``step``, probes) by probing 0,
    step, 2*step, ... until the first unsat answer."""
    calls, percent, last_sat = 0, Fraction(0), None
    while True:
        report = analyzer.solve_at(percent)
        calls += 1
        if not report.satisfiable:
            return last_sat, calls
        last_sat = percent
        percent += step


def _max_impact_cells(paper_scale: bool) -> Cells:
    """Bisection to I* against the naive linear sweep at the same
    resolution, both warm on one analyzer, on 5bus-study1.  At 1/8 the
    probe counts differ ~4x but wall time is near parity (the linear
    probes are almost all cheap warm sat re-solves); at 1/64 the linear
    sweep's O(I*/eps) probe bill dominates.  The cold cell bisects at
    1/8 on a fresh analyzer (a new encoding) per probe."""
    case = get_case("5bus-study1")
    cells: Cells = {}
    for tol in (Fraction(1, 8), Fraction(1, 64)):
        result, seconds = measured(lambda: MaxImpactSearch(
            ImpactAnalyzer(case), tolerance=tol).run())
        cells[f"bisection {tol}"] = _search_cell(result, seconds)
        (istar, calls), seconds = measured(
            lambda: _linear_sweep(ImpactAnalyzer(case), tol))
        cells[f"linear {tol}"] = _cell(
            "sat", seconds, bracket=[str(istar), str(istar + tol)],
            solve_at_calls=calls)
    result, seconds = measured(lambda: MaxImpactSearch(
        _FreshPerProbe(case), tolerance=Fraction(1, 8)).run())
    cells["cold bisection 1/8"] = _search_cell(result, seconds)
    return cells


def _max_impact_tables(cells: Cells, done: Dict[str, Cells]) -> List[str]:
    rows = []
    for tol in ("1/8", "1/64"):
        bis, lin = cells[f"bisection {tol}"], cells[f"linear {tol}"]
        rows.append((tol, bis["bracket"][0],
                     f"{bis['solve_at_calls']} / {lin['solve_at_calls']}",
                     f"{bis['seconds']:.3f} / {lin['seconds']:.3f}",
                     f"{lin['seconds'] / bis['seconds']:.2f}x"))
    warm, cold = cells["bisection 1/8"], cells["cold bisection 1/8"]
    istar = Fraction(warm["bracket"][0])
    return [format_table(
        "max-impact search — 5bus-study1, bisection vs linear (warm)",
        ("tolerance", "I*", "calls (bis/lin)", "time s (bis/lin)",
         "speedup"), rows),
        f"I* = {istar} ({float(istar):.3f}%)  warm-vs-cold bisection at "
        f"1/8: {cold['seconds'] / warm['seconds']:.2f}x "
        f"({cold['encodings_built']} cold encodings vs "
        f"{warm['encodings_built']})"]


def _max_impact_checks(cells: Cells) -> Dict[str, bool]:
    checks = {}
    for tol in ("1/8", "1/64"):
        bis, lin = cells[f"bisection {tol}"], cells[f"linear {tol}"]
        checks.update({
            f"{tol}: bisection complete and sat":
                bis["status"] == "complete" and bis["verdict"] == "sat",
            f"{tol}: bisection I* equals the linear sweep's":
                bis["bracket"][0] == lin["bracket"][0],
            f"{tol}: bisection builds 1 encoding":
                bis["encodings_built"] == 1,
            f"{tol}: bisection makes fewer calls":
                bis["solve_at_calls"] < lin["solve_at_calls"]})
    cold = cells["cold bisection 1/8"]
    checks.update({
        "cold: complete, one encoding per probe":
            cold["status"] == "complete"
            and cold["encodings_built"] == cold["solve_at_calls"],
        "cold: same I* as warm":
            cold["bracket"][0] == cells["bisection 1/8"]["bracket"][0]})
    return checks


# -- warm vs cold encoding reuse on a Fig. 4-style threshold sweep ---------

def _incremental_cells(paper_scale: bool) -> Cells:
    """One case at six targets.  Cold: each target a one-cell unit that
    encodes anew.  Warm: the sweep engine's encoding-group batching, one
    encoding re-solved per threshold inside push()/pop(), learned
    clauses carried across targets."""
    specs = [ScenarioSpec.build("5bus-study1", analyzer="smt", target=t,
                                label=f"5bus-study1/t{t}")
             for t in range(1, 7)]
    cells: Cells = {}
    for kind, outcomes in (
            ("cold", [execute_scenario(spec) for spec in specs]),
            ("warm", _serial_sweep(specs))):
        for outcome in outcomes:
            session = outcome.trace["session"]
            cells[f"{kind} {outcome.spec.label}"] = _outcome_cell(
                outcome, warm=session["warm"],
                encodings_built=session["encodings_built"],
                encode_seconds=round(session["encode_seconds"], 4))
    return cells


def _incremental_split(cells: Cells) -> Tuple[List[Dict], List[Dict]]:
    return ([c for k, c in cells.items() if k.startswith("cold ")],
            [c for k, c in cells.items() if k.startswith("warm ")])


def _incremental_tables(cells: Cells, done: Dict[str, Cells]
                        ) -> List[str]:
    cold, warm = _incremental_split(cells)
    labels = [k[len("cold "):] for k in cells if k.startswith("cold ")]
    total = {kind: (sum(c["seconds"] for c in side),
                    sum(c["encode_seconds"] for c in side))
             for kind, side in (("cold", cold), ("warm", warm))}
    return [format_table(
        f"incremental sweep — 5bus-study1, {len(labels)} targets",
        ("scenario", "verdict", "cold (s)", "warm (s)", "warm?"),
        [(label, c["verdict"], f"{c['seconds']:.3f}",
          f"{w['seconds']:.3f}", "yes" if w["warm"] else "no")
         for label, c, w in zip(labels, cold, warm)]),
        f"cold total: {total['cold'][0]:.3f}s (encode "
        f"{total['cold'][1]:.3f}s)  warm total: {total['warm'][0]:.3f}s "
        f"(encode {total['warm'][1]:.3f}s)  speedup: "
        f"{total['cold'][0] / total['warm'][0]:.2f}x"]


def _incremental_checks(cells: Cells) -> Dict[str, bool]:
    cold, warm = _incremental_split(cells)
    return {"warm verdicts equal cold":
            [c["verdict"] for c in warm] == [c["verdict"] for c in cold],
            "warm builds 1 encoding, cold one per target":
            sum(c["encodings_built"] for c in warm) == 1
            and sum(c["encodings_built"] for c in cold) == len(cold)}


# -- the registry and the driver -------------------------------------------

@dataclass(frozen=True)
class Entry:
    """One figure, table or record: its cells (run at the given scale),
    the tables and notes printed from them (given every entry run so
    far, for cross-figure comparisons) and the paper's shape checked on
    them, by description."""

    paper: str
    cells: Callable[[bool], Cells]
    tables: Callable[[Cells, Dict[str, Cells]], List[str]]
    checks: Callable[[Cells], Dict[str, bool]]


ENTRIES: Dict[str, Entry] = {
    "fig4a": Entry("Fig. 4(a)", _fig4_cells(False, unsat=False),
                   _fig4_tables("a", "combined model, no state infection"),
                   _ANSWERED),
    "fig4b": Entry("Fig. 4(b)", _fig4_cells(True, unsat=False),
                   _fig4_tables("b", "combined model with states"),
                   _ANSWERED),
    "fig4c": Entry("Fig. 4(c)", _fig4_cells(False, unsat=True),
                   _fig4_tables("c", "combined model, unsat cases"),
                   _every_cell("every cell unsat",
                               lambda _, c: c["verdict"] == "unsat")),
    "fig5a": Entry("Fig. 5(a)", _fig5a_cells, _fig5a_tables,
                   _every_cell("sat at every threshold above the optimum",
                               lambda _, c: c["verdict"] == "sat")),
    "fig5b": Entry("Fig. 5(b)", _fig5b_cells, _fig5b_tables,
                   lambda cells: {}),
    "fig5c": Entry("Fig. 5(c)", _fig5c_cells, _fig5c_tables,
                   _every_cell("every verdict is the one its label names",
                               lambda label, c: label.endswith(
                                   f"({c['verdict']})"))),
    "table4": Entry("Table IV", _table4_cells, _table4_tables,
                    _table4_checks),
    "case1": Entry("Table II / case study 1", _case1_cells, _case1_tables,
                   _case1_checks),
    "case2": Entry("Table III / case study 2", _case2_cells,
                   _case2_tables, _case2_checks),
    "ablation_opf": Entry("Section IV-A idea 2 (ablation)",
                          _ablation_opf_cells, _ablation_opf_tables,
                          _every_cell(
                              "formulations agree to 1e-4 on every "
                              "candidate",
                              lambda _, c: c.get("agrees", True))),
    "ablation_smt": Entry("solver statistics (supporting)",
                          _ablation_smt_cells, _ablation_smt_tables,
                          _every_cell(
                              "the solver searched (decisions > 0)",
                              lambda _, c: c["decisions"] > 0)),
    "max_impact": Entry("Section III-G (maximum-impact ceiling)",
                        _max_impact_cells, _max_impact_tables,
                        _max_impact_checks),
    "incremental": Entry("Fig. 4 (threshold sweep, incremental reuse)",
                         _incremental_cells, _incremental_tables,
                         _incremental_checks),
}


def write_artifact(path: Path, results: Dict[str, Any]) -> None:
    """Merge *results* into the JSON at *path*: the entries run replace
    their old records, every other recorded entry is kept."""
    payload = {"benchmark": "paper", "entries": {}}
    if path.exists():
        payload = json.loads(path.read_text())
    entries = {**payload["entries"], **results}
    payload["entries"] = {name: entries[name] for name in ENTRIES
                          if name in entries}
    path.write_text(json.dumps(payload, indent=2) + "\n")


def main(argv=None, artifact: Path = ARTIFACT) -> int:
    parser = argparse.ArgumentParser(
        description="Regenerate the paper's evaluation tables.")
    parser.add_argument("entries", nargs="*", metavar="ENTRY",
                        help=f"entries to run (default: all): "
                             f"{', '.join(ENTRIES)}")
    parser.add_argument("--paper-scale", action="store_true",
                        help="run the SMT models further up the sweep "
                             "(ieee14 in Fig. 4, ieee57 in Fig. 5(a); "
                             "slow)")
    args = parser.parse_args(argv)
    unknown = [name for name in args.entries if name not in ENTRIES]
    if unknown:
        parser.error(f"unknown entry {', '.join(unknown)} "
                     f"(choose from {', '.join(ENTRIES)})")

    started = time.perf_counter()
    done: Dict[str, Cells] = {}
    results: Dict[str, Any] = {}
    failed: List[str] = []
    for name, entry in ENTRIES.items():
        if args.entries and name not in args.entries:
            continue
        cells = done[name] = entry.cells(args.paper_scale)
        for block in entry.tables(cells, done):
            if block.startswith("=="):      # a table, not a note under one
                print()
            print(block)
        checks = entry.checks(cells)
        failed.extend(f"{name}: {check}"
                      for check, held in checks.items() if not held)
        results[name] = {
            "paper": entry.paper,
            "scale": "paper" if args.paper_scale else "default",
            "checks": checks, "cells": cells}
    write_artifact(artifact, results)
    print()
    for failure in failed:
        print(f"SHAPE CHECK FAILED — {failure}")
    print(f"{len(results)} entries in {time.perf_counter() - started:.1f}s,"
          f" {len(failed)} failed shape check(s); wrote {artifact}")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
