"""Which public calls the traced run times, and the per-layer metrics.

Each layer's spans are recorded around its public entry points (see
``install``).  Times are *self* times: a layer's span minus the part its
child spans cover, so the layers of one run add up to the traced wall
time without double counting.  Counters are summed over a layer's
outermost spans only (a ``Simplex.check`` nested in ``Simplex.minimize``
adds no pivots of its own).  Only the benchmark's own process is patched:
for ``sweep-2w`` and ``serve-2c`` the spans cover what runs there
(fingerprints, cache, dispatch), and the work in worker processes is
added from the counters the program already returns (outcome traces,
``task_seconds``, ``/stats``); worker-side layers those do not describe
read 0.  A layer that does not run in a workload reads 0 as well.
"""

from __future__ import annotations

import statistics
from typing import Any, Dict, Iterable, List, Optional, Tuple

from perfbench.tracing import Span, Tracer, self_times

#: (metric, unit, end-to-end metric and workload it should move).
PER_LAYER: List[Tuple[str, str, str]] = [
    ("smt.sat.self_s", "s", "decision_s on exact"),
    ("smt.sat.decisions", "count", "decision_s on exact"),
    ("smt.sat.conflicts", "count", "decision_s on exact"),
    ("smt.sat.propagations", "count", "decision_s on exact"),
    ("smt.simplex.check_s", "s", "decision_s on exact (Fig. 5(a))"),
    ("smt.simplex.checks", "count", "decision_s on exact"),
    ("smt.simplex.pivots", "count", "decision_s on exact"),
    ("smt.simplex.pivots_per_check", "ratio", "decision_s on exact"),
    ("smt.cnf.s", "s", "decision_s on exact (cold cells)"),
    ("smt.cnf.clauses", "count", "decision_s on exact"),
    ("smt.cnf.sat_vars", "count", "decision_s on exact"),
    ("smt.certificates.s", "s", "decision_s on exact (unsat cells)"),
    ("smt.certificates.checks", "count", "decision_s on exact"),
    ("smt.certificates.rup_steps", "count", "decision_s on exact"),
    ("core.encoding.s", "s", "decision_s on exact"),
    ("core.encoding.builds", "count", "decision_s on exact"),
    ("search.probes", "count", "maximize_s on exact, maximize_p50_s"),
    ("search.unsat_probes", "count", "maximize_s on exact"),
    ("search.probe_p50_s", "s", "maximize_s on exact, maximize_p50_s"),
    ("core.session.warm_solves", "count", "maximize_s, maximize_p50_s"),
    ("core.session.encodings_built", "count", "maximize_s, maximize_p50_s"),
    ("validation.s", "s", "wall_s on fast and sweep-2w"),
    ("validation.calls", "count", "wall_s on fast and sweep-2w"),
    ("opf.solves", "count", "wall_s on fast and sweep-2w"),
    ("opf.s", "s", "wall_s on fast and sweep-2w"),
    ("opf.exact_s", "s", "wall_s on fast and sweep-2w"),
    ("opf.highs_s", "s", "wall_s on fast (ieee118)"),
    ("opf.shift_factor_s", "s", "wall_s on fast and sweep-2w"),
    ("opf.solves_per_candidate", "ratio", "wall_s on fast and sweep-2w"),
    ("grid.sensitivities.s", "s", "wall_s on fast (synth300)"),
    ("grid.sensitivities.calls", "count", "wall_s on fast"),
    ("estimation.s", "s", "wall_s on fast"),
    ("estimation.calls", "count", "wall_s on fast"),
    ("numerics.factorizations", "count", "wall_s on fast"),
    ("numerics.s", "s", "wall_s on fast (dense ieee118, sparse synth300)"),
    ("numerics.rank_s", "s", "wall_s on fast"),
    ("core.fast.s", "s", "wall_s on fast and sweep-2w"),
    ("core.fast.candidates", "count", "wall_s on fast and sweep-2w"),
    ("runner.fingerprint_s", "s", "wall_s on sweep-2w"),
    ("runner.engine.busy_s", "s", "wall_s on sweep-2w"),
    ("runner.engine.busy_ratio", "ratio", "wall_s on sweep-2w"),
    ("runner.engine.idle_s", "s", "wall_s on sweep-2w"),
    ("runner.engine.attempts", "count", "wall_s on sweep-2w"),
    ("runner.cache.get_s", "s", "rerun_s on sweep-2w"),
    ("runner.cache.put_s", "s", "wall_s on sweep-2w"),
    ("runner.cache.verify_s", "s", "rerun_s on sweep-2w"),
    ("runner.cache.hit_ratio", "ratio", "rerun_s on sweep-2w"),
    ("runner.cache.bytes_written", "bytes", "wall_s on sweep-2w"),
    ("runner.cache.rejected", "count", "rerun_s on sweep-2w"),
    ("service.queue_wait_p50_s", "s", "decision_p50_s on serve-2c"),
    ("service.worker_s", "s", "decision_p50/p90_s on serve-2c"),
    ("service.warm_hit_ratio", "ratio", "decision_p50/p90_s on serve-2c"),
    ("service.retried", "count", "decision_p90_s on serve-2c"),
    ("service.shed", "count", "decision_p90_s on serve-2c"),
    ("trace.overhead_s", "s", "(traced wall_s minus untraced wall_s)"),
    ("trace.spans", "count", "(spans the traced pass recorded)"),
]


def _counters(before_names, snapshot):
    """before/after hooks that report counter deltas read off ``self``."""
    def before(args, kwargs):
        return snapshot(args[0])

    def after(state, args, kwargs, result):
        now = snapshot(args[0])
        return {name: now[i] - state[i] for i, name in enumerate(before_names)}
    return before, after


def _sat_stats(solver):
    stats = solver.stats
    return (stats.decisions, stats.conflicts, stats.propagations)


def _cnf_size(solver):
    # Clause and variable counts; SmtStatistics refreshes these only at
    # solve() time, so read the live counters behind them.
    sat = getattr(solver, "_sat", None)
    return (getattr(solver, "_clause_count", 0),
            getattr(sat, "num_vars", 0))


def _opf_method(args, kwargs):
    method = kwargs.get("method", args[3] if len(args) > 3 else "exact")
    return f"opf.{method}"


def install(tracer: Tracer) -> None:
    """Patch every traced entry point (undo with ``tracer.restore()``)."""
    from repro.core.encoding import AttackModelEncoding, OpfModelEncoding
    from repro.core.fast import FastImpactAnalyzer
    from repro.estimation.wls import WlsEstimator
    from repro.numerics.guards import GuardedFactorization
    from repro.numerics.sparse import SparseLU
    from repro.opf.shift_factor import ShiftFactorOpf
    from repro.runner.cache import ResultCache
    from repro.runner.engine import SweepEngine
    from repro.runner.spec import ScenarioSpec
    from repro.search.max_impact import MaxImpactSearch
    from repro.smt.sat import SatSolver
    from repro.smt.simplex import Simplex
    from repro.smt.solver import SmtSolver

    before, after = _counters(("decisions", "conflicts", "propagations"),
                              _sat_stats)
    tracer.patch_method(SatSolver, "solve", "smt.sat", before, after)
    before, after = _counters(("pivots",), lambda simplex: (simplex.pivots,))
    tracer.patch_method(Simplex, "check", "smt.simplex", before, after)
    tracer.patch_method(Simplex, "minimize", "smt.simplex.minimize",
                        before, after)
    before, after = _counters(("clauses", "sat_vars"), _cnf_size)
    tracer.patch_method(SmtSolver, "add", "smt.cnf", before, after)
    for name in ("verify_sat", "verify_unsat"):
        tracer.patch_function(
            "repro.smt.certificates", name, "smt.certificates",
            after=lambda state, args, kwargs, report: {
                "rup_steps": getattr(report, "rup_steps", 0)})
    tracer.patch_method(AttackModelEncoding, "__init__", "core.encoding")
    tracer.patch_method(OpfModelEncoding, "__init__", "core.encoding")
    tracer.patch_method(MaxImpactSearch, "run", "search")
    tracer.patch_function("repro.validation.checks", "validate_case",
                          "validation")
    tracer.patch_function("repro.opf.dcopf", "solve_dc_opf", _opf_method)
    tracer.patch_method(ShiftFactorOpf, "solve", "opf.shift_factor")
    for name in ("compute_ptdf", "lodf_column", "lcdf_column"):
        tracer.patch_function("repro.grid.sensitivities", name,
                              "grid.sensitivities")
    tracer.patch_method(WlsEstimator, "estimate", "estimation")
    tracer.patch_function("repro.estimation.observability",
                          "is_numerically_observable", "estimation")
    tracer.patch_method(GuardedFactorization, "__init__",
                        "numerics.factorize")
    tracer.patch_method(SparseLU, "__init__", "numerics.sparse_lu")
    tracer.patch_function("repro.numerics.guards", "guarded_solve",
                          "numerics.solve")
    tracer.patch_function("repro.numerics.guards", "guarded_rank",
                          "numerics.rank")
    tracer.patch_method(
        FastImpactAnalyzer, "analyze", "core.fast",
        after=lambda state, args, kwargs, report: {
            "candidates": report.candidates_examined})
    tracer.patch_method(SweepEngine, "run", "runner.engine")
    tracer.patch_method(ScenarioSpec, "fingerprint", "runner.fingerprint")
    tracer.patch_method(ResultCache, "get", "runner.cache.get")
    tracer.patch_method(ResultCache, "try_put", "runner.cache.put")
    tracer.patch_function("repro.runner.engine", "verify_cached_outcome",
                          "runner.cache.verify")


class _Spans:
    """Span lookups by layer prefix."""

    def __init__(self, spans: List[Span]) -> None:
        self.spans = spans
        self.own = self_times(spans)

    def _in(self, prefix: str, name: str) -> bool:
        return name == prefix or name.startswith(prefix + ".")

    def select(self, prefix: str) -> Iterable[int]:
        return (i for i, span in enumerate(self.spans)
                if self._in(prefix, span.name))

    def self_s(self, prefix: str) -> float:
        return sum(self.own[i] for i in self.select(prefix))

    def total_s(self, prefix: str) -> float:
        return sum(self.spans[i].duration for i in self.outer(prefix))

    def calls(self, name: str) -> int:
        return sum(1 for span in self.spans if span.name == name)

    def outer(self, prefix: str) -> List[int]:
        """Spans of the layer not nested inside another span of it."""
        out = []
        for i in self.select(prefix):
            parent = self.spans[i].parent
            if parent is None or not self._in(prefix,
                                              self.spans[parent].name):
                out.append(i)
        return out

    def counter(self, prefix: str, key: str) -> float:
        return sum(self.spans[i].counters.get(key, 0)
                   for i in self.outer(prefix))


def span_table(spans: List[Span]) -> List[Tuple[str, int, float]]:
    """(name, calls, self seconds) per span name, largest self time first."""
    rows: Dict[str, list] = {}
    for span, own in zip(spans, self_times(spans)):
        row = rows.setdefault(span.name, [span.name, 0, 0.0])
        row[1] += 1
        row[2] += own
    return sorted((tuple(row) for row in rows.values()),
                  key=lambda row: -row[2])


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def from_spans(spans: List[Span]) -> Dict[str, float]:
    """The layer metrics an in-process traced pass measures directly."""
    s = _Spans(spans)
    pivots = s.counter("smt.simplex", "pivots")
    checks = s.calls("smt.simplex")
    opf_solves = len(s.outer("opf"))
    return {
        "trace.spans": len(spans),
        "smt.sat.self_s": s.self_s("smt.sat"),
        "smt.sat.decisions": s.counter("smt.sat", "decisions"),
        "smt.sat.conflicts": s.counter("smt.sat", "conflicts"),
        "smt.sat.propagations": s.counter("smt.sat", "propagations"),
        "smt.simplex.check_s": s.self_s("smt.simplex"),
        "smt.simplex.checks": checks,
        "smt.simplex.pivots": pivots,
        "smt.simplex.pivots_per_check": _ratio(pivots, checks),
        "smt.cnf.s": s.self_s("smt.cnf"),
        "smt.cnf.clauses": s.counter("smt.cnf", "clauses"),
        "smt.cnf.sat_vars": s.counter("smt.cnf", "sat_vars"),
        "smt.certificates.s": s.self_s("smt.certificates"),
        "smt.certificates.checks": s.calls("smt.certificates"),
        "smt.certificates.rup_steps": s.counter("smt.certificates",
                                                "rup_steps"),
        "core.encoding.s": s.self_s("core.encoding"),
        "core.encoding.builds": s.calls("core.encoding"),
        "validation.s": s.self_s("validation"),
        "validation.calls": s.calls("validation"),
        "opf.solves": opf_solves,
        "opf.s": s.self_s("opf"),
        "opf.exact_s": s.self_s("opf.exact"),
        "opf.highs_s": s.self_s("opf.highs"),
        "opf.shift_factor_s": s.self_s("opf.shift_factor"),
        "grid.sensitivities.s": s.self_s("grid.sensitivities"),
        "grid.sensitivities.calls": s.calls("grid.sensitivities"),
        "estimation.s": s.self_s("estimation"),
        "estimation.calls": s.calls("estimation"),
        # Each LU built: guarded factorizations, plus sparse LUs built
        # outside one (guarded_rank's).
        "numerics.factorizations": len(s.outer("numerics.factorize"))
        + sum(1 for i in s.select("numerics.sparse_lu")
              if spans[i].parent is None
              or spans[spans[i].parent].name != "numerics.factorize"),
        "numerics.s": s.self_s("numerics"),
        "numerics.rank_s": s.total_s("numerics.rank"),
        "core.fast.s": s.self_s("core.fast"),
        "core.fast.candidates": s.counter("core.fast", "candidates"),
        "runner.fingerprint_s": s.total_s("runner.fingerprint"),
        "runner.cache.get_s": s.total_s("runner.cache.get"),
        "runner.cache.put_s": s.total_s("runner.cache.put"),
        "runner.cache.verify_s": s.total_s("runner.cache.verify"),
    }


def from_outcomes(outcomes: Iterable[Dict[str, Any]],
                  fast_ids: Optional[set] = None,
                  worker_side: bool = False) -> Dict[str, float]:
    """Layer counters the program itself returns on each outcome.

    I* probes and session warmth always come from here.  SMT, OPF and
    fast-candidate counters only count when ``worker_side`` (the work ran
    in another process, out of the spans' sight); ``fast_ids`` (indices)
    marks the fast-analyzer outcomes.
    """
    smt = {"decisions": 0, "conflicts": 0, "propagations": 0,
           "simplex_pivots": 0}
    opf_solves = opf_s = candidates = fast_candidates = 0.0
    probes: List[float] = []
    unsat_probes = warm = built = 0
    for index, outcome in enumerate(outcomes):
        trace = outcome.get("trace") or {}
        for key in smt:
            smt[key] += (trace.get("smt") or {}).get(key, 0)
        opf_solves += (trace.get("opf") or {}).get("solves", 0)
        opf_s += (trace.get("opf") or {}).get("seconds", 0.0)
        candidates += outcome.get("candidates_examined", 0)
        if fast_ids is not None and index in fast_ids:
            fast_candidates += outcome.get("candidates_examined", 0)
        session = trace.get("session") or {}
        search = session.get("search")
        if search is not None:
            warm += search.get("warm_solves", 0)
            built += search.get("encodings_built", 0)
        else:
            warm += 1 if session.get("warm") else 0
            built += session.get("encodings_built", 0)
        for probe in (outcome.get("max_impact") or {}).get("probes", []):
            probes.append(probe.get("seconds", 0.0))
            unsat_probes += probe.get("verdict") == "unsat"
    metrics = {
        "search.probes": len(probes),
        "search.unsat_probes": unsat_probes,
        "search.probe_p50_s": statistics.median(probes) if probes else 0.0,
        "core.session.warm_solves": warm,
        "core.session.encodings_built": built,
        "_candidates": candidates,
    }
    if worker_side:
        metrics.update({
            "smt.sat.decisions": smt["decisions"],
            "smt.sat.conflicts": smt["conflicts"],
            "smt.sat.propagations": smt["propagations"],
            "smt.simplex.pivots": smt["simplex_pivots"],
            "opf.solves": opf_solves,
            "opf.s": opf_s,
            "core.fast.candidates": fast_candidates,
        })
    return metrics


def combine(span_metrics: Optional[Dict[str, float]],
            outcome_metrics: Dict[str, float],
            extra: Dict[str, float]) -> Dict[str, float]:
    """Every PER_LAYER metric: this process's spans plus the counters of
    outcomes from other processes, then the workload's own figures."""
    metrics = {name: 0.0 for name, _, _ in PER_LAYER}
    for source in (span_metrics or {}, outcome_metrics):
        for name, value in source.items():
            if name in metrics:
                metrics[name] += value
    metrics["opf.solves_per_candidate"] = _ratio(
        metrics["opf.solves"], outcome_metrics.get("_candidates", 0.0))
    metrics.update(extra)
    return {name: float(metrics[name]) for name, _, _ in PER_LAYER}
