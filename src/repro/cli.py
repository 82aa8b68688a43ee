"""Command-line interface: ``python -m repro``.

Mirrors the original tool's workflow — a case file in the paper's input
format goes in, the analysis verdict and attack vector come out::

    python -m repro analyze --case 5bus-study1
    python -m repro analyze --input my_case.txt --target 5 --with-states
    python -m repro analyze --case ieee57 --analyzer fast
    python -m repro maximize --case 5bus-study1 --tolerance 1/8
    python -m repro defend --case 5bus-study1 --target 3
    python -m repro opf --case 5bus-study1
    python -m repro sweep --cases 5bus-study1,5bus-study2 --targets 1,2,3,4
    python -m repro serve --port 8734 --workers 2
    python -m repro cases
"""

from __future__ import annotations

import argparse
import contextlib
import os
import signal
import sys
from fractions import Fraction
from typing import List, Optional, Sequence

from repro.core import ImpactQuery
from repro.estimation import MeasurementPlan
from repro.exceptions import InputFormatError, ModelError
from repro.grid import parse_case
from repro.grid.caseio import CaseDefinition
from repro.grid.cases import case_names, get_case
from repro.opf import solve_dc_opf

#: dedicated exit codes for preflight rejections (``analyze``/``opf``):
#: structurally malformed input vs. well-formed but degenerate case.
EXIT_INVALID_INPUT = 3
EXIT_DEGENERATE_CASE = 4
#: ``sweep``/``coordinate`` was interrupted (SIGINT/SIGTERM) after
#: checkpointing the completed cells; re-running the same command
#: resumes.  A signal that lands while a finished sweep is still
#: reporting exits this way too: every cell is already checkpointed.
EXIT_INTERRUPTED = 5
#: the guarded linear-algebra layer refused to return an unverified
#: result (``analyze``/``maximize``): the verdict is *withheld*, not
#: unsat — distinct from exit 1 so scripts never read a numeric refusal
#: as a proven absence of attacks.
EXIT_NUMERICAL_UNSTABLE = 6


def _load_case(args) -> CaseDefinition:
    if args.input:
        with open(args.input) as handle:
            return parse_case(handle.read(), name=args.input)
    if args.case:
        return get_case(args.case)
    raise SystemExit("either --case <name> or --input <file> is required")


def _cmd_cases(_args) -> int:
    for name in case_names():
        case = get_case(name)
        print(f"{name:14} {case.num_buses:4} buses {case.num_lines:4} "
              f"lines {len(case.generators):3} generators")
    return 0


def _parse_failure(args, exc: InputFormatError) -> int:
    from repro.runner.engine import parse_failure_report
    subject = args.input or args.case or "case"
    print(parse_failure_report(subject, exc).render(), file=sys.stderr)
    return EXIT_INVALID_INPUT


def _cmd_opf(args) -> int:
    try:
        case = _load_case(args)
    except InputFormatError as exc:
        return _parse_failure(args, exc)
    grid = case.build_grid()
    result = solve_dc_opf(grid, method=args.method)
    if not result.feasible:
        print("OPF infeasible")
        return 1
    print(f"optimal cost: {float(result.cost):.2f}")
    for bus, power in sorted(result.dispatch.items()):
        print(f"  generator at bus {bus}: {float(power):.4f} p.u.")
    if result.binding_lines:
        print(f"binding line limits: {result.binding_lines}")
    return 0


def _cmd_analyze(args) -> int:
    try:
        case = _load_case(args)
    except InputFormatError as exc:
        return _parse_failure(args, exc)
    from repro.runner.engine import build_analyzer
    from repro.runner.spec import resolve_analyzer
    target = None if args.target is None \
        else _fraction_arg(args.target, "--target")
    query = ImpactQuery(target_increase_percent=target,
                        with_state_infection=args.with_states,
                        verify_with_smt_opf=args.verify_smt,
                        seed=args.seed,
                        self_check=True if args.self_check else None)
    analyzer = build_analyzer(case, resolve_analyzer(args.analyzer, case))
    try:
        analyzer.validate_query(query)
    except ModelError as exc:
        raise SystemExit(f"analyze: {exc}")
    report = analyzer.analyze(query)

    plan = None
    if not report.is_rejected:
        try:
            plan = MeasurementPlan.from_case(case)
        except Exception:
            # Rendering must not crash on a case whose measurement plan
            # cannot be built; the report stands on its own.
            plan = None
    text = report.render(plan)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text + "\n")
        print(f"report written to {args.output}")
    else:
        print(text)
    return _status_exit(report.status, report.satisfiable)


def _status_exit(status: str, attack_found: bool) -> int:
    """``analyze``/``maximize`` exit code: a verdict-less status has its
    own code; otherwise 0 when an attack was found, 1 when not."""
    from repro.runner.trace import CERTIFICATE_ERROR, DEGENERATE_CASE, \
        INVALID_INPUT, NUMERICAL_UNSTABLE
    return {CERTIFICATE_ERROR: 2,
            INVALID_INPUT: EXIT_INVALID_INPUT,
            DEGENERATE_CASE: EXIT_DEGENERATE_CASE,
            NUMERICAL_UNSTABLE: EXIT_NUMERICAL_UNSTABLE,
            }.get(status, 0 if attack_found else 1)


def _fraction_arg(value, flag: str) -> Fraction:
    """Exact rational parsing for CLI bounds (no float round-trip)."""
    try:
        return Fraction(value)
    except (ValueError, ZeroDivisionError):
        raise SystemExit(f"{flag}: {value!r} is not a number or fraction "
                         f"(try e.g. 3, 2.5 or 9/2)")


def _cli_budget(args):
    """The budget of a subcommand's budget flags, None when none is set.

    A flag set to 0 is a budget of 0, not an unset flag; a subcommand
    without ``--max-pivots`` simply has no pivot limit.
    """
    limits = {"wall_seconds": args.timeout,
              "max_conflicts": args.max_conflicts,
              "max_decisions": args.max_decisions,
              "max_pivots": getattr(args, "max_pivots", None)}
    if all(value is None for value in limits.values()):
        return None
    from repro.smt import SolverBudget
    return SolverBudget(**limits)


def _cmd_maximize(args) -> int:
    try:
        case = _load_case(args)
    except InputFormatError as exc:
        return _parse_failure(args, exc)
    from repro.runner.engine import build_analyzer
    from repro.runner.spec import resolve_analyzer
    from repro.search import MaxImpactSearch

    kind = resolve_analyzer(args.analyzer, case)
    query = ImpactQuery(with_state_infection=args.with_states,
                        seed=args.seed, budget=_cli_budget(args),
                        self_check=True if args.self_check else None)
    try:
        search = MaxImpactSearch(
            build_analyzer(case, kind), query=query,
            tolerance=_fraction_arg(args.tolerance, "--tolerance"),
            lo=_fraction_arg(args.lo, "--lo"),
            hi_cap=_fraction_arg(args.hi_cap, "--hi-cap"))
    except ModelError as exc:
        raise SystemExit(str(exc))
    result = search.run()

    if args.json:
        import json
        print(json.dumps(result.to_dict(), indent=1))
    else:
        warmth = "fast" if kind == "fast" else "warm"
        print(f"case {case.name}: maximum-impact bisection "
              f"({kind} analyzer, {warmth}, tolerance "
              f"{result.tolerance}%)")
        if result.is_rejected:
            if result.diagnostics is not None:
                print(result.diagnostics.render())
        elif result.satisfiable:
            istar = result.max_increase_percent
            upper = "cap" if result.upper_bound is None \
                else f"{result.upper_bound}%"
            print(f"  I* = {istar}% (= {float(istar):.4f}%), "
                  f"bracket [{result.lower_bound}%, {upper})")
            if result.witness_cost is not None:
                print(f"  witness: excluded lines "
                      f"{list(result.witness.excluded)}, altered "
                      f"measurements "
                      f"{list(result.witness.altered_measurements)}, "
                      f"believed cost {float(result.witness_cost):.2f} "
                      f"(base {float(result.base_cost):.2f})")
        else:
            anchor = result.upper_bound
            print(f"  no attack achieves the bracket anchor "
                  f"({anchor}%): I* < {anchor}%")
        if result.verdict_basis is not None:
            print(f"  verdict basis: {result.verdict_basis}")
        if result.status == "budget_exhausted":
            lo = "?" if result.lower_bound is None else result.lower_bound
            hi = "?" if result.upper_bound is None else result.upper_bound
            print(f"  PARTIAL: {result.budget_reason}; bracket so far "
                  f"[{lo}%, {hi}%)")
        if result.status == "certificate_error":
            print(f"  CERTIFICATE ERROR: {result.certificate_error}")
        certified = {True: "all probes certified", False: "NOT certified",
                     None: "self-check off"}[result.certified]
        print(f"  {result.solve_at_calls} solve_at calls "
              f"({result.warm_solves} warm), "
              f"{result.encodings_built} encoding(s) built, "
              f"{result.solver_calls} solver calls, "
              f"{result.elapsed_seconds:.3f}s; {certified}")
    return _status_exit(result.status,
                        result.is_definitive and result.satisfiable)


def _cmd_defend(args) -> int:
    try:
        case = _load_case(args)
    except InputFormatError as exc:
        return _parse_failure(args, exc)
    from repro.defense import (
        DefensePlanner,
        SecureLineStatus,
        SecureMeasurement,
        TightenBudgets,
        default_candidates,
    )

    target = None if args.target is None \
        else _fraction_arg(args.target, "--target")
    planner = DefensePlanner(
        case, ImpactQuery(target_increase_percent=target, seed=args.seed,
                          budget=_cli_budget(args),
                          self_check=True if args.self_check else None),
        analyzer=args.analyzer)

    candidates = []
    for line in args.secure_line or ():
        candidates.append(SecureLineStatus(line))
    for index in args.secure_measurement or ():
        candidates.append(SecureMeasurement(index))
    for pair in args.budget or ():
        try:
            measurements, buses = (int(v) for v in pair.split(",", 1))
        except ValueError:
            raise SystemExit(f"--budget: {pair!r} is not "
                             f"MEASUREMENTS,BUSES")
        candidates.append(TightenBudgets(measurements, buses))
    if not candidates:
        candidates = default_candidates(case)
    plan = planner.plan(candidates)

    if args.json:
        import json
        print(json.dumps(plan.to_dict(), indent=1))
    else:
        print(f"case {case.name}: defense planning at "
              f"{plan.target_increase_percent}% target "
              f"({plan.analyzer} analyzer, {len(candidates)} candidate "
              f"countermeasure(s))")
        if plan.status == "already_secure":
            print("  already secure: no attack reaches the target "
                  "undefended")
        elif plan.status == "blocked":
            print(f"  1-minimal blocking set "
                  f"({len(plan.selected)} countermeasure(s)):")
            for measure in plan.selected:
                print(f"    - {measure.label}")
        elif plan.status == "unblockable":
            print("  UNBLOCKABLE: the attack survives all candidate "
                  "countermeasures together")
        else:
            last = plan.probes[-1] if plan.probes else {}
            print(f"  INCONCLUSIVE: probe '{last.get('defense')}' ended "
                  f"with status {last.get('status')!r}")
        print(f"  {len(plan.probes)} probes, {plan.sessions_built} "
              f"session(s) built, {plan.sessions_reused} reused warm, "
              f"{plan.elapsed_seconds:.3f}s")
    if plan.status == "inconclusive":
        return 2
    return 0 if plan.blocked else 1


def _cmd_fuzz(args) -> int:
    from repro.testing.fuzz import fuzz_bundled_case
    report = fuzz_bundled_case(
        args.case, seed=args.seed, iterations=args.iterations,
        analyzer=args.analyzer, max_mutations=args.max_mutations,
        time_limit=args.time_limit)
    print(report.render())
    return 0 if report.ok else 1


def _grid_specs(args) -> List:
    """The (case × scenario × target) grid a sweep/coordinate run names.

    Shared by ``sweep`` and ``coordinate`` so the distributed fabric
    and the single-machine engine plan byte-identical grids from the
    same command-line arguments (the differential chaos tests depend
    on this).
    """
    from repro.runner.spec import ScenarioSpec, scenario_seeds

    names = [name.strip() for name in args.cases.split(",")
             if name.strip()]
    if not names:
        raise SystemExit("--cases must name at least one bundled case")
    targets: List[Optional[str]] = [None]
    if args.targets:
        targets = [t.strip() for t in args.targets.split(",")
                   if t.strip()]
    seeds: List[Optional[int]] = [None]
    if args.scenarios:
        seeds = list(scenario_seeds(args.scenarios))

    tolerance = None
    if args.tolerance is not None:
        if args.search != "maximize":
            raise SystemExit("--tolerance requires --search maximize")
        tolerance = str(_fraction_arg(args.tolerance, "--tolerance"))

    specs = []
    for name in names:
        for seed in seeds:
            for target in targets:
                try:
                    specs.append(ScenarioSpec.build(
                        name, analyzer=args.analyzer, attacker_seed=seed,
                        target=target,
                        with_state_infection=args.with_states,
                        state_samples=args.state_samples,
                        sample_seed=args.seed,
                        search=args.search, tolerance=tolerance))
                except (ValueError, ZeroDivisionError):
                    raise SystemExit(
                        f"--targets: {target!r} is not a number or "
                        f"fraction (try e.g. 3, 2.5 or 9/2)")
    return specs


def format_table(title: str, headers: Sequence[str],
                 rows: Sequence[Sequence]) -> str:
    """A plain ASCII table with a title bar."""
    columns = len(headers)
    cells = [[str(h) for h in headers]]
    for row in rows:
        cells.append([_fmt(v) for v in row])
    widths = [max(len(r[c]) for r in cells) for c in range(columns)]

    def line(row):
        return " | ".join(v.ljust(w) for v, w in zip(row, widths))

    bar = "-+-".join("-" * w for w in widths)
    out = [f"== {title} ==", line(cells[0]), bar]
    out.extend(line(r) for r in cells[1:])
    return "\n".join(out)


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


def _print_sweep_results(sweep, cell_count: int,
                         trace_path: Optional[str]) -> None:
    """Render a finished sweep/fabric run (table, totals, failures)."""
    rows = []
    for outcome in sweep.outcomes:
        increase = outcome.achieved_increase_percent
        shown = "-" if increase is None else f"{increase:.2f}%"
        if outcome.max_impact is not None:
            istar = outcome.max_impact.get("max_increase_percent")
            if istar is not None:
                shown = f"I*={float(Fraction(istar)):.3f}%"
        rows.append((
            outcome.spec.label,
            outcome.verdict,
            shown,
            outcome.candidates_examined,
            outcome.solver_calls,
            f"{outcome.analysis_seconds:.3f}",
            "hit" if outcome.cache_hit else "miss",
        ))
    workers = sweep.workers
    print(format_table(
        f"sweep — {cell_count} scenarios, {sweep.mode} "
        f"({workers} worker{'s' if workers != 1 else ''})",
        ("scenario", "verdict", "increase", "candidates", "smt calls",
         "time (s)", "cache"),
        rows))
    totals = sweep.to_dict()["totals"]
    print(f"wall time      : {sweep.wall_seconds:.3f}s "
          f"(sum of analyses: {totals['analysis_seconds']:.3f}s)")
    print(f"cache          : {sweep.cache_hits}/{cell_count} hits"
          + (f" under {sweep.cache_dir}" if sweep.cache_dir else
             " (disabled)"))
    if totals.get("encodings_built"):
        print(f"encodings      : {totals['encodings_built']} built "
              f"({totals['encode_seconds']:.3f}s encode)")
    if totals.get("max_impact_cells"):
        print(f"max impact     : {totals['max_impact_cells']} cell(s) "
              f"bisected to I* (bounds in the trace's max_impact "
              f"payloads)")
    if totals["certificate_errors"] or totals["certified"]:
        print(f"certificates   : {totals['certified']} verified, "
              f"{totals['certificate_errors']} rejected")
    if sweep.cache_rejected:
        print(f"cache rejected : {sweep.cache_rejected} stale/corrupt "
              f"entr{'y' if sweep.cache_rejected == 1 else 'ies'} "
              f"recomputed")
    if totals["invalid_input"] or totals["degenerate_case"]:
        print(f"preflight      : {totals['invalid_input']} invalid "
              f"input(s), {totals['degenerate_case']} degenerate "
              f"case(s) rejected before analysis")
    if totals.get("numerical_unstable"):
        print(f"numerics       : {totals['numerical_unstable']} cell(s) "
              f"degraded to numerical_unstable (verdict withheld; see "
              f"the trace diagnostics)")
    if trace_path:
        path = sweep.write(trace_path)
        print(f"trace written  : {path}")
    for outcome in sweep.failures:
        print(f"FAILED {outcome.spec.label}: {outcome.status} "
              f"({outcome.error})")


def _strict_failures(sweep, self_check: bool) -> int:
    """Count the non-definitive outcomes ``--strict`` refuses."""
    from repro.runner.trace import OK
    return len([
        o for o in sweep.outcomes
        if o.status != OK or o.cache_write_error is not None
        or (self_check and o.certified is not True)])


@contextlib.contextmanager
def _sigterm_interrupts():
    """Make SIGTERM raise ``KeyboardInterrupt`` until the block exits.

    The handler stays installed through result reporting, so a SIGTERM
    at any point inside the block takes the interrupt path instead of
    killing the process.  It fires once: a second SIGTERM while the
    first is being handled is ignored.
    """
    def _terminate(signum, frame):
        signal.signal(signal.SIGTERM, signal.SIG_IGN)
        raise KeyboardInterrupt

    try:
        previous = signal.signal(signal.SIGTERM, _terminate)
    except ValueError:
        previous = None  # not the main thread (embedded use): no swap
    try:
        yield
    finally:
        if previous is not None:
            signal.signal(signal.SIGTERM, previous)


def _sweep_exit(sweep, cell_count: int, args) -> int:
    """Print a finished sweep's results; its exit code."""
    _print_sweep_results(sweep, cell_count, args.trace)
    if args.strict:
        # --strict: any non-definitive cell — error, unknown, a rejected
        # certificate, a rejected *input* (invalid/degenerate), a failed
        # cache write, or (under --self-check) a cell that somehow
        # skipped certification — fails the sweep hard.
        strict_bad = _strict_failures(sweep, args.self_check)
        if strict_bad:
            print(f"STRICT: {strict_bad} non-definitive outcome(s)")
            return 2
    return 1 if sweep.failures else 0


def _cmd_sweep(args) -> int:
    from repro.runner import ResultCache, SweepConfig, SweepEngine

    specs = _grid_specs(args)
    cache_dir = None if args.no_cache else args.cache_dir
    if args.clear_cache and cache_dir:
        removed = ResultCache(cache_dir).clear()
        print(f"cleared {removed} cached result(s) from {cache_dir}")
    engine = SweepEngine(SweepConfig(
        workers=args.workers, retries=args.retries, cache_dir=cache_dir,
        use_cache=cache_dir is not None, budget=_cli_budget(args),
        self_check=True if args.self_check else None))

    # SIGTERM behaves like SIGINT: every completed cell was checkpointed
    # as it finished (by the supervised workers in parallel mode), the
    # engine stops its workers, and we exit with the resumable code.
    mode = "serial" if args.workers <= 1 else f"{args.workers} workers"
    with _sigterm_interrupts():
        try:
            print(f"sweep: {len(specs)} scenario(s) queued ({mode})",
                  flush=True)
            return _sweep_exit(engine.run(specs), len(specs), args)
        except KeyboardInterrupt:
            where = f" under {cache_dir}" if cache_dir else \
                " (cache disabled: nothing persisted)"
            print(f"sweep interrupted: completed cells are "
                  f"checkpointed{where}; re-run the same command to "
                  f"resume from the cache", file=sys.stderr)
            return EXIT_INTERRUPTED


def _cmd_coordinate(args) -> int:
    import subprocess
    import time

    from repro.fabric import Coordinator, CoordinatorConfig, FabricError

    specs = _grid_specs(args)
    cache_dir = None if args.no_cache else args.cache_dir
    budget = _cli_budget(args)
    config = CoordinatorConfig(
        host=args.host, port=args.port, journal_path=args.journal,
        lease_ttl=args.lease_ttl, steal_after=args.steal_after,
        retry_budget=args.retry_budget, unit_cells=args.unit_cells,
        cache_dir=cache_dir,
        budget_limits=None if budget is None else budget.to_dict(),
        self_check=True if args.self_check else None)
    coordinator = Coordinator(specs, config, verbose=args.verbose)
    started = time.monotonic()
    try:
        coordinator.start()
    except FabricError as exc:
        print(f"coordinate: {exc}", file=sys.stderr)
        return 2
    status = coordinator.status()
    resumed = " (resumed from journal)" if status["resumed"] else ""
    procs = []
    with _sigterm_interrupts():
        try:
            print(f"repro coordinate listening on {coordinator.url}"
                  f"{resumed}")
            print(f"grid: {status['cells_total']} cell(s), "
                  f"{status['cells_resolved_at_plan']} already resolved "
                  f"({status['cache_hits']} cache, "
                  f"{status['journal_recovered']} journal), "
                  f"{status['units']} unit(s) to lease; journal "
                  f"{args.journal}", flush=True)
            for _ in range(args.spawn):
                command = [sys.executable, "-m", "repro", "worker",
                           "--connect", f"{coordinator.address[0]}:"
                                        f"{coordinator.address[1]}"]
                if cache_dir:
                    command += ["--cache-dir", cache_dir]
                else:
                    command += ["--no-cache"]
                procs.append(subprocess.Popen(command))
            coordinator.wait()
            # Grid done: give spawned workers a moment to observe
            # done=true and exit 0 before the lease endpoint disappears.
            for proc in procs:
                try:
                    proc.wait(timeout=10.0)
                except subprocess.TimeoutExpired:
                    proc.terminate()
            sweep = coordinator.trace(time.monotonic() - started,
                                      workers=args.spawn)
            coordinator.shutdown()
            return _sweep_exit(sweep, len(specs), args)
        except KeyboardInterrupt:
            coordinator.shutdown()
            for proc in procs:
                proc.terminate()
            print(f"coordinate interrupted: committed cells are journaled "
                  f"in {args.journal}; re-run the same command to resume "
                  f"the fleet", file=sys.stderr)
            return EXIT_INTERRUPTED


def _cmd_worker(args) -> int:
    from repro.fabric import FabricWorker, WorkerConfig
    from repro.service.client import ServiceClient, ServiceUnavailable

    host, _, port = args.connect.rpartition(":")
    if not host or not port.isdigit():
        raise SystemExit("--connect must be HOST:PORT")
    base_url = f"http://{host}:{port}"
    try:
        ServiceClient(base_url, retries=0).wait_ready(
            timeout=args.connect_timeout)
    except ServiceUnavailable:
        print(f"worker: no coordinator ready at {base_url} within "
              f"{args.connect_timeout:.0f}s", file=sys.stderr)
        return 2
    config = WorkerConfig(
        worker_id=args.id or "",
        cache_dir=None if args.no_cache else args.cache_dir)
    worker = FabricWorker(base_url, config)
    code = worker.run()
    stats = worker.stats()
    reason = "grid done" if code == 0 else "coordinator gone"
    print(f"worker {stats['worker']}: {reason} — {stats['units']} "
          f"unit(s), {stats['cells']} cell(s), {stats['duplicates']} "
          f"duplicate commit(s), {stats['cache_hits']} cache hit(s)")
    return code


def _cmd_cache(args) -> int:
    from repro.runner import ResultCache

    cache = ResultCache(args.cache_dir)
    if args.action == "prune":
        report = cache.prune()
        print(f"cache prune under {args.cache_dir}: "
              f"{report['scanned']} scanned, {report['kept']} kept, "
              f"{report['removed']} stale/corrupt removed, "
              f"{report['reclaimed_bytes']} bytes reclaimed")
        return 0
    removed = cache.clear()
    print(f"cleared {removed} cached result(s) from {args.cache_dir}")
    return 0


def _cmd_serve(args) -> int:
    from repro.service import ServiceConfig, ServiceServer

    config = ServiceConfig(
        workers=args.workers,
        queue_limit=args.queue_limit,
        request_timeout=args.request_timeout,
        retry_limit=args.retry_limit,
        session_limit=args.session_limit,
        cache_dir=None if args.no_cache else args.cache_dir,
        self_check=True if args.self_check else None,
        drain_timeout=args.drain_timeout)
    try:
        server = ServiceServer(host=args.host, port=args.port,
                               config=config, verbose=args.verbose)
    except ValueError as exc:
        raise SystemExit(f"serve: {exc}")
    server.supervisor.start()

    def _graceful(signum, frame):
        # Runs on the serve_forever thread: flip to draining (new
        # submissions shed with 503) and stop the accept loop from a
        # side thread — BaseServer.shutdown() would deadlock here.
        server.request_stop()

    previous = {}
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            previous[signum] = signal.signal(signum, _graceful)
        except ValueError:
            pass
    host, port = server.address
    print(f"repro serve listening on http://{host}:{port} "
          f"({config.workers} worker(s), queue limit "
          f"{config.queue_limit})")
    sys.stdout.flush()
    try:
        server.serve_forever()     # returns after request_stop()
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)
    drained = server.supervisor.drain(config.drain_timeout)
    server.shutdown()
    if drained:
        print("drained cleanly: all accepted requests completed")
        return 0
    print("drain timed out: some in-flight work was abandoned",
          file=sys.stderr)
    return 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Impact analysis of stealthy topology poisoning "
                    "attacks on Optimal Power Flow (ICDCS 2014 "
                    "reproduction)")
    sub = parser.add_subparsers(dest="command", required=True)

    cases = sub.add_parser("cases", help="list the bundled test systems")
    cases.set_defaults(func=_cmd_cases)

    def add_case_args(p):
        p.add_argument("--case", help="bundled case name (see `cases`)")
        p.add_argument("--input",
                       help="case file in the paper's input format")

    opf = sub.add_parser("opf", help="solve the attack-free OPF")
    add_case_args(opf)
    opf.add_argument("--method", choices=("exact", "highs"),
                     default="exact")
    opf.set_defaults(func=_cmd_opf)

    analyze = sub.add_parser(
        "analyze", help="search for a stealthy attack with the target "
                        "OPF-cost impact")
    add_case_args(analyze)
    analyze.add_argument("--target",
                         help="minimum cost increase in percent, as an "
                              "exact fraction (default: the case's "
                              "value)")
    analyze.add_argument("--with-states", action="store_true",
                         help="allow UFDI state infection "
                              "(paper Section III-D)")
    analyze.add_argument("--analyzer", choices=("auto", "smt", "fast"),
                         default="auto",
                         help="auto picks SMT up to 14 buses, the "
                              "LODF/LCDF fast analyzer (single-line "
                              "attacks) above")
    analyze.add_argument("--verify-smt", action="store_true",
                         help="confirm the verdict with the SMT OPF "
                              "model (paper Eq. 37/38; SMT analyzer "
                              "only)")
    analyze.add_argument("--seed", type=int, default=0,
                         help="seed for the fast analyzer's sampling")
    analyze.add_argument("--output", help="write the report to a file "
                                          "(the paper's output file)")
    analyze.add_argument("--self-check", action="store_true",
                         help="certified mode: independently verify "
                              "every SAT model and UNSAT proof before "
                              "reporting (exit 2 on a rejected "
                              "certificate); REPRO_SELF_CHECK=1 does "
                              "the same")
    analyze.set_defaults(func=_cmd_analyze)

    maximize = sub.add_parser(
        "maximize", help="bisect to the maximum achievable cost-increase "
                         "I* (warm incremental re-solves)")
    add_case_args(maximize)
    maximize.add_argument("--analyzer", choices=("auto", "smt", "fast"),
                          default="auto",
                          help="auto picks SMT up to 14 buses, fast "
                               "above")
    maximize.add_argument("--tolerance", default="1/8",
                          help="bisection tolerance in percent points, "
                               "as an exact fraction (default 1/8)")
    maximize.add_argument("--lo", default="0",
                          help="bracket anchor: the impact the search "
                               "starts from (default 0)")
    maximize.add_argument("--hi-cap", default="64",
                          help="upper cap of the galloping phase "
                               "(default 64)")
    maximize.add_argument("--with-states", action="store_true",
                          help="allow UFDI state infection")
    maximize.add_argument("--seed", type=int, default=0,
                          help="seed for the fast analyzer's sampling")
    maximize.add_argument("--timeout", type=float, default=None,
                          help="wall-clock budget over the whole search; "
                               "on exhaustion the partial bracket is "
                               "reported (exit 1)")
    maximize.add_argument("--max-conflicts", type=int, default=None,
                          help="SAT conflict budget over the whole "
                               "search")
    maximize.add_argument("--max-decisions", type=int, default=None,
                          help="SAT decision budget over the whole "
                               "search")
    maximize.add_argument("--self-check", action="store_true",
                          help="certified mode: the SAT witness at I* "
                               "and the UNSAT proof above it are both "
                               "independently verified")
    maximize.add_argument("--json", action="store_true",
                          help="emit the full MaxImpactResult as JSON")
    maximize.set_defaults(func=_cmd_maximize)

    defend = sub.add_parser(
        "defend", help="find a 1-minimal countermeasure set that makes "
                       "the impact target unsatisfiable")
    add_case_args(defend)
    defend.add_argument("--target",
                        help="impact target in percent (default: the "
                             "case's value)")
    defend.add_argument("--analyzer", choices=("auto", "smt", "fast"),
                        default="auto")
    defend.add_argument("--secure-line", type=int, action="append",
                        help="candidate: secure this line's status "
                             "channel (repeatable)")
    defend.add_argument("--secure-measurement", type=int,
                        action="append",
                        help="candidate: integrity-protect this "
                             "measurement (repeatable)")
    defend.add_argument("--budget", action="append",
                        metavar="MEASUREMENTS,BUSES",
                        help="candidate: tighten the attacker resource "
                             "budgets (repeatable)")
    defend.add_argument("--seed", type=int, default=0,
                        help="seed for the fast analyzer's sampling")
    defend.add_argument("--timeout", type=float, default=None,
                        help="wall-clock budget per probe")
    defend.add_argument("--max-conflicts", type=int, default=None)
    defend.add_argument("--max-decisions", type=int, default=None)
    defend.add_argument("--self-check", action="store_true",
                        help="certified mode: every kill-confirmation "
                             "UNSAT proof is independently verified")
    defend.add_argument("--json", action="store_true",
                        help="emit the DefensePlan as JSON")
    defend.set_defaults(func=_cmd_defend)

    fuzz = sub.add_parser(
        "fuzz", help="drive seeded case mutants (corrupted text or "
                     "ill-conditioned numbers) through the analyze "
                     "path; exit 1 if any escapes as an uncaught "
                     "exception or the float and exact verdicts "
                     "silently disagree")
    fuzz.add_argument("--case", default="5bus-study1",
                      help="bundled case to mutate (default: "
                           "5bus-study1)")
    fuzz.add_argument("--iterations", type=int, default=200,
                      help="number of mutants to generate (default 200)")
    fuzz.add_argument("--seed", type=int, default=0,
                      help="mutation seed; (case, seed, max mutations, "
                           "iteration) fully determines each mutant")
    fuzz.add_argument("--analyzer", choices=("fast", "smt"),
                      default="fast")
    fuzz.add_argument("--max-mutations", type=int, default=3,
                      help="max mutations applied per mutant")
    fuzz.add_argument("--time-limit", type=float, default=None,
                      help="abort (exit 1) if the run exceeds this many "
                           "seconds")
    fuzz.set_defaults(func=_cmd_fuzz)

    def add_grid_args(p, trace_default):
        """Grid + budget + cache options shared by sweep/coordinate."""
        p.add_argument("--cases", required=True,
                       help="comma-separated bundled case names")
        p.add_argument("--targets",
                       help="comma-separated impact targets in percent "
                            "(default: each case's own value)")
        p.add_argument("--scenarios", type=int, default=0,
                       help="number of randomized attacker scenarios "
                            "per cell (0: the case as-is)")
        p.add_argument("--with-states", action="store_true",
                       help="allow UFDI state infection")
        p.add_argument("--analyzer",
                       choices=("auto", "smt", "fast"), default="auto",
                       help="auto picks SMT up to 14 buses, fast above")
        p.add_argument("--timeout", type=float, default=None,
                       help="per-task wall-clock budget in seconds, "
                            "enforced inside the solvers; exhausted "
                            "tasks are recorded as 'unknown'")
        p.add_argument("--max-conflicts", type=int, default=None,
                       help="per-task SAT conflict budget")
        p.add_argument("--max-decisions", type=int, default=None,
                       help="per-task SAT decision budget")
        p.add_argument("--max-pivots", type=int, default=None,
                       help="per-task simplex pivot budget")
        p.add_argument("--cache-dir", default=".repro-cache",
                       help="result-cache directory")
        p.add_argument("--no-cache", action="store_true",
                       help="bypass the result cache entirely")
        p.add_argument("--trace", default=trace_default,
                       help="write the per-sweep trace JSON here "
                            "('' disables)")
        p.add_argument("--search", choices=("decision", "maximize"),
                       default="decision",
                       help="maximize bisects every cell to its "
                            "maximum achievable I* (targets become "
                            "bracket anchors) on the same warm "
                            "sessions")
        p.add_argument("--tolerance", default=None,
                       help="bisection tolerance for --search "
                            "maximize, as an exact fraction "
                            "(default 1/8)")
        p.add_argument("--state-samples", type=int, default=24)
        p.add_argument("--seed", type=int, default=0,
                       help="fast-analyzer sampling seed")
        p.add_argument("--self-check", action="store_true",
                       help="certified mode for every cell: answers "
                            "are verified against independent "
                            "certificates and cache hits must be "
                            "certified; REPRO_SELF_CHECK=1 does the "
                            "same")
        p.add_argument("--strict", action="store_true",
                       help="exit 2 when any cell is non-definitive "
                            "(error/unknown/timeout/crashed/"
                            "certificate_error/invalid_input/"
                            "degenerate_case/numerical_unstable, or a "
                            "failed cache write)")

    sweep = sub.add_parser(
        "sweep", help="run a (case × target × scenario) grid on the "
                      "parallel sweep engine with result caching")
    add_grid_args(sweep, trace_default="sweep-trace.json")
    sweep.add_argument("--workers", type=int,
                       default=min(4, os.cpu_count() or 1),
                       help="worker processes (default: min(4, cpus))")
    sweep.add_argument("--retries", type=int, default=1,
                       help="re-dispatches after a worker crash or hang")
    sweep.add_argument("--clear-cache", action="store_true",
                       help="drop cached results before running")
    sweep.set_defaults(func=_cmd_sweep)

    coordinate = sub.add_parser(
        "coordinate", help="serve the same grid to a fleet of "
                           "`repro worker` processes over a durable, "
                           "crash-recoverable work queue")
    add_grid_args(coordinate, trace_default="")
    coordinate.add_argument("--host", default="127.0.0.1")
    coordinate.add_argument("--port", type=int, default=0,
                            help="listen port (default 0 picks a free "
                                 "one; the bound address is printed on "
                                 "startup)")
    coordinate.add_argument("--journal",
                            default="fabric-journal.jsonl",
                            help="append-only lease/commit journal; if "
                                 "it already exists the run resumes "
                                 "from it (same grid required)")
    coordinate.add_argument("--spawn", type=int, default=0,
                            help="also launch this many local worker "
                                 "subprocesses")
    coordinate.add_argument("--lease-ttl", type=float, default=15.0,
                            help="seconds a lease survives without a "
                                 "heartbeat before its unit is "
                                 "re-dispatched (default 15)")
    coordinate.add_argument("--steal-after", type=float, default=30.0,
                            help="seconds a heartbeating unit may run "
                                 "before an idle worker gets a "
                                 "speculative copy (default 30)")
    coordinate.add_argument("--retry-budget", type=int, default=3,
                            help="lease expiries tolerated per unit "
                                 "before it is marked failed "
                                 "(default 3)")
    coordinate.add_argument("--unit-cells", type=int, default=8,
                            help="max grid cells per leased unit "
                                 "(bounds lease duration; default 8)")
    coordinate.add_argument("--verbose", action="store_true",
                            help="log every HTTP request to stderr")
    coordinate.set_defaults(func=_cmd_coordinate)

    worker = sub.add_parser(
        "worker", help="lease, compute and commit sweep units from a "
                       "`repro coordinate` endpoint until the grid is "
                       "done (exit 0) or the coordinator dies (exit 2)")
    worker.add_argument("--connect", required=True, metavar="HOST:PORT",
                        help="coordinator address")
    worker.add_argument("--id", default=None,
                        help="worker id (default: hostname-pid)")
    worker.add_argument("--connect-timeout", type=float, default=10.0,
                        help="seconds to wait for the coordinator's "
                             "readiness probe (default 10)")
    worker.add_argument("--cache-dir", default=".repro-cache",
                        help="shared result-cache directory")
    worker.add_argument("--no-cache", action="store_true",
                        help="work without the shared result cache")
    worker.set_defaults(func=_cmd_worker)

    cache = sub.add_parser(
        "cache", help="maintain the on-disk result cache")
    cache.add_argument("action", choices=("prune", "clear"),
                       help="prune drops stale-format and corrupt "
                            "entries and reports reclaimed bytes; "
                            "clear drops everything")
    cache.add_argument("--cache-dir", default=".repro-cache",
                       help="result-cache directory")
    cache.set_defaults(func=_cmd_cache)

    serve = sub.add_parser(
        "serve", help="run the fault-tolerant analysis service "
                      "(supervised warm-session workers behind an "
                      "HTTP/JSON acceptor)")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8734,
                       help="listen port (0 picks a free one; the "
                            "bound address is printed on startup)")
    serve.add_argument("--workers", type=int, default=2,
                       help="supervised worker processes (default 2)")
    serve.add_argument("--queue-limit", type=int, default=16,
                       help="max queued+in-flight requests before "
                            "shedding with 429 (default 16)")
    serve.add_argument("--request-timeout", type=float, default=60.0,
                       help="default per-request deadline in seconds; "
                            "requests may set a tighter "
                            "deadline_seconds (default 60)")
    serve.add_argument("--retry-limit", type=int, default=1,
                       help="re-dispatches after a worker failure "
                            "before the request fails with 503 "
                            "(default 1)")
    serve.add_argument("--session-limit", type=int, default=8,
                       help="warm sessions kept per worker (LRU; "
                            "default 8)")
    serve.add_argument("--cache-dir", default=".repro-cache",
                       help="shared result-cache directory")
    serve.add_argument("--no-cache", action="store_true",
                       help="serve without the shared result cache")
    serve.add_argument("--self-check", action="store_true",
                       help="certified mode for every request")
    serve.add_argument("--drain-timeout", type=float, default=30.0,
                       help="seconds SIGTERM waits for in-flight work "
                            "before giving up (exit 1)")
    serve.add_argument("--verbose", action="store_true",
                       help="log every HTTP request to stderr")
    serve.set_defaults(func=_cmd_serve)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
