"""The benchmark's measuring process (started by ``perfbench/run.py``).

Prints ``READY`` once set-up is done (the parent times set-up from the
moment it started this process to that line), then runs the workload and
prints one JSON line with the measurements, the reference check and the
run's environment.  With ``--setup-only`` it stops after ``READY``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import layers, reference, workloads  # noqa: E402
from perfbench.stats import Tally  # noqa: E402
from perfbench.tracing import Tracer, cost_per_span  # noqa: E402


def check_outcomes(passes, extra_problems) -> "tuple[Tally, int]":
    """Reference-check every outcome; missing references are computed
    here, serially in-process, outside every timed region."""
    entries = reference.load()
    computed = 0
    tally = Tally()
    opf_inputs = {}
    for result in passes:
        for query_id, cell, outcome in result.outcomes:
            key = reference.result_key(cell)
            if key not in entries:
                if cell.opf_check and cell.opf_check[0] not in opf_inputs:
                    opf_inputs[cell.opf_check[0]] = workloads.prepare_opf(
                        cell.opf_check[0])
                expected = workloads.run_cell(cell, opf_inputs)
                problem = reference.check(None, expected, cell.certify) \
                    if expected.get("status") != "ok" else None
                entries[key] = None if problem else reference.expected_entry(
                    reference.result_kind(cell), expected)
                computed += 1
            problem = reference.check(entries[key], outcome, cell.certify)
            tally.record(query_id, problem or result.problems.get(query_id))
    for query_id, problem in extra_problems:
        tally.record(query_id, problem)
    return tally, computed


def environment() -> dict:
    import numpy
    import scipy

    from repro.runner import code_fingerprint
    return {"nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "code_fingerprint": code_fingerprint()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scratch", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    workload = workloads.make(args.workload, args.seed, Path(args.scratch))
    finished = False
    try:
        workload.setup()
        print("READY", flush=True)
        passes = []
        traced = spans = None
        started = time.perf_counter()
        while not args.setup_only and (
                not passes or time.perf_counter() - started < args.seconds):
            passes.append(workload.run_pass(len(passes), None))
        if args.trace and not args.setup_only:
            if isinstance(workload, workloads.Serve):
                # The service's layers run in its worker processes: the
                # traced pass is the measured pass plus /stats, so there
                # is nothing to patch here and no overhead to add.
                traced = passes[-1]
            else:
                tracer = Tracer()
                layers.install(tracer)
                try:
                    traced = workload.run_pass(len(passes), tracer)
                finally:
                    tracer.restore()
                spans = tracer.spans
        finished = True
    finally:
        drain_problems = workload.close() if finished else []
        if not finished and isinstance(workload, workloads.Serve):
            workload.kill()
    if args.setup_only:
        # No result to count it in: a failed drain fails the process.
        return 1 if drain_problems else 0

    checked = passes + ([traced] if spans is not None else [])
    tally, computed = check_outcomes(checked, drain_problems)
    metrics = {name: statistics.median([p.metrics[name] for p in passes])
               for name in passes[0].metrics}
    result = {
        "workload": args.workload, "seed": args.seed,
        "passes": len(passes), "metrics": metrics,
        "counts": passes[-1].counts, "observed": passes[-1].observed,
        "attempted": tally.attempted, "failed": tally.failed,
        "problems": tally.problems(), "references_computed": computed,
        "environment": environment(),
    }
    if traced is not None:
        # Set-up ran one warm-up query, so both passes are equally warm.
        overhead = traced.metrics["wall_s"] - passes[-1].metrics["wall_s"]
        result["layers"] = layers.combine(
            None if spans is None else layers.from_spans(spans),
            dict(traced.layers), {"trace.overhead_s": overhead})
        result["traced_wall_s"] = traced.metrics["wall_s"]
        if spans is not None:
            result["span_table"] = layers.span_table(spans)
            result["span_cost_s"] = cost_per_span()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
