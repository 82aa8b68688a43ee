"""Sparse vs. auto backend on the repository benchmark's fast cells.

Evidence for deciding whether the dense production backend can go: every
fast-analyzer cell of the ``perfbench`` workloads (``fast``, ``sweep-2w``
and the ``ieee30`` cells of ``serve-2c``) runs serially in this process
twice — once as written (``backend`` unset: ``auto``, which is dense
below 300 buses) and once with ``backend="sparse"`` — and each outcome is
checked against the committed reference answer with
``perfbench.reference.check``.  Prints one JSON object per workload:
cells checked, cells matching the reference per backend, the differing
fields of any mismatch, and the wall seconds per backend.

    PYTHONPATH=src:. python benchmarks/sparse_backend_cells.py --seed 0
"""

from __future__ import annotations

import argparse
import json
import time

from perfbench import cells as cellmod
from perfbench import reference
from repro.runner import ScenarioSpec, execute_scenario
from repro.runner.trace import deterministic_outcome_view

BACKENDS = (None, "sparse")


def _fast_cells(workload: str, seed: int):
    return [cell for cell in cellmod.cells_for(workload, seed)
            if cell.opf_check is None
            and reference.result_kind(cell) == "fast"]


def _run(cells, backend):
    outcomes, started = [], time.perf_counter()
    for cell in cells:
        spec = ScenarioSpec.build(**dict(cell.spec, backend=backend))
        outcomes.append(execute_scenario(spec, "").to_dict())
    return outcomes, time.perf_counter() - started


def compare(workload: str, seed: int):
    entries = reference.load()
    cells = _fast_cells(workload, seed)
    report = {"workload": workload, "seed": seed, "cells": len(cells)}
    runs = {}
    for backend in BACKENDS:
        name = backend or "auto"
        outcomes, seconds = _run(cells, backend)
        runs[name] = outcomes
        report[f"{name}_seconds"] = round(seconds, 2)
        report[f"{name}_matching"] = sum(
            reference.check(entries.get(reference.result_key(cell)),
                            outcome, cell.certify) is None
            for cell, outcome in zip(cells, outcomes))
    differing = {}
    for cell, auto, sparse in zip(cells, runs["auto"], runs["sparse"]):
        auto_view = deterministic_outcome_view(auto)
        sparse_view = deterministic_outcome_view(sparse)
        fields = sorted(key for key in auto_view
                        if key not in ("spec", "fingerprint")
                        and auto_view[key] != sparse_view.get(key))
        if fields:
            differing[cell.id] = {key: [auto_view[key], sparse_view[key]]
                                  for key in fields}
    report["differing"] = differing
    return report


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workload", action="append",
                        choices=("fast", "sweep-2w", "serve-2c"))
    args = parser.parse_args()
    for workload in args.workload or ("sweep-2w", "serve-2c", "fast"):
        print(json.dumps(compare(workload, args.seed)), flush=True)


if __name__ == "__main__":
    main()
