"""Regenerate ``perfbench/reference.json``: every cell any seed can draw.

    python3 perfbench/make_reference.py

Cells come from the workloads' own generators run over many seeds, so the
pools in ``cells.py`` are the only place the reachable inputs are
defined.  Answers already in the file are kept, entries no seed can reach
are dropped, and each missing answer is computed serially in-process and
must be ``ok`` (and certified where the cell asks for it) before it is
recorded.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import cells as cellmod  # noqa: E402
from perfbench import reference, workloads  # noqa: E402

#: seeds scanned per workload; the pools are small, so this reaches
#: every pooled combination.
SCAN_SEEDS = 2000


def reachable() -> dict:
    found = {}
    for workload in cellmod.WORKLOADS:
        for seed in range(SCAN_SEEDS):
            for cell in cellmod.cells_for(workload, seed):
                found.setdefault(reference.result_key(cell), cell)
    return found


def main() -> int:
    known = reference.load()
    cells = reachable()
    print(f"{len(cells)} reachable cells, {len(set(cells) & set(known))} "
          f"already answered", flush=True)
    entries = {}
    opf_inputs = {}
    for key, cell in cells.items():
        if key in known:
            entries[key] = known[key]
            continue
        if cell.opf_check and cell.opf_check[0] not in opf_inputs:
            opf_inputs[cell.opf_check[0]] = workloads.prepare_opf(
                cell.opf_check[0])
        started = time.perf_counter()
        outcome = workloads.run_cell(cell, opf_inputs)
        problem = reference.check(None, outcome, cell.certify)
        if problem != "no reference answer":
            print(f"  {cell.id}: {problem}", file=sys.stderr)
            return 1
        entries[key] = reference.expected_entry(reference.result_kind(cell),
                                                outcome)
        print(f"  {cell.id}  {time.perf_counter() - started:.2f} s",
              flush=True)
    reference.save(entries)
    return 0


if __name__ == "__main__":
    sys.exit(main())
