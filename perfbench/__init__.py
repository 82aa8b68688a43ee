"""The repository benchmark: four workloads, end-to-end and per-layer metrics.

Run ``python3 perfbench/run.py --workload exact --seed 0 --seconds 5
--trace 0`` from the repository root; see ``perfbench/README.md``.
"""
