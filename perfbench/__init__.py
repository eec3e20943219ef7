"""End-to-end synthesis benchmark: four workloads, per-layer attribution.

``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
from the repository root; see :mod:`perfbench.run`.
"""
