"""End-to-end benchmark of the SCT toolkit (see ``sctbench/README.md``).

Run one workload with ``python3 sctbench/run.py --workload NAME --seed N
--seconds S --trace 0|1`` from the repository root.
"""
