"""The repository benchmark: three workloads timed end to end and per layer.

``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
runs one workload once; ``python3 perfbench/run.py --all`` runs every
workload untraced and traced and writes one result file.  See
``perfbench/README.md`` for the workloads, the metrics and how to compare
two result files.
"""
