"""The repository's end-to-end benchmark (see ``perfbench/METRICS.md``).

``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
builds the indexes from generated XML, runs one seeded workload with one
closed-loop client, checks every answer and prints the metrics as one
JSON line.
"""
