"""End-to-end benchmark of the four execution paths (see ``LAYERS.md``).

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>``
runs one workload; ``python3 perfbench/steady.py`` checks run-to-run spread.
"""
