"""The repository's single performance benchmark (see ``perfbench/README.md``).

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` runs one workload against the real ``repro.cli
serve-cluster`` deployment or the offline ``repro.engine`` and prints one
JSON result object as its last line.
"""
