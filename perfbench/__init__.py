"""End-to-end and per-layer benchmark of the APT reproduction.

Run one workload with ``python3 perfbench/run.py --workload <name>
--seed <n> --seconds <s> --trace <0|1>`` from the repository root; the
last line of standard output is the JSON result.  ``BENCHMARK.json``
names the workloads and metrics, ``perfbench/METRICS.md`` says what each
one measures and which layer should move it.
"""
