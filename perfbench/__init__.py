"""Benchmark of the conetheta kernel: seeded workloads, output checks and an
outside-in tracer.  Run it with ``python3 perfbench/run.py --workload NAME``."""
