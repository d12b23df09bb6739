"""Benchmark of skyrelay: seeded workloads, output checks, per-layer spans.

Run `python3 perfbench/run.py --help`; see perfbench/README.md.
"""
