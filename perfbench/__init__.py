"""Serving benchmark: end-to-end metrics and a per-layer breakdown.

``perfbench/run.py`` is the entry point; ``BENCHMARK.json`` at the
repository root declares its workloads and metrics.
"""
