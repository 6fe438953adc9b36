"""End-to-end + per-layer benchmark for time-to-scored-topology.

See ``benchmarks/perf/README.md``; the entry point is ``run.py``.
"""
