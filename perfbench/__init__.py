"""Benchmark harness for splineprod; run it with ``python3 perfbench/run.py``."""
