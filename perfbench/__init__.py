"""Benchmark for t2tbio; run it with ``python3 perfbench/run.py --help``."""
