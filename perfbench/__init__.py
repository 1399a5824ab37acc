"""Benchmark of the repo; entry point ``perfbench/run.py``."""
