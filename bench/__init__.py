"""Benchmark harness for the sweep / replay / swap / persistence stack.

See ``bench/README.md``; the entry point is ``python3 bench/run.py``.
"""
