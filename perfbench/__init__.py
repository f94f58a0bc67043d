"""Benchmark of the jackvar library; see perfbench/README.md."""
