"""Benchmark of the horoflex command line and library; see README.md."""
