"""Benchmark of the ap3lab CLI; see README.md."""
