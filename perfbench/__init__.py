"""Benchmark of the divexp package: seeded workloads, oracle checks, spans."""
