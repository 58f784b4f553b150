"""Benchmark harness for factorwidth: workloads, tracing and metrics."""
