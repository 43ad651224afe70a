"""The repo benchmark: workloads, tracing and the run command (see README.md)."""
