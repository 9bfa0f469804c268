"""The repository benchmark: socket-level workloads, end-to-end metrics
and an outside-in layer trace.  See ``bench/README.md``."""
