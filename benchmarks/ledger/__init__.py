"""The whole-stack perf ledger: the benchmark ``BENCHMARK.json`` names.

Five workloads (three co-simulations, a ``serve`` daemon, a 3-node
``cluster`` ring), five end-to-end metrics measured from outside the
program with tracing off, and a separate traced pass that attributes host
time to layers by wrapping their functions from this package's own files.
See ``README.md`` beside this file for why each workload exists and how to
run, trace and compare.
"""
