"""Correctness tooling for the co-simulator.

Two complementary halves:

* :mod:`repro.analysis.simlint` — the lint pipeline (:func:`run_lint`)
  and its classic SIM1xx family: AST rules that flag simulation-
  correctness hazards (unseeded randomness, wall-clock reads in
  simulated-time paths, mutable default arguments, iteration over
  unordered sets in event-ordering code, and bare ``assert`` statements
  that vanish under ``python -O``).  Run it with ``python -m repro lint``.
* :mod:`repro.analysis.flow` — the interprocedural deep family (SIM2xx):
  whole-program call graph, per-function dataflow summaries cached by
  content hash, nondeterminism taint, await-atomicity, fork-safety,
  unit-confusion, and resource-lifecycle rules.  ``python -m repro lint
  --deep`` adds it; :mod:`repro.analysis.arrays` is the SIM3xx kernel
  family (``--kernels``).
* :mod:`repro.analysis.invariants` — a runtime invariant checker the
  :class:`~repro.core.cosim.CoSimulator` can install: message conservation
  per synchronization quantum, monotonic simulated time, and NoC
  credit/VC conservation.  Enable it with ``--check-invariants`` on the
  harness CLI or ``build_cosim(config, check_invariants=True)``.

Both exist because the paper's headline numbers are only reproducible if
every run is bit-deterministic and every quantum exchange conserves
messages; these tools make violations loud instead of silent.
"""

from .flow import DEEP_RULES, DeepConfig, render_sarif
from .invariants import (
    InvariantChecker,
    check_network_invariants,
)
from .simlint import (
    RULES,
    LintConfig,
    LintReport,
    Violation,
    lint_file,
    lint_paths,
    render_json,
    render_report,
    run_lint,
)

__all__ = [
    "DEEP_RULES",
    "RULES",
    "DeepConfig",
    "LintConfig",
    "LintReport",
    "Violation",
    "lint_file",
    "lint_paths",
    "render_json",
    "render_report",
    "render_sarif",
    "run_lint",
    "InvariantChecker",
    "check_network_invariants",
]
