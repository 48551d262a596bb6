"""``repro.analysis.flow`` — interprocedural concurrency & determinism
analysis (the SIM2xx deep rule family).

Pipeline: :mod:`.summaries` extracts per-function dataflow facts in one
AST pass per module (cached by content hash in :mod:`.parser`);
:mod:`.callgraph` links them into a whole-program call graph;
:mod:`.taint` runs the SIM201 nondeterminism fixpoint; :mod:`.rules`
interprets the facts as findings under a :class:`DeepConfig`;
:mod:`.engine` is the family :func:`repro.analysis.simlint.run_lint`
runs; :mod:`.sarif` and :mod:`.baseline` handle interchange and
suppression.
"""

from .baseline import (
    apply_baseline,
    fingerprint_all,
    load_baseline,
    write_baseline,
)
from .callgraph import CallGraph, build_callgraph
from .parser import ModuleSet, SourceFile, SummaryCache, collect_files, load_modules
from .rules import DEEP_RULES, DeepConfig, deep_violations
from .sarif import render_sarif
from .summaries import extract_module
from .taint import TaintAnalysis

__all__ = [
    "DEEP_RULES",
    "CallGraph",
    "DeepConfig",
    "ModuleSet",
    "SourceFile",
    "SummaryCache",
    "TaintAnalysis",
    "apply_baseline",
    "build_callgraph",
    "collect_files",
    "deep_violations",
    "extract_module",
    "fingerprint_all",
    "load_baseline",
    "load_modules",
    "render_sarif",
    "write_baseline",
]
