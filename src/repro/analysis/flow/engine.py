"""The deep rule family: summaries → call graph → taint → SIM2xx findings.

:class:`DeepFamily` is one of the three families
:func:`repro.analysis.simlint.run_lint` runs over its one pass of the
files; the pipeline, not the family, filters pragmas, subtracts the
baseline and counts findings per rule.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Optional, Tuple

from ..rules import Violation
from .callgraph import build_callgraph
from .parser import SourceFile, SummaryCache
from .rules import DEEP_RULES, DeepConfig, deep_violations
from .summaries import summarize_module
from .taint import TaintAnalysis

__all__ = ["DeepFamily"]


class DeepFamily:
    """SIM2xx over every module, from the ``summaries.json`` document."""

    def __init__(self, config: Optional[DeepConfig], cache_dir: Optional[Path]) -> None:
        self.config = config or DeepConfig()
        self.cache = SummaryCache(cache_dir)

    def visit(self, src: SourceFile) -> None:
        self.cache.load(src, summarize_module)

    def finish(self) -> Tuple[List[Violation], Dict[str, int]]:
        self.cache.save()
        modules = self.cache.loaded
        graph = build_callgraph(modules)
        raw = deep_violations(modules, graph, TaintAnalysis(graph), self.config)
        stats = {
            "modules": len(modules),
            "functions": sum(len(f["functions"]) for f in modules.values()),
            "call_edges": graph.edge_count(),
            "cache_hits": self.cache.hits,
            "cache_misses": self.cache.misses,
        }
        stats.update({f"rule:{rule}": 0 for rule in DEEP_RULES})
        return raw, stats

