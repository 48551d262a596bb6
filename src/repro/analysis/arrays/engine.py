"""The kernel rule family: contracts → interp → call graph → SIM3xx findings.

:class:`KernelFamily` is one of the three families
:func:`repro.analysis.simlint.run_lint` runs over its one pass of the
files.  Its facts live in their own ``arrays.json`` document of the
summary cache, whose stamp folds in the contract registry fingerprint,
so editing a layout contract invalidates cached facts.  Helper calls are
resolved through the flow call graph of the kernel modules.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from ..flow.callgraph import build_callgraph
from ..flow.parser import SourceFile, SummaryCache
from ..flow.summaries import summarize_module
from ..rules import Violation
from .contracts import build_registry
from .interp import ARRAYS_FACTS_VERSION, extract_kernel_module
from .rules import ARRAY_RULES, ArraysConfig, array_violations

__all__ = ["KernelFamily"]

_ARRAYS_CACHE_FILENAME = "arrays.json"
_ARRAYS_CACHE_SCHEMA = 1


class KernelFamily:
    """SIM3xx over the modules ``config.analyzes``.

    ``flow`` is the deep family's summary cache when it runs in the same
    pass; otherwise this family reads ``summaries.json`` for the kernel
    modules itself, and never prunes it: the document also backs
    full-tree ``--deep`` runs.
    """

    def __init__(
        self,
        config: Optional[ArraysConfig],
        cache_dir: Optional[Path],
        files: Sequence[SourceFile],
        flow: Optional[SummaryCache] = None,
    ) -> None:
        self.config = config or ArraysConfig()
        self.registry = build_registry([src for src in files if self.config.analyzes(src.rel)])
        stamp = f"{_ARRAYS_CACHE_SCHEMA}.{ARRAYS_FACTS_VERSION}.{self.registry.fingerprint()}"
        self.cache = SummaryCache(cache_dir, filename=_ARRAYS_CACHE_FILENAME, stamp=stamp)
        self.own_flow = flow is None
        self.flow = SummaryCache(cache_dir) if flow is None else flow

    def _extract(self, rel: str, tree) -> Dict:
        return extract_kernel_module(tree, self.registry)

    def visit(self, src: SourceFile) -> None:
        if self.config.analyzes(src.rel):
            self.cache.load(src, self._extract)
            if self.own_flow:
                self.flow.load(src, summarize_module)

    def finish(self) -> Tuple[List[Violation], Dict[str, int]]:
        self.cache.save()
        if self.own_flow:
            self.flow.save(prune=False)
        modules = self.cache.loaded
        linked = {rel: self.flow.loaded[rel] for rel in modules if rel in self.flow.loaded}
        graph = build_callgraph(linked) if linked else None
        registry = self.registry
        raw = array_violations(modules, graph, registry, self.config)
        stats = {
            "kernel_modules": len(modules),
            "kernel_functions": sum(len(f["functions"]) for f in modules.values()),
            "contracts": len(registry.contracts),
            "dtype_bounds": len(registry.dtype_bounds),
            "derived_tables": sum(
                spec.derived
                for contract in registry.contracts.values()
                for spec in contract.fields.values()
            ),
            # pre-baseline and pragma-proof on purpose: an unsighted table is
            # a hole in the analysis, not a finding to be suppressed
            "undeclared_fields": sum(":undeclared-field:" in v.context for v in raw),
            "kernel_cache_hits": self.cache.hits,
            "kernel_cache_misses": self.cache.misses,
        }
        stats.update({f"rule:{rule}": 0 for rule in ARRAY_RULES})
        return raw, stats

