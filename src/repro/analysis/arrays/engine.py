"""Driver for the kernel pass: contracts → interp → callgraph → findings.

Mirrors :mod:`repro.analysis.flow.engine` and shares its machinery: the
content-hashed :class:`~repro.analysis.flow.parser.SummaryCache` (with
its own ``arrays.json`` document whose stamp folds in the contract
registry fingerprint, so editing a layout contract invalidates cached
facts), the flow call graph (for resolving helper calls — its
``summaries.json`` document is the same one ``lint --deep`` warms), the
``# simlint: allow[...]`` pragma filter, and the suppression baseline.
"""

from __future__ import annotations

import hashlib
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from ..simlint import default_lint_root
from .contracts import ContractRegistry, build_registry
from .interp import ARRAYS_FACTS_VERSION, extract_kernel_module
from .rules import ARRAY_RULES, ArraysConfig, array_violations

__all__ = ["kernels_lint_paths", "run_kernels"]

_ARRAYS_CACHE_FILENAME = "arrays.json"
_ARRAYS_CACHE_SCHEMA = 1


def _arrays_stamp(registry: ContractRegistry) -> str:
    return (
        f"{_ARRAYS_CACHE_SCHEMA}.{ARRAYS_FACTS_VERSION}."
        f"{registry.fingerprint()}"
    )


def _kernel_files(
    roots: Sequence[Path], config: ArraysConfig
) -> List[Tuple[Path, str]]:
    from ..flow.parser import collect_files

    return [
        (path, rel)
        for path, rel in collect_files(roots)
        if config.analyzes(rel)
    ]


def _flow_facts(
    files: Sequence[Tuple[Path, str]],
    shas: Dict[str, str],
    cache_dir: Optional[Path],
) -> Dict[str, Dict]:
    """Flow summaries for the kernel files, via the shared flow cache.

    Uses lookup/store but never prunes: the ``summaries.json`` document
    also backs full-tree ``--deep`` runs, and a kernels-only pass must
    not evict their entries.
    """
    from ..flow.parser import SummaryCache
    from ..flow.summaries import extract_module

    cache = SummaryCache(cache_dir)
    facts: Dict[str, Dict] = {}
    for path, rel in files:
        sha = shas.get(rel)
        if sha is None:
            continue
        hit, cached = cache.lookup(rel, sha)
        if not hit:
            try:
                source = path.read_text(encoding="utf-8")
            except OSError:
                continue
            cached = extract_module(rel, source)
            cache.store(rel, sha, cached)
        if cached is not None:
            facts[rel] = cached
    cache.save()
    return facts


def kernels_lint_paths(
    roots: Sequence[Path],
    config: Optional[ArraysConfig] = None,
    cache_dir: Optional[Path] = None,
):
    """Run only the SIM3xx rules over the kernel modules under ``roots``."""
    from ..flow.callgraph import build_callgraph
    from ..flow.engine import DeepReport, _filter_pragmas
    from ..flow.parser import SummaryCache

    config = config or ArraysConfig()
    roots = [Path(r) for r in roots] or [default_lint_root()]
    files = _kernel_files(roots, config)
    registry = build_registry(files)
    cache = SummaryCache(
        cache_dir,
        filename=_ARRAYS_CACHE_FILENAME,
        stamp=_arrays_stamp(registry),
    )

    modules: Dict[str, Dict] = {}
    sources: Dict[str, Path] = {}
    shas: Dict[str, str] = {}
    unparsed: List[str] = []
    for path, rel in files:
        try:
            raw = path.read_bytes()
        except OSError:
            unparsed.append(rel)
            continue
        sha = hashlib.sha256(raw).hexdigest()
        shas[rel] = sha
        hit, facts = cache.lookup(rel, sha)
        if not hit:
            facts = extract_kernel_module(
                rel, raw.decode("utf-8", errors="replace"), registry
            )
            cache.store(rel, sha, facts)
        sources[rel] = path
        if facts is None:
            unparsed.append(rel)
        else:
            modules[rel] = facts
    cache.prune(list(shas))
    cache.save()

    needs_graph = any(
        call.get("args") and any(call["args"])
        for facts in modules.values()
        for fn in facts["functions"].values()
        for call in fn["calls"]
    ) and any(
        fn["dim_loops"]
        for facts in modules.values()
        for fn in facts["functions"].values()
    )
    graph = None
    if needs_graph:
        flow_facts = _flow_facts(files, shas, cache_dir)
        if flow_facts:
            graph = build_callgraph(flow_facts)

    raw_violations = array_violations(modules, graph, registry, config)
    kept = _filter_pragmas(raw_violations, sources)

    per_rule = {rule: 0 for rule in ARRAY_RULES}
    for v in kept:
        per_rule[v.rule] = per_rule.get(v.rule, 0) + 1
    stats = {
        "kernel_modules": len(modules),
        "kernel_functions": sum(
            len(f["functions"]) for f in modules.values()
        ),
        "contracts": len(registry.contracts),
        "dtype_bounds": len(registry.dtype_bounds),
        "derived_tables": sum(
            spec.derived
            for contract in registry.contracts.values()
            for spec in contract.fields.values()
        ),
        # pre-baseline and pragma-proof on purpose: an unsighted table is
        # a hole in the analysis, not a finding to be suppressed
        "undeclared_fields": sum(
            ":undeclared-field:" in v.context for v in raw_violations
        ),
        "kernel_cache_hits": cache.hits,
        "kernel_cache_misses": cache.misses,
    }
    stats.update({f"rule:{r}": n for r, n in per_rule.items()})
    return DeepReport(violations=kept, stats=stats)


def run_kernels(
    roots: Sequence[Path],
    config: Optional[ArraysConfig] = None,
    cache_dir: Optional[Path] = None,
    baseline_path: Optional[Path] = None,
):
    """The full ``lint --kernels`` pipeline: SIM3xx + baseline subtract."""
    from ..flow.baseline import apply_baseline, load_baseline

    report = kernels_lint_paths(roots, config, cache_dir)
    baseline = load_baseline(baseline_path) if baseline_path else {}
    kept, suppressed = apply_baseline(report.violations, baseline)
    report.violations = kept
    report.suppressed = suppressed
    report.stats["suppressed"] = suppressed
    return report
