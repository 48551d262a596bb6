"""``simlint`` — the lint pipeline and its classic (SIM1xx) rule family.

:func:`run_lint` is the one entry point behind ``python -m repro lint``.  It
collects the files under its roots once (each read, hashed and parsed at
most once), runs the chosen rule families over them —

* **classic** (SIM1xx): the single-file AST rules of
  :mod:`repro.analysis.rules`;
* **deep** (SIM2xx): the interprocedural rules of
  :mod:`repro.analysis.flow`;
* **kernels** (SIM3xx): the array-semantics rules of
  :mod:`repro.analysis.arrays` —

then drops findings excused by an inline ``# simlint: allow[rule-name]``
(or ``allow[*]``) comment on the offending line, sorts, and subtracts
the suppression baseline.  Each family also honours its own per-rule
path allowlist, e.g. wall-clock reads in ``harness/`` where profiling
host time is the whole point.  The CLI exits non-zero when any finding
survives, which is what CI gates on.
"""

from __future__ import annotations

import json
import re
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from .flow.baseline import apply_baseline, load_baseline
from .flow.parser import SourceFile, collect_files
from .rules import RULES, SimLintVisitor, Violation, path_matches

__all__ = [
    "RULES",
    "LintConfig",
    "LintReport",
    "Violation",
    "lint_file",
    "lint_paths",
    "render_json",
    "render_report",
    "render_stats",
    "run_lint",
]

_PRAGMA = re.compile(r"#\s*simlint:\s*allow\[([\w\-*,\s]+)\]")


def _default_allow_paths() -> Dict[str, Tuple[str, ...]]:
    # The harness measures host time by design (speed experiments, CLI
    # stopwatch), and the campaign worker pool is the one sanctioned home
    # of host-clock reads in the campaign package (job durations, timeout
    # deadlines — time.monotonic only).  The serve daemon lives in
    # wall-clock reality end to end (Retry-After hints, service-time
    # quantiles, drain grace), and its accept/scheduler loops are
    # event-driven rather than cycle-bounded, so serve/* is the scoped
    # home of both hazards.  Everything else must account for wall-clock
    # reads or unbounded loops with an inline pragma.
    return {
        "wall-clock": (
            "harness/*",
            "campaign/pool.py",
            "serve/*",
            # chaos injects host-level faults (slow-commit delays, audit
            # round deadlines) — wall-clock is its subject matter.
            "chaos/*",
            # cluster liveness (gossip sweeps, lent-job re-admit deadlines)
            # is a wall-clock question by nature.
            "cluster/*",
        ),
        "unbounded-loop": ("serve/*", "chaos/*", "cluster/*"),
    }


@dataclass
class LintConfig:
    """What to check and what to excuse.

    Args:
        enabled: rule names to run (default: all of :data:`RULES`).
        allow_paths: rule name -> glob patterns (matched against the
            posix path relative to the lint root) that are exempt.
        event_ordering_paths: glob patterns for files where iteration
            order is simulation-visible; the unordered-iteration rule
            only applies there.
        unbounded_loop_paths: glob patterns for simulation-kernel files
            where every ``while`` loop must provably terminate or fail
            loudly; the unbounded-loop rule only applies there.
    """

    enabled: Tuple[str, ...] = tuple(RULES)
    allow_paths: Dict[str, Tuple[str, ...]] = field(
        default_factory=_default_allow_paths
    )
    event_ordering_paths: Tuple[str, ...] = (
        "core/*",
        "noc/*",
        "noc_gpu/*",
        "engine/*",
        "fullsys/*",
        "abstractnet/*",
        "dram/*",
    )
    unbounded_loop_paths: Tuple[str, ...] = (
        "core/*",
        "noc/*",
        "serve/*",
        "cluster/*",
    )


def _pragma_allows(line: str, rule: str) -> bool:
    match = _PRAGMA.search(line)
    if match is None:
        return False
    allowed = {token.strip() for token in match.group(1).split(",")}
    return "*" in allowed or rule in allowed


def _excused(violation: Violation, files: Dict[str, SourceFile]) -> bool:
    """An inline pragma on the finding's line excuses it.

    A file that does not parse cannot excuse itself.
    """
    src = files.get(violation.path)
    if src is None or violation.rule == "parse-error":
        return False
    lines = src.lines
    line = lines[violation.line - 1] if 0 < violation.line <= len(lines) else ""
    return _pragma_allows(line, violation.rule)


class ClassicFamily:
    """SIM1xx: the single-file AST rules, run on every file's tree."""

    def __init__(self, config: Optional[LintConfig]) -> None:
        self.config = config or LintConfig()
        self.found: List[Violation] = []

    def visit(self, src: SourceFile) -> None:
        parsed, rel, config = src.parsed, src.rel, self.config
        if isinstance(parsed, SyntaxError):
            self.found.append(Violation(
                rel,
                parsed.lineno or 0,
                (parsed.offset or 0) or 1,
                "parse-error",
                f"cannot parse: {parsed.msg}",
            ))
        elif parsed is not None:
            visitor = SimLintVisitor(
                rel,
                event_ordering=path_matches(rel, config.event_ordering_paths),
                enabled={
                    rule
                    for rule in config.enabled
                    if not path_matches(rel, config.allow_paths.get(rule, ()))
                },
                unbounded_loops=path_matches(rel, config.unbounded_loop_paths),
            )
            visitor.visit(parsed)
            self.found.extend(visitor.violations)

    def finish(self) -> Tuple[List[Violation], Dict[str, int]]:
        return self.found, {}


@dataclass
class LintReport:
    """Surviving findings, the baselined count, and per-family telemetry."""

    violations: List[Violation] = field(default_factory=list)
    suppressed: int = 0
    stats: Dict[str, int] = field(default_factory=dict)


def run_lint(
    roots: Sequence[Path],
    families: Sequence[str] = ("classic",),
    *,
    classic_config: Optional[LintConfig] = None,
    deep_config=None,
    kernels_config=None,
    cache_dir: Optional[Path] = None,
    baseline_path: Optional[Path] = None,
) -> LintReport:
    """Run the ``families`` (of classic, deep, kernels) over ``roots``.

    One pass over the files: each family visits each file in turn, so a
    tree is parsed at most once and dropped before the next file.
    ``stats`` carries each family's coverage and cache counters and a
    ``rule:<name>`` count per rule of the findings the pragmas left
    (before the baseline); the deep and kernel families list their
    rules even at zero.  ``cache_dir=None`` disables the summary cache;
    without ``baseline_path`` nothing is subtracted.
    """
    files = collect_files(roots)
    runs: list = []
    if "classic" in families:
        runs.append(ClassicFamily(classic_config))
    deep = None
    if "deep" in families:
        from .flow.engine import DeepFamily

        deep = DeepFamily(deep_config, cache_dir)
        runs.append(deep)
    if "kernels" in families:
        from .arrays.engine import KernelFamily

        runs.append(KernelFamily(kernels_config, cache_dir, files, deep.cache if deep else None))
    for src in files:
        for run in runs:
            run.visit(src)
        src.release()

    raw: List[Violation] = []
    stats: Dict[str, int] = {}
    for run in runs:
        found, family_stats = run.finish()
        raw.extend(found)
        stats.update(family_stats)
    by_rel = {src.rel: src for src in files}
    kept = [v for v in raw if not _excused(v, by_rel)]
    for v in kept:
        stats[f"rule:{v.rule}"] = stats.get(f"rule:{v.rule}", 0) + 1
    kept.sort(key=lambda v: (v.path, v.line, v.col, v.rule))
    baseline = load_baseline(baseline_path) if baseline_path else {}
    kept, suppressed = apply_baseline(kept, baseline)
    stats["suppressed"] = suppressed
    return LintReport(violations=kept, suppressed=suppressed, stats=stats)


def lint_paths(
    roots: Sequence[Path], config: Optional[LintConfig] = None
) -> List[Violation]:
    """The classic family over every ``*.py`` under each root (files too)."""
    return run_lint(roots, classic_config=config).violations


def lint_file(path: Path, config: Optional[LintConfig] = None) -> List[Violation]:
    """The classic family over one file, reported under its name."""
    return lint_paths([path], config)


def render_json(violations: Sequence[Violation]) -> str:
    """Machine-readable report: a JSON document CI turns into per-file
    annotations (see ``scripts/lint_annotations.py``)."""
    payload = {
        "ok": not violations,
        "count": len(violations),
        "violations": [
            {
                "path": v.path,
                "line": v.line,
                "col": v.col,
                "end_line": v.end_line,
                "end_col": v.end_col,
                "code": v.code,
                "rule": v.rule,
                "message": v.message,
            }
            for v in violations
        ],
    }
    return json.dumps(payload, indent=2)


def render_report(violations: Sequence[Violation]) -> str:
    """Human-readable report: one line per finding plus a per-rule tally."""
    if not violations:
        return "simlint: clean"
    lines = [v.render() for v in violations]
    tally = Counter(v.rule for v in violations)
    summary = ", ".join(
        f"{count} {rule}" for rule, count in sorted(tally.items())
    )
    lines.append(f"simlint: {len(violations)} finding(s) ({summary})")
    return "\n".join(lines)


def render_stats(report: LintReport, families: Sequence[str]) -> str:
    """``--stats``: coverage of each family run and findings per rule."""
    stats = report.stats

    def n(key: str) -> int:
        return stats.get(key, 0)

    passes = " ".join(f"--{family}" for family in families if family != "classic")
    lines = [f"simlint {passes} statistics"]
    if "deep" in families:
        lines += [
            f"  modules analyzed : {n('modules')}",
            f"  functions        : {n('functions')}",
            f"  call edges       : {n('call_edges')}",
            f"  summary cache    : {n('cache_hits')} hit(s), {n('cache_misses')} miss(es)",
        ]
    if "kernels" in families:
        lines += [
            f"  kernel modules   : {n('kernel_modules')} ({n('kernel_functions')} function(s))",
            f"  shape contracts  : {n('contracts')} ({n('dtype_bounds')} bounded dtype(s))",
            f"  derived tables   : {n('derived_tables')} declared, "
            f"{n('undeclared_fields')} undeclared field(s) indexed",
            f"  kernel cache     : "
            f"{n('kernel_cache_hits')} hit(s), {n('kernel_cache_misses')} miss(es)",
        ]
    lines.append(f"  baseline         : {report.suppressed} suppressed")
    lines.append("  findings by rule (pre-baseline):")
    rules = sorted(key for key in stats if key.startswith("rule:"))
    lines += [f"    {key[len('rule:'):]:<24} {stats[key]}" for key in rules] or ["    (none)"]
    return "\n".join(lines)


def default_lint_root() -> Path:
    """The installed ``repro`` package tree (what CI lints)."""
    return Path(__file__).resolve().parent.parent
