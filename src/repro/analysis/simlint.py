"""``simlint`` — the driver for the simulation-correctness lint pass.

Walks a tree of Python sources, runs the AST rules in
:mod:`repro.analysis.rules` over each file, and filters findings through
two allowlist mechanisms:

* **path allowlist** — per-rule glob patterns (relative to the lint root)
  for files whose use of a hazard is by design, e.g. wall-clock reads in
  ``harness/`` where profiling host time is the whole point;
* **inline pragma** — a ``# simlint: allow[rule-name]`` (or
  ``allow[*]``) comment on the offending line excuses that line only,
  for surgical exceptions such as the co-simulator's own wall-clock
  split accounting.

Run it as ``python -m repro lint`` (optionally ``--path DIR``); it exits
non-zero when any violation survives filtering, which is what CI gates
on.
"""

from __future__ import annotations

import ast
import fnmatch
import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .rules import RULES, SimLintVisitor, Violation

__all__ = [
    "RULES",
    "LintConfig",
    "Violation",
    "lint_file",
    "lint_paths",
    "render_json",
    "render_report",
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


def _matches(relpath: str, patterns: Iterable[str]) -> bool:
    return any(fnmatch.fnmatch(relpath, p) for p in patterns)


def _pragma_allows(line: str, rule: str) -> bool:
    match = _PRAGMA.search(line)
    if match is None:
        return False
    allowed = {token.strip() for token in match.group(1).split(",")}
    return "*" in allowed or rule in allowed


def lint_file(
    path: Path,
    relpath: Optional[str] = None,
    config: Optional[LintConfig] = None,
) -> List[Violation]:
    """Run every enabled rule over one file; returns surviving findings."""
    config = config or LintConfig()
    rel = (relpath or path.name).replace("\\", "/")
    source = path.read_text(encoding="utf-8")
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as exc:
        return [
            Violation(
                rel,
                exc.lineno or 0,
                (exc.offset or 0) or 1,
                "parse-error",
                f"cannot parse: {exc.msg}",
            )
        ]
    lines = source.splitlines()

    enabled = {
        rule
        for rule in config.enabled
        if not _matches(rel, config.allow_paths.get(rule, ()))
    }
    visitor = SimLintVisitor(
        rel,
        event_ordering=_matches(rel, config.event_ordering_paths),
        enabled=enabled,
        unbounded_loops=_matches(rel, config.unbounded_loop_paths),
    )
    visitor.visit(tree)

    kept = []
    for violation in visitor.violations:
        line = lines[violation.line - 1] if 0 < violation.line <= len(lines) else ""
        if not _pragma_allows(line, violation.rule):
            kept.append(violation)
    return kept


def lint_paths(
    roots: Sequence[Path], config: Optional[LintConfig] = None
) -> List[Violation]:
    """Lint every ``*.py`` under each root (files are accepted too)."""
    config = config or LintConfig()
    violations: List[Violation] = []
    for root in roots:
        root = Path(root)
        if root.is_file():
            violations.extend(lint_file(root, root.name, config))
            continue
        for path in sorted(root.rglob("*.py")):
            if "__pycache__" in path.parts:
                continue
            rel = path.relative_to(root).as_posix()
            violations.extend(lint_file(path, rel, config))
    violations.sort(key=lambda v: (v.path, v.line, v.col, v.rule))
    return violations


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
    tally: Dict[str, int] = {}
    for violation in violations:
        tally[violation.rule] = tally.get(violation.rule, 0) + 1
    summary = ", ".join(
        f"{count} {rule}" for rule, count in sorted(tally.items())
    )
    lines.append(f"simlint: {len(violations)} finding(s) ({summary})")
    return "\n".join(lines)


def default_lint_root() -> Path:
    """The installed ``repro`` package tree (what CI lints)."""
    return Path(__file__).resolve().parent.parent


def run(path: Optional[str] = None, fmt: str = "text") -> int:
    """Lint ``path`` (default: the repro package); returns a process code.

    ``fmt="json"`` emits :func:`render_json` instead of the human report,
    which the CI lint job feeds to ``scripts/lint_annotations.py`` for
    per-file annotations.
    """
    root = Path(path) if path else default_lint_root()
    if not root.exists():
        # A typo'd --path must not read as "clean" to CI.
        if fmt == "json":
            print(json.dumps({"ok": False, "error": f"path {root} does not exist"}))
        else:
            print(f"simlint: path {root} does not exist")
        return 2
    violations = lint_paths([root])
    print(render_json(violations) if fmt == "json" else render_report(violations))
    return 1 if violations else 0
