"""The SIM2xx deep rule family: scoping, messages, fact interpretation.

The extractor (:mod:`.summaries`) records *candidates*; this module
decides which of them are findings under a :class:`DeepConfig` — the
deep-pass analogue of :class:`repro.analysis.simlint.LintConfig`, with
per-rule path scopes chosen to match where each hazard is meaningful:

* SIM201 sinks are the simulation kernels (a tainted write to serve's
  own bookkeeping is not a reproducibility bug; one into a router is);
* SIM202 only applies where multiple tasks share an event loop (serve);
* SIM203 only applies where the tree actually forks (campaign, serve,
  resilience);
* SIM204/205 are global — unit confusion and leaked resources are wrong
  everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..rules import Violation, path_matches, register_rules
from .callgraph import CallGraph
from .taint import TaintAnalysis

__all__ = ["DEEP_RULES", "DeepConfig", "deep_violations"]

#: rule name -> (code, summary) — same shape as the classic RULES table
DEEP_RULES: Dict[str, tuple] = {
    "nondeterminism-taint": (
        "SIM201",
        "nondeterministic value flows into simulation-visible state",
    ),
    "await-atomicity": (
        "SIM202",
        "read-modify-write of shared state spans an await",
    ),
    "fork-unsafety": (
        "SIM203",
        "resource created pre-fork is used in the forked child",
    ),
    "unit-confusion": (
        "SIM204",
        "simulated-cycle and wall-clock quantities mixed",
    ),
    "resource-lifecycle": (
        "SIM205",
        "resource can leak on an error path",
    ),
}

register_rules(DEEP_RULES)


@dataclass
class DeepConfig:
    """Scoping for the SIM2xx rules (all patterns are lint-root relative)."""

    enabled: Tuple[str, ...] = tuple(DEEP_RULES)
    #: rule name -> exempt path globs
    allow_paths: Dict[str, Tuple[str, ...]] = field(default_factory=dict)
    #: where tainted state writes are simulation-visible (SIM201 sinks)
    taint_sink_paths: Tuple[str, ...] = (
        "core/*",
        "noc/*",
        "noc_gpu/*",
        "engine/*",
        "fullsys/*",
        "abstractnet/*",
        "dram/*",
    )
    #: where coroutines share an event loop (SIM202)
    async_state_paths: Tuple[str, ...] = ("serve/*",)
    #: where processes fork (SIM203)
    fork_paths: Tuple[str, ...] = ("campaign/*", "serve/*", "resilience/*")
    #: unit discipline applies everywhere (SIM204)
    unit_paths: Tuple[str, ...] = ("*",)
    #: resource discipline applies everywhere (SIM205)
    resource_paths: Tuple[str, ...] = ("*",)

    def applies(self, rule: str, relpath: str) -> bool:
        if rule not in self.enabled:
            return False
        if path_matches(relpath, self.allow_paths.get(rule, ())):
            return False
        scope = {
            "nondeterminism-taint": self.taint_sink_paths,
            "await-atomicity": self.async_state_paths,
            "fork-unsafety": self.fork_paths,
            "unit-confusion": self.unit_paths,
            "resource-lifecycle": self.resource_paths,
        }[rule]
        return path_matches(relpath, scope)


def _violation(
    rel: str,
    loc: List[int],
    end: List[int],
    rule: str,
    message: str,
    context: str,
) -> Violation:
    return Violation(
        rel,
        loc[0],
        loc[1],
        rule,
        message,
        end_line=end[0],
        end_col=end[1] if end[0] else 0,
        context=context,
    )


# -- SIM202 -------------------------------------------------------------
def _sim202(rel: str, facts: Dict) -> List[Violation]:
    out: List[Violation] = []
    # shared-state precondition: the attribute is touched by >1 function
    # of the module (two coroutines, or a coroutine plus anything else)
    touchers: Dict[Tuple[Optional[str], str], int] = {}
    for fn in facts["functions"].values():
        for attr in set(fn["attr_reads"]) | set(fn["attr_writes"]):
            key = (fn.get("class"), attr)
            touchers[key] = touchers.get(key, 0) + 1
    for qual, fn in facts["functions"].items():
        for hazard in fn["async_hazards"]:
            key = (fn.get("class"), hazard["attr"])
            if touchers.get(key, 0) < 2:
                continue
            out.append(
                _violation(
                    rel,
                    hazard["loc"],
                    hazard.get("end", [0, 0]),
                    "await-atomicity",
                    f"`self.{hazard['attr']}` is read before an await and "
                    f"written after it in `{qual}`; another task can "
                    "interleave at the suspension point — recompute after "
                    "the await or guard with an async lock",
                    context=f"{qual}:{hazard['attr']}",
                )
            )
    return out


# -- SIM203 -------------------------------------------------------------
def _sim203(rel: str, facts: Dict, graph: CallGraph) -> List[Violation]:
    out: List[Violation] = []
    # collect pre-fork resources visible to this module's classes/globals
    class_resources: Dict[str, List[Dict]] = {
        cls: info["resources"] for cls, info in facts["classes"].items()
    }
    global_resources = {
        r["name"]: r for r in facts.get("module_resources", ())
    }
    for qual, fn in facts["functions"].items():
        cls = fn.get("class")
        for site in fn["fork_sites"]:
            target = site.get("target")
            target_node = graph.resolve(rel, qual, target)
            if target_node is None:
                continue
            reach = graph.reachable(target_node, max_depth=6)
            used_attrs: set = set()
            used_globals: set = set()
            for node in reach:
                node_rel, _, node_qual = node.partition("::")
                node_fn = graph.modules[node_rel]["functions"][node_qual]
                used_attrs |= set(node_fn["attr_reads"]) | set(
                    node_fn["attr_writes"]
                )
                used_globals |= set(node_fn["global_reads"])
            hazards: List[str] = []
            if cls:
                for res in class_resources.get(cls, ()):
                    if res["name"] in used_attrs:
                        hazards.append(
                            f"self.{res['name']} ({res['kind']})"
                        )
            for name, res in global_resources.items():
                if name in used_globals:
                    hazards.append(f"{name} ({res['kind']})")
            if hazards:
                out.append(
                    _violation(
                        rel,
                        site["loc"],
                        site.get("end", [0, 0]),
                        "fork-unsafety",
                        f"fork target `{target}` reaches pre-fork "
                        f"resource(s) {', '.join(sorted(hazards))}; "
                        "inherited handles are invalid or shared in the "
                        "child — open them post-fork instead",
                        context=f"{qual}:{target}",
                    )
                )
    return out


# -- SIM204 -------------------------------------------------------------
def _sim204(rel: str, facts: Dict) -> List[Violation]:
    out: List[Violation] = []
    for qual, fn in facts["functions"].items():
        for mix in fn["unit_mixes"]:
            out.append(
                _violation(
                    rel,
                    mix["loc"],
                    mix.get("end", [0, 0]),
                    "unit-confusion",
                    f"mixes simulated cycles with wall-clock time in "
                    f"`{qual}`: {mix['detail']} — convert explicitly or "
                    "keep the domains apart",
                    context=f"{qual}:{mix['detail']}",
                )
            )
    return out


# -- SIM205 -------------------------------------------------------------
def _sim205(rel: str, facts: Dict) -> List[Violation]:
    out: List[Violation] = []
    for qual, fn in facts["functions"].items():
        for leak in fn["resource_leaks"]:
            if leak["mode"] == "never-released":
                detail = (
                    f"`{leak['name']}` ({leak['kind']}) acquired in "
                    f"`{qual}` is never released and never escapes"
                )
            else:
                detail = (
                    f"`{leak['name']}` ({leak['kind']}) acquired in "
                    f"`{qual}` leaks if a call between acquire and "
                    "release raises — close it in a finally block or "
                    "use a with statement"
                )
            out.append(
                _violation(
                    rel,
                    leak["loc"],
                    leak.get("end", [0, 0]),
                    "resource-lifecycle",
                    detail,
                    context=f"{qual}:{leak['name']}",
                )
            )
    return out


# -- SIM201 -------------------------------------------------------------
def _sim201(rel: str, taint: TaintAnalysis) -> List[Violation]:
    out: List[Violation] = []
    for finding in taint.findings_for(rel):
        attr = finding["attr"]
        target = attr[2:] if attr.startswith("g:") else f"self.{attr}"
        out.append(
            _violation(
                rel,
                finding["loc"],
                finding.get("end", [0, 0]),
                "nondeterminism-taint",
                f"value from {finding['source']} reaches simulation state "
                f"`{target}` via `{finding['via']}` without derive_seed "
                "or an explicit sort",
                context=f"{finding['via']}:{attr}",
            )
        )
    return out


def deep_violations(
    modules: Dict[str, Dict],
    graph: CallGraph,
    taint: TaintAnalysis,
    config: Optional[DeepConfig] = None,
) -> List[Violation]:
    """All SIM2xx findings for a summarized module set, scope-filtered."""
    config = config or DeepConfig()
    out: List[Violation] = []
    for rel, facts in modules.items():
        if config.applies("nondeterminism-taint", rel):
            out.extend(_sim201(rel, taint))
        if config.applies("await-atomicity", rel):
            out.extend(_sim202(rel, facts))
        if config.applies("fork-unsafety", rel):
            out.extend(_sim203(rel, facts, graph))
        if config.applies("unit-confusion", rel):
            out.extend(_sim204(rel, facts))
        if config.applies("resource-lifecycle", rel):
            out.extend(_sim205(rel, facts))
    out.sort(key=lambda v: (v.path, v.line, v.col, v.rule))
    return out
