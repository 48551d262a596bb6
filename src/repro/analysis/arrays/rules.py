"""The SIM3xx kernel rule family: scoping and fact interpretation.

The interpreter (:mod:`.interp`) records per-function *candidates* plus
the loop/call events that need interprocedural context; this module
decides which become findings under an :class:`ArraysConfig`:

* SIM301/302/303/305 apply to every analyzed kernel module — the
  invariants they check are meaningful anywhere contract-typed arrays
  are touched;
* SIM304 is scoped to the vectorized kernel files themselves
  (``engine/kernels.py``): the host-side driver
  modules iterate lanes by design (per-lane ejection views, lockstep
  scheduling), so a lane loop is only a devectorization smell inside
  the kernels.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..rules import Violation, path_matches, register_rules
from .contracts import ContractRegistry

__all__ = ["ARRAY_RULES", "ArraysConfig", "array_violations"]

#: rule name -> (code, summary) — same shape as the classic RULES table
ARRAY_RULES: Dict[str, tuple] = {
    "lane-isolation": (
        "SIM301",
        "scatter/reduction bucket key collapses the lane axis",
    ),
    "dtype-narrowing": (
        "SIM302",
        "astype downcast without a bound annotation",
    ),
    "index-aliasing": (
        "SIM303",
        "in-place update through possibly-duplicate fancy indices",
    ),
    "lane-loop": (
        "SIM304",
        "python-level loop over the lane axis in a kernel module",
    ),
    "shape-contract": (
        "SIM305",
        "indexing arity or axis disagrees with the declared layout",
    ),
}

register_rules(ARRAY_RULES)


@dataclass
class ArraysConfig:
    """Scoping for the SIM3xx rules (patterns are lint-root relative)."""

    enabled: Tuple[str, ...] = tuple(ARRAY_RULES)
    #: rule name -> exempt path globs
    allow_paths: Dict[str, Tuple[str, ...]] = field(default_factory=dict)
    #: which modules the kernel pass analyzes at all
    kernel_paths: Tuple[str, ...] = ("engine/*",)
    #: where a python-level lane loop is a devectorization bug (SIM304)
    lane_loop_paths: Tuple[str, ...] = ("engine/kernels.py",)

    def analyzes(self, relpath: str) -> bool:
        return path_matches(relpath, self.kernel_paths)

    def applies(self, rule: str, relpath: str) -> bool:
        if rule not in self.enabled:
            return False
        if path_matches(relpath, self.allow_paths.get(rule, ())):
            return False
        if rule == "lane-loop":
            return path_matches(relpath, self.lane_loop_paths)
        return True


def _violation(
    rel: str, loc: List[int], end: List[int], rule: str,
    message: str, context: str,
) -> Violation:
    return Violation(
        rel, loc[0], loc[1], rule, message,
        end_line=end[0], end_col=end[1] if end[0] else 0,
        context=context,
    )


def _resolve_lane_loops(
    modules: Dict[str, Dict],
    graph,
    registry: ContractRegistry,
    config: ArraysConfig,
) -> List[Violation]:
    """Interprocedural SIM304: a helper looping over ``param.<attr>``
    is a lane loop when some caller passes a contract whose lane axis
    is that attribute at that parameter position."""
    found: List[Violation] = []
    seen = set()
    for rel, facts in modules.items():
        for qual, fn in facts["functions"].items():
            for call in fn["calls"]:
                args = call.get("args") or []
                if not any(args):
                    continue
                node = graph.resolve(rel, qual, call.get("fn"))
                if node is None:
                    continue
                callee_rel, _, callee_qual = node.partition("::")
                callee = modules.get(callee_rel, {}).get(
                    "functions", {}
                ).get(callee_qual)
                if callee is None or not callee["dim_loops"]:
                    continue
                if not config.applies("lane-loop", callee_rel):
                    continue
                params = callee.get("params", [])
                for pos, cls_name in enumerate(args):
                    if cls_name is None or pos >= len(params):
                        continue
                    contract = registry.contracts.get(cls_name)
                    if contract is None or contract.lane_axis is None:
                        continue
                    pname = params[pos]
                    for loop in callee["dim_loops"]:
                        if (
                            loop["param"] == pname
                            and loop["attr"] == contract.lane_axis
                        ):
                            key = (callee_rel, tuple(loop["loc"]))
                            if key in seen:
                                continue
                            seen.add(key)
                            found.append(_violation(
                                callee_rel, loop["loc"], loop["end"],
                                "lane-loop",
                                "python-level loop over the lane axis "
                                f"(called with {cls_name} from "
                                f"{qual}); lift the lane dimension into "
                                "the array operation",
                                f"{callee_qual}:lane-loop",
                            ))
    return found


def array_violations(
    modules: Dict[str, Dict],
    graph,
    registry: ContractRegistry,
    config: Optional[ArraysConfig] = None,
) -> List[Violation]:
    """Convert recorded candidates (plus resolved events) to findings."""
    config = config or ArraysConfig()
    out: List[Violation] = []
    for rel, facts in modules.items():
        for fn in facts["functions"].values():
            for cand in fn["candidates"]:
                if not config.applies(cand["rule"], rel):
                    continue
                out.append(_violation(
                    rel, cand["loc"], cand["end"], cand["rule"],
                    cand["message"], cand["anchor"],
                ))
    if graph is not None and "lane-loop" in config.enabled:
        out.extend(
            _resolve_lane_loops(modules, graph, registry, config)
        )
    out.sort(key=lambda v: (v.path, v.line, v.col, v.rule))
    return out
