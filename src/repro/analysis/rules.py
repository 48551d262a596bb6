"""The individual ``simlint`` rules as one AST visitor.

Each rule has a short code and a kebab-case name; violations carry both so
reports and allowlists can refer to either.  The visitor makes a single
pass per file, with two small pre-passes that gather the information the
unordered-iteration rule needs (which names and ``self`` attributes are
set-typed).

Rules
-----

``SIM101 unseeded-random``
    A call into the process-global random state (``random.*`` or the
    ``numpy.random.*`` convenience functions).  Global streams make runs
    depend on import order and on every other component's draw count;
    simulation code must draw from a named, seeded
    :class:`repro.util.Rng` stream instead.  Explicitly-seeded building
    blocks (``SeedSequence``, ``Generator``, ``PCG64``, a ``default_rng``
    / ``RandomState`` call *with* a seed argument) are allowed.

``SIM102 wall-clock``
    A wall-clock read (``time.time``, ``time.perf_counter``,
    ``datetime.now``, ...).  In simulated-time paths these leak host time
    into results; legitimate wall-clock *profiling* (the speed
    experiments) is excused via the path allowlist or an inline
    ``# simlint: allow[wall-clock]`` pragma.

``SIM103 mutable-default``
    A mutable default argument (``def f(x=[])``).  The default is created
    once and shared across calls, so state leaks between supposedly
    independent simulations.

``SIM104 unordered-iteration``
    Direct iteration over a ``set`` expression in event-ordering code
    (paths matching the configured event-ordering patterns).  Set
    iteration order depends on element hashes — for objects, on memory
    addresses — so it is not reproducible across runs.  Wrap the iterable
    in ``sorted(...)`` or keep an insertion-ordered ``dict`` instead.
    Dicts are insertion-ordered on every supported Python (>= 3.7), so
    dict iteration is deterministic and deliberately not flagged.

``SIM105 bare-assert``
    An ``assert`` statement in library code.  Asserts are stripped under
    ``python -O``, silently disabling the check; raise a
    :class:`repro.errors.SimulationError` / ``ConfigError`` /
    ``ProtocolError`` instead.

``SIM106 swallowed-exception``
    An ``except`` handler that discards the exception — a body of nothing
    but ``pass``/``...``, or a bare ``except:`` that catches everything
    including ``KeyboardInterrupt``.  In a simulator a swallowed error
    does not crash; it silently diverges the results.  Handle the
    exception, re-raise, or excuse a deliberate suppression with
    ``# simlint: allow[swallowed-exception]`` on the ``except`` line.

``SIM107 unbounded-loop``
    A ``while`` loop in simulation-kernel code (paths matching the
    configured unbounded-loop patterns, by default ``core/*``, ``noc/*``,
    and ``serve/*`` — the serve daemon's event-driven accept loops are
    then excused via the path allowlist) that the analysis cannot prove
    terminates or fails loudly:
    its test is constant-truthy (``while True``) or contains no
    comparison, and its body reaches no ``break``, ``raise``, or
    ``return`` (a ``break`` inside a *nested* loop does not count — it
    exits the wrong loop).  Such a loop can spin forever on a wedged
    simulation, burning a campaign job's whole wall-clock budget with no
    diagnostics; add a cycle-budget check that raises
    :class:`repro.errors.StallError`, or excuse a loop bounded by
    collection drain with ``# simlint: allow[unbounded-loop]``.
"""

from __future__ import annotations

import ast
import fnmatch
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set

__all__ = [
    "RULES", "RULE_CODES", "Violation", "SimLintVisitor", "path_matches", "register_rules",
]

#: rule name -> (code, one-line description) — the classic single-file rules
RULES: Dict[str, tuple] = {
    "parse-error": (
        "SIM100",
        "file could not be parsed (reported by the driver, not a rule)",
    ),
    "unseeded-random": (
        "SIM101",
        "process-global RNG call; use a seeded repro.util.Rng stream",
    ),
    "wall-clock": (
        "SIM102",
        "wall-clock read in simulated-time code (allowlist profiling paths)",
    ),
    "mutable-default": (
        "SIM103",
        "mutable default argument shared across calls",
    ),
    "unordered-iteration": (
        "SIM104",
        "iteration over an unordered set in event-ordering code",
    ),
    "bare-assert": (
        "SIM105",
        "assert statement is stripped under python -O; raise a repro error",
    ),
    "swallowed-exception": (
        "SIM106",
        "exception handler discards the error; simulations diverge silently",
    ),
    "unbounded-loop": (
        "SIM107",
        "while loop in kernel code with no provable exit or loud failure",
    ),
}

#: rule name -> (code, description) for *every* registered pass.  The
#: classic rules seed it; the deep (SIM2xx) pass extends it via
#: :func:`register_rules` on import, so one Finding dataclass serves both.
RULE_CODES: Dict[str, tuple] = dict(RULES)


def register_rules(rules: Dict[str, tuple]) -> None:
    """Add another pass's rules to the shared code registry."""
    RULE_CODES.update(rules)


def path_matches(relpath: str, patterns: Iterable[str]) -> bool:
    """Whether a lint-root relative path matches any of the glob ``patterns``."""
    return any(fnmatch.fnmatch(relpath, p) for p in patterns)


@dataclass(frozen=True)
class Violation:
    """One finding: where it is, which rule fired, and why.

    Shared by the classic (SIM1xx) and deep (SIM2xx) passes.  ``end_line``
    / ``end_col`` bound the exact source span (0 when unknown: the finding
    is then a single point at ``line:col``); ``context`` names the
    enclosing function or class, which keeps baseline fingerprints stable
    across unrelated line shifts.
    """

    path: str
    line: int
    col: int
    rule: str
    message: str
    end_line: int = 0
    end_col: int = 0
    context: str = ""

    @property
    def code(self) -> str:
        return RULE_CODES[self.rule][0]

    def render(self) -> str:
        return (
            f"{self.path}:{self.line}:{self.col}: "
            f"{self.code} [{self.rule}] {self.message}"
        )


# Wall-clock reads (resolved dotted names).
_WALL_CLOCK_CALLS = {
    "time.time",
    "time.time_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.process_time",
    "time.process_time_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.localtime",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
}

# numpy.random attributes that are explicitly-seeded building blocks (the
# machinery repro.util.Rng itself is built from), never global-state draws.
_NP_RANDOM_SEEDED = {
    "Generator",
    "BitGenerator",
    "PCG64",
    "PCG64DXSM",
    "Philox",
    "MT19937",
    "SFC64",
    "SeedSequence",
}
# Seeded only when called with an explicit seed argument.
_NP_RANDOM_SEEDABLE = {"default_rng", "RandomState"}

# stdlib random attributes that construct an independent, seedable stream.
_STDLIB_RANDOM_SEEDED = {"Random", "SystemRandom"}

_MUTABLE_FACTORIES = {
    "list",
    "dict",
    "set",
    "collections.defaultdict",
    "collections.deque",
    "collections.Counter",
    "collections.OrderedDict",
    "defaultdict",
    "deque",
    "Counter",
    "OrderedDict",
}


def _test_is_unbounded(test: ast.AST) -> bool:
    """A loop test that bounds nothing: constant-truthy or comparison-free.

    Comparisons (``while cycle < target``) are taken as evidence of a
    cycle or size budget; anything else (``while True``, ``while pending``,
    ``while not done``) promises nothing about termination on its own.
    """
    if isinstance(test, ast.Constant):
        return bool(test.value)
    return not any(isinstance(n, ast.Compare) for n in ast.walk(test))


def _subtree_raises_or_returns(node: ast.AST) -> bool:
    """Does this statement's subtree raise/return, ignoring nested defs?"""
    if isinstance(node, (ast.Raise, ast.Return)):
        return True
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return False
    for child in ast.iter_child_nodes(node):
        if _subtree_raises_or_returns(child):
            return True
    return False


def _stmt_blocks(stmt: ast.stmt):
    """Every nested statement block of a compound statement."""
    for fld in ("body", "orelse", "finalbody"):
        block = getattr(stmt, fld, None)
        if block:
            yield block
    for handler in getattr(stmt, "handlers", []):
        yield handler.body
    for case in getattr(stmt, "cases", []):
        yield case.body


def _loop_body_exits(body: List[ast.stmt]) -> bool:
    """Can this loop body reach a ``break``, ``raise``, or ``return``?

    ``break`` only counts at the loop's own nesting level — one inside a
    nested loop exits that inner loop, not this one.  ``raise``/``return``
    count anywhere except inside nested function/class definitions.
    """
    for stmt in body:
        if isinstance(stmt, (ast.Break, ast.Raise, ast.Return)):
            return True
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        if isinstance(stmt, (ast.For, ast.AsyncFor, ast.While)):
            if _subtree_raises_or_returns(stmt):
                return True
            continue
        if any(_loop_body_exits(block) for block in _stmt_blocks(stmt)):
            return True
    return False


def _dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


class _SelfSetAttrs(ast.NodeVisitor):
    """Pre-pass: which ``self.X`` attributes are ever assigned a set."""

    def __init__(self) -> None:
        self.set_attrs: Set[str] = set()

    def visit_Assign(self, node: ast.Assign) -> None:
        if _is_set_expr(node.value, (), self.set_attrs):
            for target in node.targets:
                attr = _self_attr(target)
                if attr is not None:
                    self.set_attrs.add(attr)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        attr = _self_attr(node.target)
        if attr is not None and (
            _annotation_is_set(node.annotation)
            or (
                node.value is not None
                and _is_set_expr(node.value, (), self.set_attrs)
            )
        ):
            self.set_attrs.add(attr)
        self.generic_visit(node)


def _self_attr(node: ast.AST) -> Optional[str]:
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def _annotation_is_set(node: ast.AST) -> bool:
    name = _dotted_name(node)
    if name in ("set", "frozenset", "Set", "FrozenSet", "typing.Set"):
        return True
    if isinstance(node, ast.Subscript):
        return _annotation_is_set(node.value)
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        head = node.value.split("[", 1)[0].strip()
        return head in ("set", "frozenset", "Set", "FrozenSet")
    return False


def _is_set_expr(
    node: ast.AST, set_names: tuple, set_attrs: Set[str]
) -> bool:
    """Can this expression be statically recognised as a set?"""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        name = _dotted_name(node.func)
        return name in ("set", "frozenset")
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitOr, ast.BitAnd, ast.BitXor, ast.Sub)
    ):
        return _is_set_expr(node.left, set_names, set_attrs) or _is_set_expr(
            node.right, set_names, set_attrs
        )
    if isinstance(node, ast.Name):
        return node.id in set_names
    attr = _self_attr(node)
    if attr is not None:
        return attr in set_attrs
    return False


class SimLintVisitor(ast.NodeVisitor):
    """Single-file rule pass.

    Args:
        path: display path for findings (usually relative to the lint root).
        event_ordering: True when the unordered-iteration rule applies to
            this file.
        enabled: the rule names to run.
        unbounded_loops: True when the unbounded-loop rule applies to this
            file (simulation-kernel paths).
    """

    def __init__(
        self,
        path: str,
        event_ordering: bool,
        enabled: Set[str],
        unbounded_loops: bool = False,
    ) -> None:
        self.path = path
        self.event_ordering = event_ordering
        self.unbounded_loops = unbounded_loops
        self.enabled = enabled
        self.violations: List[Violation] = []
        #: import alias -> real module path ("np" -> "numpy")
        self._modules: Dict[str, str] = {}
        #: from-imported name -> full dotted origin ("time" -> "time.time")
        self._from_names: Dict[str, str] = {}
        #: per-function stack of {name} known to hold sets
        self._set_name_stack: List[Set[str]] = [set()]
        #: self attributes (of the enclosing classes) known to hold sets
        self._set_attrs: Set[str] = set()

    def _flag(self, node: ast.AST, rule: str, message: str) -> None:
        if rule in self.enabled:
            self.violations.append(
                Violation(
                    self.path,
                    getattr(node, "lineno", 0),
                    getattr(node, "col_offset", 0) + 1,
                    rule,
                    message,
                    end_line=getattr(node, "end_lineno", 0) or 0,
                    end_col=(getattr(node, "end_col_offset", 0) or 0) + 1,
                )
            )

    # -- imports --------------------------------------------------------
    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            self._modules[alias.asname or alias.name] = alias.name

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module is None or node.level:
            return
        for alias in node.names:
            self._from_names[alias.asname or alias.name] = (
                f"{node.module}.{alias.name}"
            )

    def _resolve(self, node: ast.AST) -> Optional[str]:
        """Dotted name of a call target with import aliases undone."""
        name = _dotted_name(node)
        if name is None:
            return None
        head, _, rest = name.partition(".")
        if head in self._modules:
            head = self._modules[head]
        elif head in self._from_names:
            head = self._from_names[head]
        return f"{head}.{rest}" if rest else head

    # -- calls: unseeded randomness and wall-clock ----------------------
    def visit_Call(self, node: ast.Call) -> None:
        resolved = self._resolve(node.func)
        if resolved is not None:
            self._check_random(node, resolved)
            self._check_wall_clock(node, resolved)
        self.generic_visit(node)

    def _check_random(self, node: ast.Call, resolved: str) -> None:
        if resolved.startswith("random."):
            leaf = resolved.split(".", 1)[1]
            if leaf not in _STDLIB_RANDOM_SEEDED:
                self._flag(
                    node,
                    "unseeded-random",
                    f"{resolved}() draws from the process-global stream; "
                    "use a named repro.util.Rng",
                )
        elif resolved.startswith("numpy.random."):
            leaf = resolved.rsplit(".", 1)[1]
            if leaf in _NP_RANDOM_SEEDED:
                return
            if leaf in _NP_RANDOM_SEEDABLE and (node.args or node.keywords):
                return
            self._flag(
                node,
                "unseeded-random",
                f"{resolved}() is unseeded global numpy randomness; "
                "use a named repro.util.Rng",
            )

    def _check_wall_clock(self, node: ast.Call, resolved: str) -> None:
        if resolved in _WALL_CLOCK_CALLS:
            self._flag(
                node,
                "wall-clock",
                f"{resolved}() reads the host clock; simulated-time code "
                "must use event/cycle time (profiling paths belong on the "
                "allowlist)",
            )

    # -- function definitions: mutable defaults + name scopes ------------
    def _check_defaults(self, node) -> None:
        defaults = list(node.args.defaults) + [
            d for d in node.args.kw_defaults if d is not None
        ]
        for default in defaults:
            if isinstance(default, (ast.List, ast.Dict, ast.Set)) or (
                isinstance(default, ast.Call)
                and _dotted_name(default.func) in _MUTABLE_FACTORIES
            ):
                self._flag(
                    default,
                    "mutable-default",
                    "mutable default is created once and shared across "
                    "calls; default to None and construct inside",
                )

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._check_defaults(node)
        self._set_name_stack.append(set())
        self.generic_visit(node)
        self._set_name_stack.pop()

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self.visit_FunctionDef(node)  # type: ignore[arg-type]

    def visit_Lambda(self, node: ast.Lambda) -> None:
        self._check_defaults(node)
        self.generic_visit(node)

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        collector = _SelfSetAttrs()
        collector.visit(node)
        outer = self._set_attrs
        self._set_attrs = outer | collector.set_attrs
        self.generic_visit(node)
        self._set_attrs = outer

    # -- assignments: track which local names hold sets ------------------
    def visit_Assign(self, node: ast.Assign) -> None:
        is_set = self._is_set(node.value)
        for target in node.targets:
            if isinstance(target, ast.Name):
                if is_set:
                    self._set_name_stack[-1].add(target.id)
                else:
                    self._set_name_stack[-1].discard(target.id)
        self.generic_visit(node)

    def _is_set(self, node: ast.AST) -> bool:
        names = tuple(self._set_name_stack[-1])
        return _is_set_expr(node, names, self._set_attrs)

    # -- iteration order ------------------------------------------------
    def _check_iter(self, iter_node: ast.AST) -> None:
        if self.event_ordering and self._is_set(iter_node):
            self._flag(
                iter_node,
                "unordered-iteration",
                "set iteration order depends on element hashes and is not "
                "reproducible; iterate sorted(...) or an insertion-ordered "
                "dict",
            )

    def visit_For(self, node: ast.For) -> None:
        self._check_iter(node.iter)
        self.generic_visit(node)

    # -- loop boundedness ------------------------------------------------
    def visit_While(self, node: ast.While) -> None:
        if (
            self.unbounded_loops
            and _test_is_unbounded(node.test)
            and not _loop_body_exits(node.body)
        ):
            self._flag(
                node,
                "unbounded-loop",
                "loop has no comparison bound and no reachable "
                "break/raise/return; a wedged simulation spins here forever "
                "— add a cycle-budget StallError, or pragma a loop bounded "
                "by collection drain",
            )
        self.generic_visit(node)

    def visit_comprehension(self, node: ast.comprehension) -> None:
        self._check_iter(node.iter)
        self.generic_visit(node)

    # -- exception handlers ---------------------------------------------
    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        swallowed = all(
            isinstance(stmt, ast.Pass)
            or (
                isinstance(stmt, ast.Expr)
                and isinstance(stmt.value, ast.Constant)
                and stmt.value.value is Ellipsis
            )
            for stmt in node.body
        )
        if node.type is None:
            self._flag(
                node,
                "swallowed-exception",
                "bare 'except:' catches everything, including SystemExit and "
                "KeyboardInterrupt; name the exception types",
            )
        elif swallowed:
            self._flag(
                node,
                "swallowed-exception",
                "handler body is only pass/...; the error vanishes and the "
                "simulation silently diverges — handle it, re-raise, or "
                "pragma a deliberate suppression",
            )
        self.generic_visit(node)

    # -- asserts --------------------------------------------------------
    def visit_Assert(self, node: ast.Assert) -> None:
        self._flag(
            node,
            "bare-assert",
            "stripped under python -O; raise SimulationError / ConfigError "
            "/ ProtocolError from repro.errors instead",
        )
        self.generic_visit(node)
