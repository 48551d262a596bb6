"""Per-function dataflow summaries: one AST pass, pure JSON-able facts.

The extractor walks each module exactly once and records, per function:

* **taint terms** — every ``return``, simulation-state write (``self.X =``
  or declared-``global`` assignment), and call site is summarized as a
  small symbolic *term* describing where its value came from: a direct
  nondeterminism source, a parameter, another call, or clean.  Terms are
  plain dicts, so a module's facts serialize to JSON and can be cached by
  content hash; the interprocedural taint pass (:mod:`.taint`) evaluates
  them against the whole-program call graph.
* **async atomicity events** — read→await→dependent-write candidates for
  SIM202, with ``async with`` treated as a critical section.
* **resource lifecycle** — acquisitions (pipes, connections, files,
  temp artifacts), their releases, whether the release is guarded by a
  ``finally``/``except``, and whether the value escapes (SIM205).
* **unit tags** — wall-time vs simulated-cycle typing of locals, and any
  arithmetic/comparison that mixes the two (SIM204).
* **fork sites and resource definitions** — ``Process(target=...)``
  creations and connection/lock/file objects bound to ``self`` attributes
  or module globals, for the SIM203 reachability check.

Nothing here is a finding yet: :mod:`.rules` and :mod:`.taint` interpret
these facts under a :class:`~repro.analysis.flow.rules.DeepConfig`, which
is what keeps the cached facts config-independent.

Terms
-----

``{"k": "src", "s": <descr>, "loc": [line, col]}``
    a direct nondeterminism source (unseeded RNG, wall clock, entropy,
    ``id()``, unordered set materialization);
``{"k": "param", "i": <index>}``
    the function's i-th parameter (``self`` excluded for methods);
``{"k": "call", "fn": <name>, "args": [[pos-or-kwname, term], ...],
"loc": [line, col]}``
    the result of a call (resolved lazily against the call graph);
``{"k": "ref", "fn": <name>}``
    a reference to a function object (fork targets, partials);
``{"k": "join", "t": [terms]}``
    a value combined from several sources;
``{"k": "clean"}``
    statically untainted.
"""

from __future__ import annotations

import ast
import re
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..rules import (
    _NP_RANDOM_SEEDABLE,
    _NP_RANDOM_SEEDED,
    _STDLIB_RANDOM_SEEDED,
    _WALL_CLOCK_CALLS,
    _dotted_name,
)

__all__ = ["extract_module", "FACTS_VERSION"]

#: bump when the facts schema or extraction logic changes (cache key part)
FACTS_VERSION = 2

CLEAN: Dict[str, Any] = {"k": "clean"}

#: calls that launder nondeterminism into something deterministic
_SANITIZERS = {
    "derive_seed",
    "repro.util.derive_seed",
    "util.derive_seed",
    "sorted",
    "len",
    "min",
    "max",
    "sum",
}

#: direct entropy sources beyond the RNG/wall-clock families
_ENTROPY_CALLS = {
    "os.urandom": "os.urandom()",
    "uuid.uuid1": "uuid.uuid1()",
    "uuid.uuid4": "uuid.uuid4()",
    "secrets.token_bytes": "secrets entropy",
    "secrets.token_hex": "secrets entropy",
    "secrets.randbits": "secrets entropy",
    "os.getpid": "os.getpid()",
}

#: resource factories for SIM203/SIM205, resolved call name -> kind
_RESOURCE_FACTORIES = {
    "open": "open file",
    "io.open": "open file",
    "gzip.open": "open file",
    "sqlite3.connect": "SQLite connection",
    "socket.socket": "socket",
    "socket.create_connection": "socket",
    "http.client.HTTPConnection": "HTTP connection",
    # the tree's own client socket (serve/client.py); relative imports
    # resolve to the bare class name
    "repro.serve.client.Connection": "HTTP connection",
    "Connection": "HTTP connection",
    "subprocess.Popen": "child process",
    "tempfile.NamedTemporaryFile": "temp file",
    "tempfile.TemporaryFile": "temp file",
    "tempfile.TemporaryDirectory": "temp directory",
    "tempfile.mkstemp": "temp file",
    "tempfile.mkdtemp": "temp directory",
}

#: lock-ish factories: fork-hazard resources but not SIM205 leak candidates
_LOCK_FACTORIES = {
    "threading.Lock": "lock",
    "threading.RLock": "lock",
    "threading.Condition": "condition",
    "threading.Semaphore": "semaphore",
    "threading.BoundedSemaphore": "semaphore",
}

_CLOSE_METHODS = {
    "close",
    "terminate",
    "kill",
    "shutdown",
    "release",
    "cleanup",
    "unlink",
}

_CYCLE_NAME = re.compile(r"(?:^|_)(?:cycles?|quanta|quantum)(?:$|_)")
_WALL_NAME = re.compile(r"(?:^|_)wall(?:$|_)|_s$|_seconds$|_secs$")

#: wall-clock producing calls (classic set plus the sanctioned wrapper)
_WALL_CALLS = set(_WALL_CLOCK_CALLS) | {"now_monotonic", "pool.now_monotonic"}


def _loc(node: ast.AST) -> List[int]:
    return [getattr(node, "lineno", 0), getattr(node, "col_offset", 0) + 1]


def _end(node: ast.AST) -> List[int]:
    return [
        getattr(node, "end_lineno", 0) or 0,
        (getattr(node, "end_col_offset", 0) or 0) + 1,
    ]


def _join(terms: Sequence[Dict[str, Any]]) -> Dict[str, Any]:
    keep = [t for t in terms if t.get("k") != "clean"]
    if not keep:
        return CLEAN
    if len(keep) == 1:
        return keep[0]
    return {"k": "join", "t": keep}


def _names_in(node: ast.AST) -> List[str]:
    return [n.id for n in ast.walk(node) if isinstance(n, ast.Name)]


class _ImportTable:
    """Alias resolution for one module (imports at any nesting depth)."""

    def __init__(self, tree: ast.Module) -> None:
        #: alias -> dotted module ("np" -> "numpy")
        self.modules: Dict[str, str] = {}
        #: from-imported name -> dotted origin ("connect" -> "sqlite3.connect")
        self.names: Dict[str, str] = {}
        #: from-imported name -> (relative level, module-or-None) for
        #: project-local call-graph resolution
        self.from_sites: Dict[str, Tuple[int, Optional[str], str]] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    self.modules[alias.asname or alias.name] = alias.name
            elif isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    local = alias.asname or alias.name
                    self.from_sites[local] = (node.level, node.module, alias.name)
                    if node.module and not node.level:
                        self.names[local] = f"{node.module}.{alias.name}"

    def resolve(self, dotted: Optional[str]) -> Optional[str]:
        if dotted is None:
            return None
        head, _, rest = dotted.partition(".")
        if head in self.modules:
            head = self.modules[head]
        elif head in self.names:
            head = self.names[head]
        return f"{head}.{rest}" if rest else head


def _source_descr(resolved: str, node: ast.Call) -> Optional[str]:
    """Is this resolved call a direct nondeterminism source?"""
    if resolved in _WALL_CALLS:
        return f"wall clock ({resolved})"
    if resolved in _ENTROPY_CALLS:
        return _ENTROPY_CALLS[resolved]
    if resolved == "id":
        return "id() (memory address)"
    if resolved.startswith("random."):
        leaf = resolved.split(".", 1)[1]
        if leaf not in _STDLIB_RANDOM_SEEDED:
            return f"unseeded RNG ({resolved})"
    if resolved.startswith("numpy.random."):
        leaf = resolved.rsplit(".", 1)[1]
        if leaf in _NP_RANDOM_SEEDED:
            return None
        if leaf in _NP_RANDOM_SEEDABLE and (node.args or node.keywords):
            return None
        return f"unseeded RNG ({resolved})"
    return None


class _FunctionExtractor:
    """One linear pass over a function body, accumulating every fact."""

    def __init__(
        self,
        module_facts: "_ModuleExtractor",
        qualname: str,
        node: ast.AST,
        class_name: Optional[str],
    ) -> None:
        self.m = module_facts
        self.qualname = qualname
        self.node = node
        self.class_name = class_name
        self.is_async = isinstance(node, ast.AsyncFunctionDef)
        args = node.args  # type: ignore[attr-defined]
        names = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
        self.self_name: Optional[str] = None
        if class_name and names and names[0] in ("self", "cls"):
            self.self_name = names.pop(0)
        self.params = names
        self.env: Dict[str, Dict[str, Any]] = {
            name: {"k": "param", "i": i} for i, name in enumerate(names)
        }
        self.set_names: set = set()
        self.unit_env: Dict[str, str] = {}
        self.global_names: set = set()
        # outputs
        self.returns: List[Dict[str, Any]] = []
        self.state_writes: List[Dict[str, Any]] = []
        self.calls: List[Dict[str, Any]] = []
        self.fork_sites: List[Dict[str, Any]] = []
        self.attr_reads: set = set()
        self.attr_writes: set = set()
        self.global_reads: set = set()
        self.async_hazards: List[Dict[str, Any]] = []
        self.unit_mixes: List[Dict[str, Any]] = []
        self.resource_leaks: List[Dict[str, Any]] = []
        # async-atomicity state
        self.await_count = 0
        self.lock_depth = 0
        self.attr_read_at: Dict[str, Tuple[int, set]] = {}
        # resource-lifecycle state
        self.resources: Dict[str, Dict[str, Any]] = {}
        self.call_clock = 0
        self.guard_depth = 0  # inside a finally/except block

    # -- entry ----------------------------------------------------------
    def run(self) -> Dict[str, Any]:
        self.walk_block(self.node.body)  # type: ignore[attr-defined]
        self.finish_resources()
        decorators = [
            self.m.imports.resolve(_dotted_name(d.func if isinstance(d, ast.Call) else d))
            for d in getattr(self.node, "decorator_list", [])
        ]
        return {
            "name": self.qualname,
            "class": self.class_name,
            "params": self.params,
            "is_async": self.is_async,
            "lineno": getattr(self.node, "lineno", 0),
            "decorators": [d for d in decorators if d],
            "returns": self.returns,
            "state_writes": self.state_writes,
            "calls": self.calls,
            "fork_sites": self.fork_sites,
            "attr_reads": sorted(self.attr_reads),
            "attr_writes": sorted(self.attr_writes),
            "global_reads": sorted(self.global_reads),
            "async_hazards": self.async_hazards,
            "unit_mixes": self.unit_mixes,
            "resource_leaks": self.resource_leaks,
        }

    # -- expression evaluation ------------------------------------------
    def eval(self, node: Optional[ast.AST]) -> Dict[str, Any]:
        """Taint term of an expression (records calls/sources on the way)."""
        if node is None:
            return CLEAN
        if isinstance(node, ast.Await):
            self.await_count += 1
            return self.eval(node.value)
        if isinstance(node, ast.Call):
            return self.eval_call(node)
        if isinstance(node, ast.Name):
            if node.id in self.env:
                return self.env[node.id]
            origin = self.m.imports.resolve(node.id)
            if (
                node.id in self.m.function_names
                or origin != node.id
                or node.id in self.m.imports.from_sites
            ):
                return {"k": "ref", "fn": origin or node.id}
            self.note_global_read(node.id)
            return CLEAN
        if isinstance(node, ast.Attribute):
            attr = self.self_attr(node)
            if attr is not None:
                self.note_attr_read(attr, node)
                # a self-attribute can be a bound method (fork targets,
                # callbacks): keep the name as a ref for the call graph
                return {"k": "ref", "fn": f"self.{attr}"}
            self.eval(node.value)
            return CLEAN
        if isinstance(node, (ast.BinOp,)):
            self.check_units(node)
            return _join([self.eval(node.left), self.eval(node.right)])
        if isinstance(node, ast.Compare):
            self.check_units(node)
            return _join([self.eval(node.left)] + [self.eval(c) for c in node.comparators])
        if isinstance(node, ast.BoolOp):
            return _join([self.eval(v) for v in node.values])
        if isinstance(node, ast.UnaryOp):
            return self.eval(node.operand)
        if isinstance(node, ast.IfExp):
            self.eval(node.test)
            return _join([self.eval(node.body), self.eval(node.orelse)])
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            return _join([self.eval(e) for e in node.elts])
        if isinstance(node, ast.Dict):
            terms = [self.eval(v) for v in node.values if v is not None]
            terms += [self.eval(k) for k in node.keys if k is not None]
            return _join(terms)
        if isinstance(node, ast.Subscript):
            self.eval(node.slice)
            return self.eval(node.value)
        if isinstance(node, ast.Starred):
            return self.eval(node.value)
        if isinstance(node, ast.JoinedStr):
            return _join([self.eval(v) for v in node.values])
        if isinstance(node, ast.FormattedValue):
            return self.eval(node.value)
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
            for gen in node.generators:
                if self.is_set_expr(gen.iter):
                    self.bind_comp_target(gen.target, self.set_iter_source(gen.iter))
                else:
                    self.bind_comp_target(gen.target, self.eval(gen.iter))
            return self.eval(node.elt)
        if isinstance(node, ast.DictComp):
            for gen in node.generators:
                self.eval(gen.iter)
            return _join([self.eval(node.key), self.eval(node.value)])
        if isinstance(node, ast.Lambda):
            return CLEAN
        if isinstance(node, ast.NamedExpr):
            term = self.eval(node.value)
            if isinstance(node.target, ast.Name):
                self.env[node.target.id] = term
            return term
        if isinstance(node, ast.Constant):
            return CLEAN
        # fall through: evaluate children for their side records
        for child in ast.iter_child_nodes(node):
            self.eval(child)
        return CLEAN

    def eval_call(self, node: ast.Call) -> Dict[str, Any]:
        resolved = self.m.imports.resolve(_dotted_name(node.func)) or ""
        if not resolved and isinstance(node.func, ast.Attribute):
            # method on a computed object: evaluate receiver, keep leaf name
            self.eval(node.func.value)
            resolved = f"?.{node.func.attr}"
        elif resolved.startswith(("self.", "cls.")):
            # a self.X.y(...) call reads attribute X (SIM202/203 care)
            parts = resolved.split(".")
            if len(parts) >= 3:
                self.note_attr_read(parts[1], node)
        arg_terms: List[List[Any]] = []
        for i, arg in enumerate(node.args):
            arg_terms.append([i, self.eval(arg)])
        for kw in node.keywords:
            arg_terms.append([kw.arg or "**", self.eval(kw.value)])

        descr = _source_descr(resolved, node)
        if descr is not None:
            return {"k": "src", "s": descr, "loc": _loc(node)}
        leaf = resolved.rsplit(".", 1)[-1]
        if resolved in _SANITIZERS or leaf in ("derive_seed",):
            return CLEAN
        if resolved in ("list", "tuple", "iter") and node.args and self.is_set_expr(
            node.args[0]
        ):
            return {
                "k": "src",
                "s": "unordered set materialization",
                "loc": _loc(node),
            }
        self.check_fork_site(node, resolved, arg_terms)
        term = {"k": "call", "fn": resolved, "args": arg_terms, "loc": _loc(node)}
        self.calls.append(
            {"fn": resolved, "args": arg_terms, "loc": _loc(node), "end": _end(node)}
        )
        return term

    # -- helpers --------------------------------------------------------
    def self_attr(self, node: ast.AST) -> Optional[str]:
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and self.self_name is not None
            and node.value.id == self.self_name
        ):
            return node.attr
        return None

    def note_attr_read(self, attr: str, node: ast.AST) -> None:
        self.attr_reads.add(attr)
        if self.is_async and not self.lock_depth:
            prior = self.attr_read_at.get(attr)
            if prior is None or prior[0] < self.await_count:
                self.attr_read_at[attr] = (self.await_count, set())

    def note_global_read(self, name: str) -> None:
        if name not in self.env and not name.startswith("__"):
            self.global_reads.add(name)

    def bind_comp_target(self, target: ast.AST, term: Dict[str, Any]) -> None:
        for name in _names_in(target):
            self.env[name] = term

    def is_set_expr(self, node: ast.AST) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            return _dotted_name(node.func) in ("set", "frozenset")
        if isinstance(node, ast.Name):
            return node.id in self.set_names
        attr = self.self_attr(node)
        return attr is not None and attr in self.m.set_attrs

    def set_iter_source(self, node: ast.AST) -> Dict[str, Any]:
        return {"k": "src", "s": "unordered set iteration", "loc": _loc(node)}

    # -- units (SIM204) --------------------------------------------------
    def unit_of(self, node: ast.AST) -> Optional[str]:
        if isinstance(node, ast.Call):
            resolved = self.m.imports.resolve(_dotted_name(node.func)) or ""
            if resolved in _WALL_CALLS:
                return "wall"
            leaf = resolved.rsplit(".", 1)[-1]
            if _CYCLE_NAME.search(leaf):
                return "cycle"
            return None
        if isinstance(node, ast.Name):
            if node.id in self.unit_env:
                return self.unit_env[node.id]
            return self.unit_of_name(node.id)
        if isinstance(node, ast.Attribute):
            return self.unit_of_name(node.attr)
        if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Sub)):
            left, right = self.unit_of(node.left), self.unit_of(node.right)
            return left or right
        if isinstance(node, ast.UnaryOp):
            return self.unit_of(node.operand)
        return None

    @staticmethod
    def unit_of_name(name: str) -> Optional[str]:
        lowered = name.lower()
        if _CYCLE_NAME.search(lowered):
            return "cycle"
        if _WALL_NAME.search(lowered):
            return "wall"
        return None

    def check_units(self, node: ast.AST) -> None:
        """Flag +,- or comparisons mixing wall-clock and cycle quantities."""
        pairs: List[Tuple[ast.AST, ast.AST]] = []
        if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Sub)):
            pairs.append((node.left, node.right))
        elif isinstance(node, ast.Compare):
            operands = [node.left] + list(node.comparators)
            pairs.extend(zip(operands, operands[1:]))
        for left, right in pairs:
            lu, ru = self.unit_of(left), self.unit_of(right)
            if lu and ru and lu != ru:
                self.unit_mixes.append(
                    {
                        "loc": _loc(node),
                        "end": _end(node),
                        "left": lu,
                        "right": ru,
                        "detail": f"{ast.unparse(left)} ({lu}) vs "
                        f"{ast.unparse(right)} ({ru})",
                    }
                )

    # -- fork sites (SIM203) ---------------------------------------------
    def check_fork_site(
        self, node: ast.Call, resolved: str, arg_terms: List[List[Any]]
    ) -> None:
        if not (resolved == "Process" or resolved.endswith(".Process")):
            return
        target: Optional[str] = None
        for key, term in arg_terms:
            if key == "target":
                target = self.ref_name(term)
        self.fork_sites.append(
            {"target": target, "loc": _loc(node), "end": _end(node)}
        )

    @staticmethod
    def ref_name(term: Dict[str, Any]) -> Optional[str]:
        if term.get("k") == "ref":
            return term["fn"]
        if term.get("k") == "call" and term.get("fn", "").endswith("partial"):
            for _, arg in term.get("args", []):
                if arg.get("k") == "ref":
                    return arg["fn"]
        return None

    # -- resources (SIM205) ----------------------------------------------
    def resource_kind(self, resolved: str) -> Optional[str]:
        if resolved in _RESOURCE_FACTORIES:
            return _RESOURCE_FACTORIES[resolved]
        if resolved == "Pipe" or resolved.endswith(".Pipe"):
            return "pipe"
        return None

    def open_resource(self, name: str, kind: str, node: ast.AST) -> None:
        self.resources[name] = {
            "kind": kind,
            "loc": _loc(node),
            "end": _end(node),
            "opened_at": self.call_clock,
            "closed_at": None,
            "guarded": False,
            "escaped": False,
            "weak_escape": False,
        }

    def note_escape(self, node: ast.AST, weak: bool) -> None:
        for name in _names_in(node):
            res = self.resources.get(name)
            if res is not None:
                res["weak_escape" if weak else "escaped"] = True

    def note_close(self, node: ast.Call) -> bool:
        """True when this call is ``<resource>.close()``-like."""
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in _CLOSE_METHODS
            and isinstance(node.func.value, ast.Name)
        ):
            res = self.resources.get(node.func.value.id)
            if res is not None and res["closed_at"] is None:
                res["closed_at"] = self.call_clock
                if self.guard_depth:
                    res["guarded"] = True
                return True
        return False

    def finish_resources(self) -> None:
        for name, res in self.resources.items():
            if res["escaped"]:
                continue
            if res["closed_at"] is None:
                if res["weak_escape"]:
                    continue
                self.resource_leaks.append(
                    {
                        "name": name,
                        "kind": res["kind"],
                        "loc": res["loc"],
                        "end": res["end"],
                        "mode": "never-released",
                    }
                )
            elif not res["guarded"] and res["closed_at"] > res["opened_at"]:
                # released only on the straight-line path: a raise from any
                # call between acquire and release leaks it
                self.resource_leaks.append(
                    {
                        "name": name,
                        "kind": res["kind"],
                        "loc": res["loc"],
                        "end": res["end"],
                        "mode": "error-path",
                    }
                )

    # -- statements ------------------------------------------------------
    def walk_block(self, body: Sequence[ast.stmt]) -> None:
        for stmt in body:
            self.walk_stmt(stmt)

    def walk_stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            self.m.extract_function(stmt, parent=self.qualname, class_name=None)
            return
        if isinstance(stmt, ast.ClassDef):
            self.m.extract_class(stmt, parent=self.qualname)
            return
        if isinstance(stmt, ast.Global):
            self.global_names.update(stmt.names)
            return
        if isinstance(stmt, ast.Return):
            term = self.eval(stmt.value)
            if stmt.value is not None:
                self.returns.append({"term": term, "loc": _loc(stmt)})
                self.note_escape(stmt.value, weak=False)
            return
        if isinstance(stmt, ast.Assign):
            self.handle_assign(stmt.targets, stmt.value, stmt)
            return
        if isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                self.handle_assign([stmt.target], stmt.value, stmt)
            return
        if isinstance(stmt, ast.AugAssign):
            self.handle_aug_assign(stmt)
            return
        if isinstance(stmt, ast.Expr):
            if isinstance(stmt.value, ast.Call) and self.note_close(stmt.value):
                for arg in stmt.value.args:
                    self.eval(arg)
                return
            self.bump_call_clock(stmt)
            self.eval(stmt.value)
            return
        if isinstance(stmt, (ast.If, ast.While)):
            self.bump_call_clock(stmt.test)
            self.eval(stmt.test)
            self.walk_block(stmt.body)
            self.walk_block(stmt.orelse)
            return
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            self.bump_call_clock(stmt.iter)
            if self.is_set_expr(stmt.iter):
                self.bind_comp_target(stmt.target, self.set_iter_source(stmt.iter))
            else:
                term = self.eval(stmt.iter)
                self.bind_comp_target(stmt.target, term)
            self.walk_block(stmt.body)
            self.walk_block(stmt.orelse)
            return
        if isinstance(stmt, ast.Try):
            self.walk_block(stmt.body)
            self.guard_depth += 1
            for handler in stmt.handlers:
                self.walk_block(handler.body)
            self.walk_block(stmt.finalbody)
            self.guard_depth -= 1
            self.walk_block(stmt.orelse)
            return
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            is_lock = isinstance(stmt, ast.AsyncWith)
            with_names = set()
            for item in stmt.items:
                self.bump_call_clock(item.context_expr)
                self.eval(item.context_expr)
                if item.optional_vars is not None:
                    with_names.update(_names_in(item.optional_vars))
            if is_lock:
                self.lock_depth += 1
                self.attr_read_at.clear()
            self.walk_block(stmt.body)
            if is_lock:
                self.lock_depth -= 1
                self.attr_read_at.clear()
            # with-managed names never leak; forget any accidental tracking
            for name in with_names:
                self.resources.pop(name, None)
            return
        if isinstance(stmt, ast.Raise):
            if stmt.exc is not None:
                self.eval(stmt.exc)
            return
        if isinstance(stmt, (ast.Import, ast.ImportFrom, ast.Pass, ast.Break,
                             ast.Continue, ast.Nonlocal)):
            return
        if isinstance(stmt, (ast.Assert, ast.Delete)):
            for child in ast.iter_child_nodes(stmt):
                if isinstance(child, ast.expr):
                    self.eval(child)
            return
        # anything else: evaluate child expressions, walk child blocks
        for child in ast.iter_child_nodes(stmt):
            if isinstance(child, ast.expr):
                self.eval(child)
            elif isinstance(child, ast.stmt):
                self.walk_stmt(child)

    def bump_call_clock(self, node: ast.AST) -> None:
        if any(isinstance(n, ast.Call) for n in ast.walk(node)):
            self.call_clock += 1

    def handle_assign(
        self, targets: Sequence[ast.AST], value: ast.AST, stmt: ast.stmt
    ) -> None:
        awaits_before = self.await_count
        reads_before = dict(self.attr_read_at)
        self.bump_call_clock(value)
        term = self.eval(value)
        awaits_in_rhs = self.await_count - awaits_before
        rhs_names = set(_names_in(value))
        rhs_attrs = {
            a for a in (self.self_attr(n) for n in ast.walk(value)) if a is not None
        }

        # resource acquisition?
        kind = None
        if isinstance(value, ast.Call):
            resolved = self.m.imports.resolve(_dotted_name(value.func)) or ""
            kind = self.resource_kind(resolved)

        for target in targets:
            if isinstance(target, ast.Name):
                self.env[target.id] = term
                if self.is_set_expr(value):
                    self.set_names.add(target.id)
                else:
                    self.set_names.discard(target.id)
                unit = self.unit_of(value)
                if unit:
                    self.unit_env[target.id] = unit
                if kind is not None:
                    self.open_resource(target.id, kind, stmt)
                if target.id in self.global_names:
                    self.record_state_write(f"g:{target.id}", term, stmt)
                # names bound from a pre-await attr read participate in
                # the SIM202 dependency check
                for attr, (count, names) in self.attr_read_at.items():
                    if attr in rhs_attrs:
                        names.add(target.id)
            elif isinstance(target, ast.Tuple) and kind is not None:
                for elt in target.elts:
                    if isinstance(elt, ast.Name):
                        self.env[elt.id] = term
                        self.open_resource(elt.id, kind, stmt)
            elif isinstance(target, ast.Tuple):
                for elt in target.elts:
                    if isinstance(elt, ast.Name):
                        self.env[elt.id] = term
            else:
                attr = self.self_attr(target)
                if attr is not None:
                    self.attr_writes.add(attr)
                    self.record_state_write(attr, term, stmt)
                    self.note_escape(value, weak=False)
                    self.check_async_write(
                        attr, rhs_names, rhs_attrs, awaits_in_rhs,
                        reads_before, stmt,
                    )
                elif isinstance(target, ast.Subscript):
                    self.eval(target.value)
                    self.eval(target.slice)
                    self.note_escape(value, weak=False)

        # a resource passed into any call escapes weakly (ownership moves)
        if kind is None:
            for call in ast.walk(value):
                if isinstance(call, ast.Call):
                    for arg in list(call.args) + [k.value for k in call.keywords]:
                        self.note_escape(arg, weak=True)

    def handle_aug_assign(self, stmt: ast.AugAssign) -> None:
        awaits_before = self.await_count
        self.bump_call_clock(stmt.value)
        term = self.eval(stmt.value)
        awaits_in_rhs = self.await_count - awaits_before
        if isinstance(stmt.target, ast.Name):
            self.env[stmt.target.id] = _join(
                [self.env.get(stmt.target.id, CLEAN), term]
            )
            if stmt.target.id in self.global_names:
                self.record_state_write(f"g:{stmt.target.id}", term, stmt)
            return
        attr = self.self_attr(stmt.target)
        if attr is not None:
            self.attr_writes.add(attr)
            self.attr_reads.add(attr)
            self.record_state_write(attr, term, stmt)
            if self.is_async and not self.lock_depth and awaits_in_rhs:
                # self.x += await f(): the read-modify-write spans a
                # suspension point
                self.async_hazards.append(
                    {
                        "attr": attr,
                        "loc": _loc(stmt),
                        "end": _end(stmt),
                        "read_loc": _loc(stmt),
                    }
                )

    def record_state_write(
        self, attr: str, term: Dict[str, Any], stmt: ast.stmt
    ) -> None:
        self.state_writes.append(
            {"attr": attr, "term": term, "loc": _loc(stmt), "end": _end(stmt)}
        )

    def check_async_write(
        self,
        attr: str,
        rhs_names: set,
        rhs_attrs: set,
        awaits_in_rhs: int,
        reads_before: Dict[str, Tuple[int, set]],
        stmt: ast.stmt,
    ) -> None:
        if not self.is_async or self.lock_depth:
            return
        if awaits_in_rhs and attr in rhs_attrs:
            # read and write of the same attribute with an await between,
            # all inside one statement
            self.async_hazards.append(
                {"attr": attr, "loc": _loc(stmt), "end": _end(stmt),
                 "read_loc": _loc(stmt)}
            )
            return
        prior = reads_before.get(attr)
        if prior is None:
            return
        read_count, bound_names = prior
        if read_count < self.await_count and (
            bound_names & rhs_names or attr in rhs_attrs
        ):
            self.async_hazards.append(
                {"attr": attr, "loc": _loc(stmt), "end": _end(stmt),
                 "read_loc": _loc(stmt)}
            )


class _ModuleExtractor:
    """Drive per-function extraction over one module."""

    def __init__(self, relpath: str, tree: ast.Module) -> None:
        self.relpath = relpath
        self.tree = tree
        self.imports = _ImportTable(tree)
        self.functions: Dict[str, Dict[str, Any]] = {}
        self.classes: Dict[str, Dict[str, Any]] = {}
        self.module_resources: List[Dict[str, Any]] = []
        self.set_attrs: set = set()
        self.function_names: set = {
            n.name
            for n in tree.body
            if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
        }

    def run(self) -> Dict[str, Any]:
        # pre-pass: set-typed self attributes (shared with the classic pass)
        from ..rules import _SelfSetAttrs

        collector = _SelfSetAttrs()
        collector.visit(self.tree)
        self.set_attrs = collector.set_attrs

        module_body = []
        for stmt in self.tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self.extract_function(stmt, parent=None, class_name=None)
            elif isinstance(stmt, ast.ClassDef):
                self.extract_class(stmt, parent=None)
            else:
                module_body.append(stmt)
        self.extract_module_level(module_body)
        return {
            "path": self.relpath,
            "functions": self.functions,
            "classes": self.classes,
            "module_resources": self.module_resources,
            "imports": {
                "modules": self.imports.modules,
                "from_sites": {
                    k: list(v) for k, v in self.imports.from_sites.items()
                },
            },
        }

    def extract_module_level(self, body: List[ast.stmt]) -> None:
        """Module-scope resource globals (pre-fork state for SIM203)."""
        for stmt in body:
            targets: List[ast.AST] = []
            value: Optional[ast.AST] = None
            if isinstance(stmt, ast.Assign):
                targets, value = list(stmt.targets), stmt.value
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                targets, value = [stmt.target], stmt.value
            if value is None or not isinstance(value, ast.Call):
                continue
            resolved = self.imports.resolve(_dotted_name(value.func)) or ""
            kind = _RESOURCE_FACTORIES.get(resolved) or _LOCK_FACTORIES.get(resolved)
            if kind is None and (resolved == "Pipe" or resolved.endswith(".Pipe")):
                kind = "pipe"
            if kind is None:
                continue
            for target in targets:
                if isinstance(target, ast.Name):
                    self.module_resources.append(
                        {"scope": "global", "name": target.id, "kind": kind,
                         "loc": _loc(stmt)}
                    )

    def extract_class(self, node: ast.ClassDef, parent: Optional[str]) -> None:
        qual = f"{parent}.{node.name}" if parent else node.name
        methods = []
        resources = []
        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                methods.append(stmt.name)
                self.extract_function(stmt, parent=qual, class_name=qual)
            elif isinstance(stmt, ast.ClassDef):
                self.extract_class(stmt, parent=qual)
        # resource attrs: self.X = <factory>() anywhere in the class body
        for stmt in ast.walk(node):
            if not isinstance(stmt, ast.Assign):
                continue
            if not isinstance(stmt.value, ast.Call):
                continue
            resolved = self.imports.resolve(_dotted_name(stmt.value.func)) or ""
            kind = _RESOURCE_FACTORIES.get(resolved) or _LOCK_FACTORIES.get(resolved)
            if kind is None and (resolved == "Pipe" or resolved.endswith(".Pipe")):
                kind = "pipe"
            if kind is None:
                continue
            for target in stmt.targets:
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    resources.append(
                        {"scope": "self", "name": target.attr, "kind": kind,
                         "loc": _loc(stmt)}
                    )
        self.classes[qual] = {"methods": methods, "resources": resources}

    def extract_function(
        self,
        node: ast.AST,
        parent: Optional[str],
        class_name: Optional[str],
    ) -> None:
        name = node.name  # type: ignore[attr-defined]
        qual = f"{parent}.{name}" if parent else name
        extractor = _FunctionExtractor(self, qual, node, class_name)
        self.functions[qual] = extractor.run()


def extract_module(relpath: str, source: str) -> Optional[Dict[str, Any]]:
    """Parse and summarize one module; None when it cannot be parsed.

    (Parse failures are the classic pass's SIM100 business — the deep pass
    simply skips what it cannot read.)
    """
    try:
        tree = ast.parse(source, filename=relpath)
    except SyntaxError:
        return None
    return _ModuleExtractor(relpath, tree).run()
