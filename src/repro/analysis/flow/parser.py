"""File collection, content hashing, and the incremental summary cache.

Every lint run starts with :func:`collect_files`: one walk, one
:class:`SourceFile` per module, each read, hashed and parsed at most
once however many rule families look at it.

Per-module facts are pure functions of file content, so they cache
trivially: one JSON document maps each relative path to ``{"sha":
<content hash>, "facts": {...}}``.  :meth:`SummaryCache.load` is the one
fact loader — a warm run re-hashes every file (cheap) and only re-parses
the ones whose hash moved; everything interprocedural (call graph, taint
fixpoint, rule scoping) is recomputed from the facts each run, which is
what keeps the cache key config-independent.

The deep family's document is ``summaries.json``, stamped with the
schema version and :data:`repro.analysis.flow.summaries.FACTS_VERSION`;
any mismatch discards the whole document rather than attempting
migration.
"""

from __future__ import annotations

import ast
import hashlib
import json
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Union

from .summaries import FACTS_VERSION, summarize_module

__all__ = ["ModuleSet", "SourceFile", "SummaryCache", "collect_files", "load_modules"]

_CACHE_SCHEMA = 1
_CACHE_FILENAME = "summaries.json"


class SourceFile:
    """One collected module: read, hashed and parsed lazily, at most once."""

    def __init__(self, path: Path, rel: str) -> None:
        self.path = path
        #: posix path relative to the lint root — a file's identity in
        #: reports, caches and baselines
        self.rel = rel

    @cached_property
    def raw(self) -> Optional[bytes]:
        """The file's bytes; None when it cannot be read."""
        try:
            return self.path.read_bytes()
        except OSError:
            return None

    @cached_property
    def sha(self) -> Optional[str]:
        return None if self.raw is None else hashlib.sha256(self.raw).hexdigest()

    @cached_property
    def text(self) -> str:
        return "" if self.raw is None else self.raw.decode("utf-8", errors="replace")

    @cached_property
    def lines(self) -> List[str]:
        return self.text.splitlines()

    @cached_property
    def parsed(self) -> Union[ast.Module, SyntaxError, None]:
        """The AST, or the SyntaxError that stopped it (None: unreadable)."""
        if self.raw is None:
            return None
        try:
            return ast.parse(self.text, filename=self.rel)
        except SyntaxError as exc:
            return exc

    @property
    def tree(self) -> Optional[ast.Module]:
        parsed = self.parsed
        return parsed if isinstance(parsed, ast.Module) else None

    def release(self) -> None:
        """Drop the tree once every rule family has visited the file."""
        self.__dict__.pop("parsed", None)


def collect_files(roots: Sequence[Path]) -> List[SourceFile]:
    """Every ``*.py`` under each root (a root may be a file), in walk order."""
    files: List[SourceFile] = []
    for root in map(Path, roots):
        if root.is_file():
            files.append(SourceFile(root, root.name))
            continue
        for path in sorted(root.rglob("*.py")):
            if "__pycache__" in path.parts:
                continue
            files.append(SourceFile(path, path.relative_to(root).as_posix()))
    return files


class SummaryCache:
    """Content-hash keyed store of per-module facts.

    ``cache_dir=None`` disables persistence entirely (library default);
    the CLI points it at ``$REPRO_LINT_CACHE`` or ``.simlint_cache``.

    Each rule family keeps its own document: ``filename`` picks the file
    inside the cache dir and ``stamp`` the version string that
    invalidates it (the kernel family folds its shape-contract registry
    hash into the stamp of ``arrays.json``, for example).
    """

    def __init__(
        self,
        cache_dir: Optional[Path],
        filename: str = _CACHE_FILENAME,
        stamp: Optional[str] = None,
    ) -> None:
        #: the document's file; None when persistence is disabled
        self.path = Path(cache_dir) / filename if cache_dir else None
        self.stamp = stamp if stamp is not None else f"{_CACHE_SCHEMA}.{FACTS_VERSION}"
        self.entries: Dict[str, Dict] = {}
        #: relpath -> facts of each file loaded this run that parses
        self.loaded: Dict[str, Dict] = {}
        self.hits = 0
        self.misses = 0
        self._visited: List[str] = []
        if self.path is not None:
            self._load(self.path)

    def _load(self, path: Path) -> None:
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return
        if payload.get("version") != self.stamp:
            return
        entries = payload.get("entries")
        if isinstance(entries, dict):
            self.entries = entries

    def load(self, src: SourceFile, extract: Callable[[str, ast.Module], Dict]) -> None:
        """Add ``src``'s facts to :attr:`loaded`.

        A hit skips the parse; a miss hands the file's one tree to
        ``extract`` and stores the result (None for a parse failure).
        """
        self._visited.append(src.rel)
        if src.sha is None:
            return
        entry = self.entries.get(src.rel)
        if entry is not None and entry.get("sha") == src.sha:
            self.hits += 1
            facts = entry["facts"]
        else:
            self.misses += 1
            facts = None if src.tree is None else extract(src.rel, src.tree)
            self.entries[src.rel] = {"sha": src.sha, "facts": facts}
        if facts is not None:
            self.loaded[src.rel] = facts

    def save(self, prune: bool = True) -> None:
        """Persist the document.

        ``prune`` first drops the entries of files this run did not
        visit; a run over part of a tree passes False so it does not
        evict what runs over the whole tree stored.
        """
        if prune:
            visited = set(self._visited)
            self.entries = {k: v for k, v in self.entries.items() if k in visited}
        if self.path is None:
            return
        self.path.parent.mkdir(parents=True, exist_ok=True)
        payload = {"version": self.stamp, "entries": self.entries}
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(payload), encoding="utf-8")
        tmp.replace(self.path)


@dataclass
class ModuleSet:
    """The deep family's per-module facts, plus cache telemetry."""

    #: relpath -> module facts (parse failures excluded)
    modules: Dict[str, Dict] = field(default_factory=dict)
    #: relpaths that failed to read or parse (the classic family reports these)
    unparsed: List[str] = field(default_factory=list)
    cache_hits: int = 0
    cache_misses: int = 0


def load_modules(
    roots: Sequence[Path], cache: Optional[SummaryCache] = None
) -> ModuleSet:
    """Flow summaries for every module under ``roots``."""
    cache = cache or SummaryCache(None)
    files = collect_files(roots)
    for src in files:
        cache.load(src, summarize_module)
    cache.save()
    unparsed = [src.rel for src in files if src.rel not in cache.loaded]
    return ModuleSet(cache.loaded, unparsed, cache.hits, cache.misses)
