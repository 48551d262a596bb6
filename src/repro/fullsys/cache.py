"""Set-associative cache with LRU replacement and per-line coherence state.

Used for both the private L1s and the distributed L2 banks.  The cache
stores no data — only tags and states — because the simulator is timing-only.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Iterator, List, Optional, Tuple

from ..errors import ConfigError

__all__ = ["CacheLineState", "Cache"]


class CacheLineState:
    """MSI states used by the L1s (the L2 stores VALID/DIRTY only)."""

    INVALID = "I"
    SHARED = "S"
    MODIFIED = "M"
    VALID = "V"  # L2-only
    DIRTY = "D"  # L2-only


class Cache:
    """Tag array: ``sets`` sets of ``ways`` ways, true-LRU within a set.

    Each set is an :class:`OrderedDict` mapping line -> state with LRU order
    (oldest first), which makes lookup, update, and victim selection all
    O(1) amortized.
    """

    def __init__(self, num_sets: int, ways: int) -> None:
        if num_sets < 1 or ways < 1:
            raise ConfigError(f"cache needs sets>=1 and ways>=1, got {num_sets}/{ways}")
        self.num_sets = num_sets
        self.ways = ways
        self._sets: List[OrderedDict] = [OrderedDict() for _ in range(num_sets)]
        # Statistics
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    @classmethod
    def from_geometry(cls, total_lines: int, ways: int) -> "Cache":
        """Build a cache holding ``total_lines`` lines with ``ways`` ways."""
        if total_lines % ways:
            raise ConfigError(
                f"total_lines {total_lines} not divisible by ways {ways}"
            )
        return cls(total_lines // ways, ways)

    # ------------------------------------------------------------------
    def lookup(self, line: int, touch: bool = True) -> Optional[str]:
        """State of ``line`` or None; ``touch`` refreshes LRU on hit."""
        entry = self._sets[line % self.num_sets]
        state = entry.get(line)
        if state is None:
            self.misses += 1
            return None
        if touch:
            entry.move_to_end(line)
        self.hits += 1
        return state

    def peek(self, line: int) -> Optional[str]:
        """State of ``line`` without LRU or statistics side effects."""
        return self._sets[line % self.num_sets].get(line)

    def set_state(self, line: int, state: str) -> None:
        """Update the state of a line that must already be resident."""
        entry = self._sets[line % self.num_sets]
        if line not in entry:
            raise ConfigError(f"line {line} not resident; use insert()")
        entry[line] = state

    def insert(self, line: int, state: str) -> Optional[Tuple[int, str]]:
        """Insert ``line``; returns the evicted ``(line, state)`` if any."""
        entry = self._sets[line % self.num_sets]
        victim: Optional[Tuple[int, str]] = None
        if line not in entry and len(entry) >= self.ways:
            victim = entry.popitem(last=False)  # LRU = oldest
            self.evictions += 1
        entry[line] = state
        entry.move_to_end(line)
        return victim

    def invalidate(self, line: int) -> Optional[str]:
        """Drop ``line``; returns its state if it was resident."""
        return self._sets[line % self.num_sets].pop(line, None)

    # ------------------------------------------------------------------
    def resident_lines(self) -> Iterator[Tuple[int, str]]:
        for entry in self._sets:
            yield from entry.items()

    @property
    def occupancy(self) -> int:
        return sum(len(entry) for entry in self._sets)

    @property
    def miss_rate(self) -> float:
        total = self.hits + self.misses
        return self.misses / total if total else 0.0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Cache({self.num_sets}x{self.ways}, occ={self.occupancy}, "
            f"mr={self.miss_rate:.3f})"
        )
