"""The consistent-hash ring: content-hashed job ids → owning nodes.

Every node id is placed on a 64-bit circle at ``vnodes`` positions (its
*virtual nodes*), each position the SHA-256 of ``"{node_id}#{index}"``.
A job id is hashed onto the same circle and owned by the first virtual
node clockwise from it.  Two properties make this the right router for a
sharded result cache:

* **bounded remap** — adding or removing one of N nodes moves only the
  keys that node owns (≈ K/N of them); every other key keeps its owner,
  so a membership change invalidates almost none of the ring's placement
  (the property the join/leave tests pin down exactly);
* **smoothing** — virtual nodes break one node's arc into ``vnodes``
  small arcs scattered around the circle, so per-node load stays near
  K/N instead of tracking one arbitrary arc length.

The ring is immutable and cheap to build (sorted list + ``bisect``);
membership changes rebuild it from the new alive set rather than
patching it in place — rebuilds are counted as *rebalance events* by the
node's metrics.

Everything here is a pure function of the node set: no clocks, no
randomness, same ring on every node that agrees on membership.
"""

from __future__ import annotations

import bisect
import hashlib
from typing import Dict, Iterable, List, Tuple

from ..errors import ClusterError

__all__ = ["HashRing", "ring_position"]

#: virtual nodes per physical node — enough to hold per-node load within
#: a few tens of percent of K/N at small cluster sizes (see the skew test)
DEFAULT_VNODES = 64

_SPACE_BITS = 64


def ring_position(key: str) -> int:
    """A key's position on the 64-bit ring circle (SHA-256 derived)."""
    digest = hashlib.sha256(key.encode("utf-8")).hexdigest()
    return int(digest[: _SPACE_BITS // 4], 16)


class HashRing:
    """An immutable consistent-hash ring over a set of node ids.

    Args:
        nodes: the participating node ids (deduplicated, order-free —
            every member that agrees on the set builds the same ring).
        vnodes: virtual nodes per physical node (>= 1).
    """

    def __init__(self, nodes: Iterable[str], vnodes: int = DEFAULT_VNODES) -> None:
        if vnodes < 1:
            raise ClusterError(f"vnodes must be >= 1, got {vnodes}")
        self.vnodes = vnodes
        self.nodes: Tuple[str, ...] = tuple(sorted(set(nodes)))
        points: List[Tuple[int, str]] = []
        for node in self.nodes:
            for index in range(vnodes):
                points.append((ring_position(f"{node}#{index}"), node))
        # Position collisions across nodes are astronomically unlikely in
        # a 64-bit space; sorting by (position, node) keeps even that
        # case deterministic on every member.
        points.sort()
        self._points = points
        self._positions = [position for position, _ in points]

    def __len__(self) -> int:
        return len(self.nodes)

    def __contains__(self, node: str) -> bool:
        return node in self.nodes

    @property
    def empty(self) -> bool:
        return not self.nodes

    # -- lookups --------------------------------------------------------
    def owner(self, key: str) -> str:
        """The node owning ``key`` (first virtual node clockwise)."""
        if self.empty:
            raise ClusterError("hash ring is empty (no alive nodes)")
        index = bisect.bisect_right(self._positions, ring_position(key))
        if index == len(self._points):  # wrap past 2**64
            index = 0
        return self._points[index][1]

    def preference(self, key: str, count: int) -> List[str]:
        """The first ``count`` *distinct* nodes clockwise from ``key``.

        Element 0 is the owner; the rest are its successors — the order
        peer cache-fill probes on a miss, because a just-rebalanced key's
        previous owner is, by construction, one of the old ring's nearby
        nodes.
        """
        if self.empty:
            raise ClusterError("hash ring is empty (no alive nodes)")
        wanted = min(count, len(self.nodes))
        start = bisect.bisect_right(self._positions, ring_position(key))
        chosen: List[str] = []
        for step in range(len(self._points)):
            node = self._points[(start + step) % len(self._points)][1]
            if node not in chosen:
                chosen.append(node)
                if len(chosen) == wanted:
                    break
        return chosen

    # -- diagnostics ----------------------------------------------------
    def spread(self, keys: Iterable[str]) -> Dict[str, int]:
        """How many of ``keys`` each node owns (skew tests, ``/healthz``)."""
        tally = {node: 0 for node in self.nodes}
        for key in keys:
            tally[self.owner(key)] += 1
        return tally

    def describe(self) -> Dict[str, object]:
        """JSON-safe ring summary (the ``/cluster/v1/ring`` body)."""
        return {
            "nodes": list(self.nodes),
            "vnodes": self.vnodes,
            "points": len(self._points),
        }


def remap_fraction(before: HashRing, after: HashRing, keys: Iterable[str]) -> float:
    """Fraction of ``keys`` whose owner differs between two rings.

    The consistent-hashing headline number: for a join or leave of one
    node out of N it is ~1/N, not ~1.  Exposed for tests and the CLI's
    ``route`` diagnostics rather than the hot path.
    """
    keys = list(keys)
    if not keys:
        return 0.0
    if before.empty or after.empty:
        return 1.0
    moved = sum(1 for key in keys if before.owner(key) != after.owner(key))
    return moved / len(keys)


__all__.append("remap_fraction")
__all__.append("DEFAULT_VNODES")
