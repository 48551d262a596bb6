"""The router: membership's alive set → a ring → placement decisions.

A thin, thread-safe layer that owns the *current* :class:`HashRing` and
answers the three questions a node asks per request:

* ``owns(job_id)`` — is this job mine to queue and compute?
* ``owner_info(job_id)`` — who is, and at what address (the 307 target)?
* ``fill_targets(job_id)`` — which peers to probe, in preference order,
  when a lookup misses locally?

The ring is rebuilt (never patched) whenever :meth:`rebuild` sees the
alive set change; each rebuild is one *rebalance event*, counted so the
metrics surface shows churn.  Between rebuilds every lookup hits one
immutable ring — no lock is held during hashing.
"""

from __future__ import annotations

import threading
from typing import List, Optional

from ..errors import ClusterError
from .membership import MembershipTable, NodeInfo
from .ring import DEFAULT_VNODES, HashRing

__all__ = ["Router"]


class Router:
    """Placement decisions for one node, tracking the membership table."""

    def __init__(
        self, membership: MembershipTable, vnodes: int = DEFAULT_VNODES
    ) -> None:
        self.membership = membership
        self.vnodes = vnodes
        self._lock = threading.Lock()
        self._ring = HashRing(membership.alive_ids(), vnodes=vnodes)
        self.rebalances = 0

    @property
    def ring(self) -> HashRing:
        with self._lock:
            return self._ring

    def rebuild(self) -> bool:
        """Refresh the ring from the alive set; True when it changed."""
        alive = tuple(sorted(self.membership.alive_ids()))
        with self._lock:
            if alive == self._ring.nodes:
                return False
            self._ring = HashRing(alive, vnodes=self.vnodes)
            self.rebalances += 1
            return True

    # -- placement ------------------------------------------------------
    def owner_id(self, job_id: str) -> str:
        return self.ring.owner(job_id)

    def owner_info(self, job_id: str) -> Optional[NodeInfo]:
        """The owner's membership row (None if it just died un-swept)."""
        return self.membership.get(self.ring.owner(job_id))

    def fill_targets(self, job_id: str, count: int = 2) -> List[NodeInfo]:
        """Peers to probe for a missing result: owner first, then its
        distinct successors, ourselves excluded."""
        ring = self.ring
        if ring.empty:
            raise ClusterError("hash ring is empty (no alive nodes)")
        targets: List[NodeInfo] = []
        for node_id in ring.preference(job_id, count + 1):
            if node_id == self.membership.self_id:
                continue
            info = self.membership.get(node_id)
            if info is not None:
                targets.append(info)
            if len(targets) == count:
                break
        return targets

    def describe(self) -> dict:
        """JSON-safe routing summary (``/cluster/v1/ring``, ``status``)."""
        ring = self.ring
        body = ring.describe()
        body["self"] = self.membership.self_id
        body["rebalances"] = self.rebalances
        return body
