"""Gossip-style membership: who is in the ring, and who is alive.

Every node keeps a :class:`MembershipTable` — one :class:`NodeInfo` row
per node it has ever heard of — and periodically pushes its whole table
to a random peer (``POST /cluster/v1/heartbeat``).  The receiver merges
row-by-row and answers with *its* table, so information spreads
epidemically: any join, leave, or load change reaches every node in
O(log N) gossip rounds without a coordinator.

Freshness is a per-node ``(generation, heartbeat)`` pair, merged by max:

* ``heartbeat`` is a counter the owning node bumps before each gossip
  round — strictly increasing while the process lives;
* ``generation`` is bumped **once per process start** and persisted in
  the node's result store (meta key ``cluster_generation``), which solves
  the restart-resurrection problem: a restarted node's heartbeat restarts
  from 0, but its higher generation makes its fresh rows win over the
  stale pre-crash rows peers still hold.

Liveness is local judgement, not gossiped: each node remembers *when it
last saw a row's freshness advance* (``last_seen``, host-monotonic) and
declares a peer dead once that exceeds ``fail_after_s``.  The alive set
feeds the hash ring; a membership change therefore *is* a rebalance.

The table is host-clock aware by design (liveness is a wall-clock
question); simlint's wall-clock rule allowlists ``cluster/*`` for exactly
this reason.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..errors import ClusterError

__all__ = ["NodeInfo", "MembershipTable"]


@dataclass
class NodeInfo:
    """One node's gossiped row: identity, address, freshness, load.

    ``generation``/``heartbeat`` order freshness (see module docstring);
    ``queue_depth``/``in_flight`` are the load hints work-stealing uses
    to pick victims.  ``last_seen`` is *local* state (host-monotonic time
    this table last saw the row's freshness advance) and never travels on
    the wire.
    """

    node_id: str
    host: str
    port: int
    generation: int = 0
    heartbeat: int = 0
    queue_depth: int = 0
    in_flight: int = 0
    last_seen: float = field(default=0.0, compare=False)

    @property
    def freshness(self) -> Tuple[int, int]:
        return (self.generation, self.heartbeat)

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    def to_wire(self) -> dict:
        """The gossiped representation (no local-only fields)."""
        return {
            "node_id": self.node_id,
            "host": self.host,
            "port": self.port,
            "generation": self.generation,
            "heartbeat": self.heartbeat,
            "queue_depth": self.queue_depth,
            "in_flight": self.in_flight,
        }

    @classmethod
    def from_wire(cls, row: dict) -> "NodeInfo":
        try:
            return cls(
                node_id=str(row["node_id"]),
                host=str(row["host"]),
                port=int(row["port"]),
                generation=int(row.get("generation", 0)),
                heartbeat=int(row.get("heartbeat", 0)),
                queue_depth=int(row.get("queue_depth", 0)),
                in_flight=int(row.get("in_flight", 0)),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ClusterError(f"malformed membership row: {row!r}") from exc


class MembershipTable:
    """The local view of the cluster: every known node plus liveness.

    Thread-safe — the gossip agent writes while HTTP handlers read.

    Args:
        self_info: this node's own row (always alive, never swept).
        fail_after_s: a peer whose freshness has not advanced for this
            many host-seconds is declared dead and drops out of the ring.
    """

    def __init__(self, self_info: NodeInfo, fail_after_s: float = 5.0) -> None:
        if fail_after_s <= 0:
            raise ClusterError(f"fail_after_s must be positive, got {fail_after_s}")
        self.fail_after_s = fail_after_s
        self.self_id = self_info.node_id
        self_info.last_seen = time.monotonic()
        self._lock = threading.Lock()
        self._rows: Dict[str, NodeInfo] = {self_info.node_id: self_info}
        self._dead: Dict[str, NodeInfo] = {}

    # -- own row --------------------------------------------------------
    def bump_self(self, queue_depth: int = 0, in_flight: int = 0) -> NodeInfo:
        """Advance our heartbeat and load hints before a gossip round."""
        with self._lock:
            me = self._rows[self.self_id]
            me.heartbeat += 1
            me.queue_depth = queue_depth
            me.in_flight = in_flight
            me.last_seen = time.monotonic()
            return me

    @property
    def self_info(self) -> NodeInfo:
        with self._lock:
            return self._rows[self.self_id]

    # -- merge ----------------------------------------------------------
    def merge(self, rows: List[NodeInfo]) -> int:
        """Fold a peer's table into ours; returns how many rows advanced.

        A row wins only if its ``(generation, heartbeat)`` is strictly
        fresher than what we hold; our own row is never overwritten by
        gossip (we are the sole authority on ourselves).  A node we had
        declared dead is resurrected only by *fresher* evidence than the
        row it died with — typically a new generation after restart.
        """
        advanced = 0
        now = time.monotonic()
        with self._lock:
            for row in rows:
                if row.node_id == self.self_id:
                    continue
                dead = self._dead.get(row.node_id)
                if dead is not None:
                    if row.freshness <= dead.freshness:
                        continue
                    del self._dead[row.node_id]
                held = self._rows.get(row.node_id)
                if held is None or row.freshness > held.freshness:
                    row.last_seen = now
                    self._rows[row.node_id] = row
                    advanced += 1
        return advanced

    def sweep(self) -> List[str]:
        """Declare peers dead whose freshness stalled; returns their ids."""
        cutoff = time.monotonic() - self.fail_after_s
        died: List[str] = []
        with self._lock:
            for node_id in list(self._rows):
                if node_id == self.self_id:
                    continue
                row = self._rows[node_id]
                if row.last_seen < cutoff:
                    self._dead[node_id] = self._rows.pop(node_id)
                    died.append(node_id)
        return sorted(died)

    # -- views ----------------------------------------------------------
    def alive_ids(self) -> List[str]:
        with self._lock:
            return sorted(self._rows)

    def get(self, node_id: str) -> Optional[NodeInfo]:
        with self._lock:
            return self._rows.get(node_id)

    def peers(self) -> List[NodeInfo]:
        """Live rows other than our own (gossip / steal targets)."""
        with self._lock:
            return [
                self._rows[node_id]
                for node_id in sorted(self._rows)
                if node_id != self.self_id
            ]

    def to_wire(self) -> List[dict]:
        """The full table as gossip rows (local-only state stripped)."""
        with self._lock:
            return [self._rows[node_id].to_wire() for node_id in sorted(self._rows)]

    def describe(self) -> dict:
        """JSON-safe liveness summary for ``/healthz``."""
        with self._lock:
            alive = sorted(self._rows)
            dead = sorted(self._dead)
        return {"alive": alive, "dead": dead, "self": self.self_id}
