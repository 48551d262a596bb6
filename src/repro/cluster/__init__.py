"""repro.cluster — the sharded, multi-node face of the serve layer.

N serve nodes run as one service: a consistent-hash ring over content-
addressed job ids decides which node computes what; any node accepts any
request and redirects to the owner; lookup misses fill from ring peers;
idle nodes steal queued work; gossip membership drives ring rebalancing.
Everything the single-node daemon promises — byte-identical replay,
durable admission, exactly-once completion — holds per ring, because job
identity is content, not location.

See ``docs/cluster.md`` for the architecture and the guarantees, and
``python -m repro cluster --help`` for the CLI.
"""

from .membership import MembershipTable, NodeInfo
from .node import ClusterConfig, ClusterNode
from .peer import PeerClient, PeerResult
from .ring import DEFAULT_VNODES, HashRing, remap_fraction, ring_position
from .router import Router

__all__ = [
    "ClusterConfig",
    "ClusterNode",
    "DEFAULT_VNODES",
    "HashRing",
    "MembershipTable",
    "NodeInfo",
    "PeerClient",
    "PeerResult",
    "Router",
    "remap_fraction",
    "ring_position",
]
