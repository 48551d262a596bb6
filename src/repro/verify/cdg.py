"""Network deadlock-freedom: the extended channel-dependency graph.

Dally & Seitz: a routing function is deadlock-free on a network iff its
channel-dependency graph is acyclic.  With virtual channels the graph's
nodes are ``(channel, vc)`` pairs and there is an edge ``(c1, v1) ->
(c2, v2)`` whenever a packet that holds VC ``v1`` of channel ``c1`` may
wait for VC ``v2`` of channel ``c2``.  This module constructs that graph
*extended* with everything the runtime VC allocator actually does:

* the legal-VC sets of :func:`repro.noc.vcalloc.legal_output_vcs`
  (``any_free`` vs ``class_partition`` and the torus dateline halves), and
* the per-dimension dateline class a packet accumulates as it crosses wrap
  channels (mirroring :mod:`repro.noc.network`).

Rather than enumerating per-(src, dst) paths, the builder runs one forward
search per destination over ``(channel, dateline-bits)`` states seeded from
every source router — exact for the shipped routing functions (candidate
sets depend only on the current router and destination) and O(routers²)
overall, which keeps 512-router configurations tractable.

Acyclicity certifies deadlock freedom.  A cycle refutes the certificate and
is printed as a routed dependency chain: every edge carries a witness
destination so the counterexample reads as real traffic, not as abstract
graph nodes.

Two further refutations fall out of the same search:

* **turn violation** — a routing function whose :meth:`forbidden_turns`
  declaration is contradicted by its own candidate sets (the deadlock
  argument the code claims does not describe the code), and
* **no legal VC** — a reachable ``(channel, class)`` whose legal-VC set is
  empty, i.e. packets that reach it starve before any cycle forms (the
  1-VC torus dateline corner).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from ..noc.config import NocConfig
from ..noc.packet import MessageClass
from ..noc.routing import RoutingFunction
from ..noc.topology import (
    LOCAL,
    PORT_NAMES,
    Topology,
    Torus,
    port_dimension,
)
from ..noc.vcalloc import legal_output_vcs
from .report import Finding, VerifyReport

__all__ = ["CdgResult", "build_cdg", "find_cycle", "check_network"]

#: a directed inter-router channel: (src_router, out_port)
Channel = Tuple[int, int]
#: one CDG node: (src_router, out_port, vc)
CdgNode = Tuple[int, int, int]


@dataclass
class CdgResult:
    """The extended channel-dependency graph plus search-time findings."""

    #: adjacency over (router, port, vc) nodes
    edges: Dict[CdgNode, Set[CdgNode]] = field(default_factory=dict)
    #: witness per (channel, channel) hop: (msg_class, dst_router)
    witnesses: Dict[Tuple[Channel, Channel], Tuple[int, int]] = field(
        default_factory=dict
    )
    #: turn-violation / no-legal-vc findings discovered during the search
    findings: List[Finding] = field(default_factory=list)

    @property
    def num_edges(self) -> int:
        return sum(len(v) for v in self.edges.values())


def _channel_name(topo: Topology, channel: Channel) -> str:
    router, port = channel
    nbr = topo.neighbor(router, port)
    return f"{router}-{PORT_NAMES[port]}->{nbr}"


def build_cdg(
    topo: Topology,
    routing: RoutingFunction,
    num_vcs: int,
    vc_select: str = "any_free",
    msg_classes: Optional[Tuple[int, ...]] = None,
) -> CdgResult:
    """Construct the extended channel-dependency graph.

    ``msg_classes`` defaults to what can matter: a single class under
    ``any_free`` (the legal-VC set is class-independent) and every class
    under ``class_partition``.
    """
    if msg_classes is None:
        if vc_select == "class_partition":
            msg_classes = MessageClass.ALL
        else:
            msg_classes = (MessageClass.DATA,)
    dateline = isinstance(topo, Torus)
    result = CdgResult()
    # Dedup across destinations: a (channel, vcs) -> (channel, vcs) hop seen
    # for one destination produces the same VC-level edges for every other,
    # so the cross product is expanded only once per group.
    edge_groups: Dict[
        Tuple[Channel, FrozenSet[int], Channel, FrozenSet[int]],
        Tuple[int, int],
    ] = {}
    starved: Set[Tuple[Channel, int]] = set()
    turn_findings: Dict[Tuple[int, int, int], Tuple[int, int]] = {}

    # Everything below is asked once per build, not once per search step:
    # the turn declaration per router, the far end of each channel (and
    # whether it wraps, and its dimension), and per message class the legal
    # VCs of each dateline class.  Candidates are asked once per
    # (class, destination): one row, shared by the seeds and the expansion.
    routers = range(topo.num_routers)
    forbidden_at = [routing.forbidden_turns(topo, r) for r in routers]
    ends: Dict[Channel, Tuple[int, Optional[int], bool]] = {}

    def channel_end(channel: Channel) -> Tuple[int, Optional[int], bool]:
        r1, p1 = channel
        dim = port_dimension(p1)
        r2 = topo.neighbor(r1, p1)
        wrap = dateline and r2 is not None and topo.is_wrap_channel(r1, p1)
        end = ends[channel] = (dim, r2, wrap)
        return end

    for msg_class in msg_classes:
        legal_sets = [
            frozenset(legal_output_vcs(
                vc_select, msg_class, num_vcs, dateline_active=dateline, dateline_class=d
            ))
            for d in (0, 1)
        ]
        for dst in routers:
            # State: (channel about to be / just traversed, dateline bits the
            # packet held when it *requested* that channel).
            seen: Set[Tuple[Channel, Tuple[int, int]]] = set()
            stack: List[Tuple[Channel, Tuple[int, int]]] = []
            row: List[List[int]] = [[]] * len(routers)
            for src in routers:
                if src == dst:
                    continue
                ports = row[src] = routing.candidates(topo, src, dst)
                for port in ports:
                    if port == LOCAL:
                        continue
                    state = ((src, port), (0, 0))
                    if state not in seen:
                        seen.add(state)
                        stack.append(state)
            while stack:
                (channel, bits) = stack.pop()
                p1 = channel[1]
                dim, r2, wrap = ends.get(channel) or channel_end(channel)
                dclass = bits[dim]
                vcs1 = legal_sets[dclass]
                if not vcs1 and (channel, msg_class) not in starved:
                    starved.add((channel, msg_class))
                    result.findings.append(
                        Finding(
                            check="no-legal-vc",
                            summary=(
                                f"channel {_channel_name(topo, channel)} has no "
                                f"legal output VC for class "
                                f"{MessageClass.NAMES[msg_class]} packets "
                                f"(dateline class {dclass}, "
                                f"{num_vcs} VC(s), policy {vc_select!r})"
                            ),
                            details=(
                                "Packets reaching this channel starve: the "
                                "dateline restriction leaves the VC candidate "
                                "list empty.  Increase num_vcs to >= 2 or "
                                "avoid wrap topologies at this VC count."
                            ),
                        )
                    )
                if r2 is None:  # pragma: no cover - routing off the edge
                    continue
                arrival = bits
                if wrap:
                    arrival = (1, bits[1]) if dim == 0 else (bits[0], 1)
                if r2 == dst:
                    continue  # ejects; the LOCAL sink holds no channel
                forbidden = forbidden_at[r2]
                for p2 in row[r2]:
                    if p2 == LOCAL:
                        continue
                    if (p1, p2) in forbidden and (r2, p1, p2) not in turn_findings:
                        turn_findings[(r2, p1, p2)] = (msg_class, dst)
                        result.findings.append(
                            Finding(
                                check="turn-violation",
                                summary=(
                                    f"{routing!r} declares turn "
                                    f"({PORT_NAMES[p1]} -> {PORT_NAMES[p2]}) "
                                    f"forbidden at router {r2} but routes it"
                                ),
                                details=(
                                    f"A packet for router {dst} arriving at "
                                    f"router {r2} travelling "
                                    f"{PORT_NAMES[p1]} is offered output "
                                    f"{PORT_NAMES[p2]}; the deadlock-freedom "
                                    "argument built on forbidden_turns() does "
                                    "not describe the implementation."
                                ),
                            )
                        )
                    nxt: Channel = (r2, p2)
                    nxt_dim = (ends.get(nxt) or channel_end(nxt))[0]
                    vcs2 = legal_sets[arrival[nxt_dim]]
                    key = (channel, vcs1, nxt, vcs2)
                    if key not in edge_groups:
                        edge_groups[key] = (msg_class, dst)
                    state = (nxt, arrival)
                    if state not in seen:
                        seen.add(state)
                        stack.append(state)

    for (c1, vcs1, c2, vcs2), witness in edge_groups.items():
        result.witnesses.setdefault((c1, c2), witness)
        for v1 in vcs1:
            node1 = (c1[0], c1[1], v1)
            adj = result.edges.setdefault(node1, set())
            for v2 in vcs2:
                adj.add((c2[0], c2[1], v2))
    return result


def find_cycle(edges: Dict[CdgNode, Set[CdgNode]]) -> Optional[List[CdgNode]]:
    """One cycle of the dependency graph, or ``None`` when acyclic.

    Iterative three-color DFS (the graphs reach hundreds of thousands of
    edges on large tori; recursion would overflow).  Nodes are visited in
    sorted order so the reported counterexample is deterministic.
    """
    WHITE, GRAY, BLACK = 0, 1, 2
    color: Dict[CdgNode, int] = {}
    parent: Dict[CdgNode, CdgNode] = {}
    for root in sorted(edges):
        if color.get(root, WHITE) != WHITE:
            continue
        stack: List[Tuple[CdgNode, Optional[CdgNode]]] = [(root, None)]
        while stack:
            node, pred = stack[-1]
            if color.get(node, WHITE) == WHITE:
                color[node] = GRAY
                if pred is not None:
                    parent[node] = pred
                for succ in sorted(edges.get(node, ()), reverse=True):
                    c = color.get(succ, WHITE)
                    if c == GRAY:
                        # Back edge: walk parents from node to succ.
                        cycle = [node]
                        cur = node
                        while cur != succ:
                            cur = parent[cur]
                            cycle.append(cur)
                        cycle.reverse()
                        return cycle
                    if c == WHITE:
                        stack.append((succ, node))
            else:
                if color[node] == GRAY:
                    color[node] = BLACK
                stack.pop()
    return None


def _render_cycle(
    topo: Topology, cycle: List[CdgNode], result: CdgResult
) -> str:
    lines = [
        f"dependency cycle over {len(cycle)} (channel, vc) resources; each "
        "held resource waits for the next and the last waits for the first:"
    ]
    n = len(cycle)
    for i, node in enumerate(cycle):
        r, p, v = node
        nxt = cycle[(i + 1) % n]
        witness = result.witnesses.get(((r, p), (nxt[0], nxt[1])))
        via = ""
        if witness is not None:
            msg_class, dst = witness
            via = (
                f"  [a {MessageClass.NAMES[msg_class]} packet routed to "
                f"router {dst} holds the former while requesting the latter]"
            )
        lines.append(
            f"  ({_channel_name(topo, (r, p))}, vc{v}) -> "
            f"({_channel_name(topo, (nxt[0], nxt[1]))}, vc{nxt[2]}){via}"
        )
    return "\n".join(lines)


def check_network(
    topo: Topology,
    routing: RoutingFunction,
    noc: Optional[NocConfig] = None,
    msg_classes: Optional[Tuple[int, ...]] = None,
) -> VerifyReport:
    """Certify or refute deadlock freedom for one Topology x Routing x NoC."""
    noc = noc or NocConfig()
    subject = (
        f"network {topo!r} routing={routing!r} num_vcs={noc.num_vcs} "
        f"vc_select={noc.vc_select}"
    )
    report = VerifyReport(subject=subject)
    result = build_cdg(
        topo, routing, noc.num_vcs, noc.vc_select, msg_classes=msg_classes
    )
    report.findings.extend(result.findings)
    cycle = find_cycle(result.edges)
    if cycle is not None:
        report.findings.append(
            Finding(
                check="cdg-cycle",
                summary=(
                    f"extended channel-dependency graph is cyclic "
                    f"({len(result.edges)} nodes, {result.num_edges} edges)"
                ),
                details=_render_cycle(topo, cycle, result),
            )
        )
    else:
        report.certified.append(
            f"deadlock-free: extended CDG acyclic "
            f"({len(result.edges)} nodes, {result.num_edges} edges)"
        )
        if not result.findings:
            report.certified.append(
                "every reachable (channel, class) has a non-empty legal VC set"
            )
            report.certified.append(
                "candidate routes respect the declared forbidden turns"
            )
    return report
