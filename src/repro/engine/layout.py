"""Structure-of-arrays state for the SIMD network.

A GPU NoC simulator stores router state as flat arrays and updates all
routers in lock-step, one kernel per pipeline stage per cycle.  This
module defines exactly that layout using NumPy arrays (our stand-in for
device memory — see the substitution table in DESIGN.md) plus the
precomputed neighbour/geometry tables kernels index with.

Array shapes are ``L`` lanes × ``R`` routers × ``P`` ports × ``V``
virtual channels × ``B`` buffer slots: each lane is an independent
same-shape simulation, and a single network is a batch of one lane.
Port 0 is the local port, as in :mod:`repro.noc.topology`.  Geometry
tables are shared across lanes (one copy, indexed by every lane),
because a batch only ever groups simulations of identical topology and
NoC config.

The packet table is global across lanes: ``buf_pkt`` stores indices into
one shared table, and lane ownership is implicit — a packet index only
ever appears in the lane that injected it, so kernels never need a
per-packet lane column.

Flat views.  The kernels address every array through one *flat cell
index* ``cell = ((lane*R + r)*P + p)*V + v`` over 1-d views of the
arrays above (``count_f`` is ``count.reshape(-1)``, same memory):

* ``cell`` indexes the ``[L,R,P,V]`` views — the input side as
  ``(lane, r, in_port, in_vc)`` and the output side (``ovc_owner``,
  ``credits``, ``va_ptr``) as ``(lane, r, out_port, out_vc)``;
* ``cell // V`` is the *port cell* ``(lane*R + r)*P + p`` indexing the
  ``[L,R,P]`` pointer views and :attr:`BatchState.nbr_pc`;
  ``cell % V`` is ``v``; ``port_cell % P`` is ``p``;
* ``cell // (P*V)`` is the *lane router* ``lane*R + r`` and
  ``cell // (R*P*V)`` the lane;
* ``cell*B + slot`` indexes the ``[L,R,P,V,B]`` buffer views.

C order of the flat index is the lane-major order ``np.nonzero`` gave
the N-d masks, so every gather, scatter and arbitration tie-break sees
cells in the order it always did.  Views are *derived* state: a pickle
of an array and of a view of it yields two unrelated arrays, so views
(and the geometry tables and scratch below) are left out of
``__getstate__`` and rebuilt by ``__setstate__``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import List

import numpy as np

from ..errors import ConfigError
from ..noc.config import NocConfig
from ..noc.topology import EAST, LOCAL, NORTH, SOUTH, WEST, Mesh, Topology

__all__ = [
    "BatchState",
    "build_batch_state",
    "mesh_geometry",
    "LOCAL_CREDITS",
    "BIG",
    "PORT_DTYPE",
    "VC_DTYPE",
    "OWNER_DTYPE",
    "PTR_DTYPE",
    "SHAPE_CONTRACT",
]

#: effectively-infinite credits for the local (ejection) port
LOCAL_CREDITS = 1 << 20

#: int64 ordering sentinel for scatter-min arbitration; never stored in state
BIG = np.iinfo(np.int64).max

# Narrow storage dtypes for the structure-of-arrays state.  Each carries a
# ``# bound:`` annotation stating why the downcast can never overflow; the
# SIM302 kernel lint treats these names as the sanctioned way to narrow
# (see docs/static-analysis.md).
PORT_DTYPE = np.int8  # bound: port ids < radix <= 127 (and the -1 sentinel)
VC_DTYPE = np.int8  # bound: VC ids < num_vcs <= 127 (and the -1 sentinel)
OWNER_DTYPE = np.int16  # bound: flat in_port*V+in_vc codes < radix*num_vcs <= 32767
PTR_DTYPE = np.int32  # bound: round-robin pointers, always reduced mod V, P, or P*V

# Machine-readable layout contract, parsed (not imported) by the SIM3xx
# kernel analyzer in :mod:`repro.analysis.arrays`.  One entry per state
# class: ``dims`` names the scalar dimension attributes in axis order,
# ``lane_axis`` marks the batching axis, each field declares its axes and
# dtype, and ``values`` names the value domain a field's elements index
# into.  Domains with ``lane_partitioned: True`` promise that a value only
# ever appears in the lane that produced it, so gathers from such fields
# are lane-safe keys: the ``pkt`` domain is declared so because a packet
# index only ever appears in the lane that injected it (see the module
# docstring), which is what makes per-packet scatters keyed by gathered
# ``buf_pkt`` values lane-safe without an explicit lane term.
SHAPE_CONTRACT = {
    "BatchState": {
        "dims": ["L", "R", "P", "V", "B"],
        "lane_axis": "L",
        "fields": {
            "x": {"shape": "R", "dtype": "int32"},
            "y": {"shape": "R", "dtype": "int32"},
            "nbr_router": {"shape": "R,P", "dtype": "int32", "values": "router"},
            "nbr_port": {"shape": "R,P", "dtype": "int32", "values": "port"},
            "buf_pkt": {"shape": "L,R,P,V,B", "dtype": "int32", "values": "pkt"},
            "buf_seq": {"shape": "L,R,P,V,B", "dtype": "int32"},
            "buf_flags": {"shape": "L,R,P,V,B", "dtype": "int8"},
            "buf_ready": {"shape": "L,R,P,V,B", "dtype": "int64"},
            "head": {"shape": "L,R,P,V", "dtype": "int32", "values": "slot"},
            "count": {"shape": "L,R,P,V", "dtype": "int32"},
            "route_port": {"shape": "L,R,P,V", "dtype": "int8", "values": "port"},
            "out_vc": {"shape": "L,R,P,V", "dtype": "int8", "values": "vc"},
            "active": {"shape": "L,R,P,V", "dtype": "bool"},
            "ovc_owner": {"shape": "L,R,P,V", "dtype": "int16"},
            "credits": {"shape": "L,R,P,V", "dtype": "int64"},
            "sa_in_ptr": {"shape": "L,R,P", "dtype": "int32"},
            "sa_out_ptr": {"shape": "L,R,P", "dtype": "int32"},
            "va_ptr": {"shape": "L,R,P,V", "dtype": "int32"},
            "pkt_dst_router": {"shape": "N", "dtype": "int32", "values": "router"},
            # 1-d views (``flat_of``: same memory, dtype and value domain
            # as the named field) — what the kernels actually index
            "buf_pkt_f": {"shape": "L*R*P*V*B", "flat_of": "buf_pkt"},
            "buf_seq_f": {"shape": "L*R*P*V*B", "flat_of": "buf_seq"},
            "buf_flags_f": {"shape": "L*R*P*V*B", "flat_of": "buf_flags"},
            "buf_ready_f": {"shape": "L*R*P*V*B", "flat_of": "buf_ready"},
            "head_f": {"shape": "L*R*P*V", "flat_of": "head"},
            "count_f": {"shape": "L*R*P*V", "flat_of": "count"},
            "route_port_f": {"shape": "L*R*P*V", "flat_of": "route_port"},
            "out_vc_f": {"shape": "L*R*P*V", "flat_of": "out_vc"},
            "active_f": {"shape": "L*R*P*V", "flat_of": "active"},
            "ovc_owner_f": {"shape": "L*R*P*V", "flat_of": "ovc_owner"},
            "ovc_owner_pv": {"shape": "L*R*P,V", "flat_of": "ovc_owner"},
            "credits_f": {"shape": "L*R*P*V", "flat_of": "credits"},
            "va_ptr_f": {"shape": "L*R*P*V", "flat_of": "va_ptr"},
            "sa_in_ptr_f": {"shape": "L*R*P", "flat_of": "sa_in_ptr"},
            "sa_out_ptr_f": {"shape": "L*R*P", "flat_of": "sa_out_ptr"},
            # lane-tiled geometry and arbitration scratch (derived)
            "nbr_pc": {"shape": "L*R*P", "dtype": "int64", "values": "L*R*P"},
            "arb_cell": {"shape": "L*R*P*V", "dtype": "int64"},
            "arb_pc": {"shape": "L*R*P", "dtype": "int64"},
        },
        # a domain with ``dim`` holds values in ``[0, dim)`` (or the -1
        # sentinel): ``flat*dim + value`` stays inside the flat family
        "domains": {
            "pkt": {"lane_partitioned": True},
            "router": {"dim": "R"},
            "port": {"dim": "P"},
            "vc": {"dim": "V"},
            "slot": {"dim": "B"},
        },
    },
}


def mesh_geometry(topo: Topology):
    """Precomputed geometry tables for a mesh: ``(x, y, nbr_router, nbr_port)``.

    The geometry is a property of the topology alone, so a batch of
    same-shape simulations indexes one copy of these tables.
    """
    if not isinstance(topo, Mesh):
        raise ConfigError(
            "the SIMD network supports mesh topologies (incl. concentrated); "
            f"got {type(topo).__name__}"
        )
    R, P = topo.num_routers, topo.radix
    rid = np.arange(R, dtype=np.int32)
    x = (rid % topo.width).astype(np.int32)
    y = (rid // topo.width).astype(np.int32)
    nbr_router = np.full((R, P), -1, dtype=np.int32)
    nbr_port = np.full((R, P), -1, dtype=np.int32)
    opposite = {EAST: WEST, WEST: EAST, NORTH: SOUTH, SOUTH: NORTH}
    for r in range(R):
        for port in (EAST, WEST, NORTH, SOUTH):
            nbr = topo.neighbor(r, port)
            if nbr is not None:
                nbr_router[r, port] = nbr
                nbr_port[r, port] = opposite[port]
    return x, y, nbr_router, nbr_port


@dataclass
class BatchState:
    """All mutable simulator state for ``L`` lanes, as flat arrays."""

    topo: Topology
    config: NocConfig
    L: int
    R: int
    P: int
    V: int
    B: int

    # --- geometry (read-only after build, shared by all lanes) ---------
    x: np.ndarray  # [R] router x coordinate
    y: np.ndarray  # [R] router y coordinate
    nbr_router: np.ndarray  # [R,P] neighbour router id (-1: edge/local)
    nbr_port: np.ndarray  # [R,P] arrival port at the neighbour

    # --- flit buffers (ring buffers per input VC) ----------------------
    buf_pkt: np.ndarray  # [L,R,P,V,B] packet-table index, -1 empty
    buf_seq: np.ndarray  # [L,R,P,V,B] flit sequence within packet
    buf_flags: np.ndarray  # [L,R,P,V,B] bit0 head, bit1 tail
    buf_ready: np.ndarray  # [L,R,P,V,B] earliest cycle the flit may move
    head: np.ndarray  # [L,R,P,V] ring-buffer head index
    count: np.ndarray  # [L,R,P,V] occupancy

    # --- per-input-VC wormhole state -----------------------------------
    route_port: np.ndarray  # [L,R,P,V] chosen output port, -1 unrouted
    out_vc: np.ndarray  # [L,R,P,V] allocated output VC, -1 none
    active: np.ndarray  # [L,R,P,V] bool: holds an output VC

    # --- output side ----------------------------------------------------
    ovc_owner: np.ndarray  # [L,R,P,V] flattened (in_port*V+in_vc) owner
    credits: np.ndarray  # [L,R,P,V] downstream credits per (out port, vc)

    # --- arbitration pointers -------------------------------------------
    sa_in_ptr: np.ndarray  # [L,R,P] round-robin over V (switch input stage)
    sa_out_ptr: np.ndarray  # [L,R,P] round-robin over P (switch output stage)
    va_ptr: np.ndarray  # [L,R,P,V] round-robin over P*V (VC allocation)

    # --- packet table (global across lanes; grows) ----------------------
    pkt_dst_router: np.ndarray = field(default=None)  # [N]
    pkt_objects: List = field(default_factory=list)

    # --- derived (rebuilt, never pickled): 1-d views of the arrays above,
    # --- lane-tiled geometry, arbitration scratch ------------------------
    buf_pkt_f: np.ndarray = field(init=False, repr=False)  # [L*R*P*V*B]
    buf_seq_f: np.ndarray = field(init=False, repr=False)
    buf_flags_f: np.ndarray = field(init=False, repr=False)
    buf_ready_f: np.ndarray = field(init=False, repr=False)
    head_f: np.ndarray = field(init=False, repr=False)  # [L*R*P*V]
    count_f: np.ndarray = field(init=False, repr=False)
    route_port_f: np.ndarray = field(init=False, repr=False)
    out_vc_f: np.ndarray = field(init=False, repr=False)
    active_f: np.ndarray = field(init=False, repr=False)
    ovc_owner_f: np.ndarray = field(init=False, repr=False)
    credits_f: np.ndarray = field(init=False, repr=False)
    va_ptr_f: np.ndarray = field(init=False, repr=False)
    sa_in_ptr_f: np.ndarray = field(init=False, repr=False)  # [L*R*P]
    sa_out_ptr_f: np.ndarray = field(init=False, repr=False)
    ovc_owner_pv: np.ndarray = field(init=False, repr=False)  # [L*R*P,V] one port's VCs
    nbr_pc: np.ndarray = field(init=False, repr=False)  # [L*R*P] see _bind_derived
    arb_cell: np.ndarray = field(init=False, repr=False)  # [L*R*P*V] scatter-min scratch
    arb_pc: np.ndarray = field(init=False, repr=False)  # [L*R*P] scatter-min scratch

    def __post_init__(self) -> None:
        self._bind_derived()

    def _bind_derived(self) -> None:
        """(Re)build the 1-d views, ``nbr_pc`` and the arbitration scratch."""
        for name in _DERIVED:
            if name.endswith("_f"):
                setattr(self, name, getattr(self, name[:-2]).reshape(-1))
        self.ovc_owner_pv = self.ovc_owner.reshape(-1, self.V)
        # Port cell of the input port a flit leaving through (r, p)
        # arrives at, same lane; -1 at mesh edges and the local port.
        # It is its own inverse, so it also maps an input port to the
        # upstream output port its credits return to.
        pc = (self.nbr_router.astype(np.int64) * self.P + self.nbr_port).reshape(-1)
        lane_base = np.arange(self.L, dtype=np.int64)[:, None] * (self.R * self.P)
        self.nbr_pc = np.where(pc >= 0, lane_base + pc, -1).reshape(-1)
        # BIG everywhere between kernel calls: each arbitration re-arms
        # only the keys it touched.
        self.arb_cell = np.full(self.L * self.R * self.P * self.V, BIG, dtype=np.int64)
        self.arb_pc = np.full(self.L * self.R * self.P, BIG, dtype=np.int64)

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        for name in _DERIVED:
            del state[name]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._bind_derived()

    def grow_packet_table(self, needed: int) -> None:
        """Ensure the packet-table arrays can index ``needed`` entries."""
        current = len(self.pkt_dst_router)
        if needed <= current:
            return
        new_size = max(needed, current * 2, 1024)
        grown = np.full(new_size, -1, dtype=np.int32)
        grown[:current] = self.pkt_dst_router
        self.pkt_dst_router = grown

    def register_packet(self, packet) -> int:
        """Add a packet to the global table; returns its index."""
        idx = len(self.pkt_objects)
        self.pkt_objects.append(packet)
        self.grow_packet_table(idx + 1)
        self.pkt_dst_router[idx] = self.topo.node_router(packet.dst)
        return idx

    # ------------------------------------------------------------------
    def buffered_flits(self, lane: int) -> int:
        return int(self.count[lane].sum())

    def total_buffered_flits(self) -> int:
        return int(self.count.sum())


#: the fields ``_bind_derived`` rebuilds
_DERIVED = tuple(f.name for f in fields(BatchState) if not f.init)


def build_batch_state(topo: Topology, config: NocConfig, lanes: int) -> BatchState:
    """Allocate and initialize all arrays for ``lanes`` same-shape sims."""
    if lanes < 1:
        raise ConfigError(f"batch needs at least one lane, got {lanes}")
    L = lanes
    R, P, V, B = topo.num_routers, topo.radix, config.num_vcs, config.buffer_depth
    x, y, nbr_router, nbr_port = mesh_geometry(topo)

    credits = np.full((L, R, P, V), B, dtype=np.int64)
    credits[:, :, LOCAL, :] = LOCAL_CREDITS
    # Edge ports have no neighbour; routing never selects them, but zero
    # credits make any bug fail loudly instead of teleporting flits.
    for port in (EAST, WEST, NORTH, SOUTH):
        credits[:, nbr_router[:, port] < 0, port, :] = 0

    return BatchState(
        topo=topo,
        config=config,
        L=L,
        R=R,
        P=P,
        V=V,
        B=B,
        x=x,
        y=y,
        nbr_router=nbr_router,
        nbr_port=nbr_port,
        buf_pkt=np.full((L, R, P, V, B), -1, dtype=np.int32),
        buf_seq=np.zeros((L, R, P, V, B), dtype=np.int32),
        buf_flags=np.zeros((L, R, P, V, B), dtype=np.int8),
        buf_ready=np.zeros((L, R, P, V, B), dtype=np.int64),
        head=np.zeros((L, R, P, V), dtype=np.int32),
        count=np.zeros((L, R, P, V), dtype=np.int32),
        route_port=np.full((L, R, P, V), -1, dtype=PORT_DTYPE),
        out_vc=np.full((L, R, P, V), -1, dtype=VC_DTYPE),
        active=np.zeros((L, R, P, V), dtype=bool),
        ovc_owner=np.full((L, R, P, V), -1, dtype=OWNER_DTYPE),
        credits=credits,
        sa_in_ptr=np.zeros((L, R, P), dtype=PTR_DTYPE),
        sa_out_ptr=np.zeros((L, R, P), dtype=PTR_DTYPE),
        va_ptr=np.zeros((L, R, P, V), dtype=PTR_DTYPE),
        pkt_dst_router=np.full(1024, -1, dtype=np.int32),
    )
