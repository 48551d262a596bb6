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
* the *port cell* ``(lane*R + r)*P + p`` indexes the ``[L,R,P]`` pointer
  views and the rows of ``ovc_owner_pv``;
* ``cell*B + slot`` indexes the ``[L,R,P,V,B]`` buffer views.

Geometry tables.  Every decomposition of a flat index is static, so no
kernel computes one: ``_bind_derived`` builds, once per batch, lane-tiled
tables over the cell and port-cell index (``cell_pc[cell]`` is the port
cell, ``cell_slot0[cell]`` is ``cell*B``, ``nbr_cell[cell]`` the same VC
at the far end of the link, ``xy_route[r*R + dst]`` the XY output port,
``rank_v[v*V + ptr]`` a round-robin rank, …; the full list with shapes is
in ``docs/simd-network.md``) and a per-cycle stage is gathers from them
plus adds of two gathered arrays.  At the 40–240 active cells of a cycle
a gather costs a third of an index array combined with a Python scalar
(``cell // V``).  Tables that are used as indices are ``int64``: NumPy
casts any other index dtype on every call.

One derived array is *dynamic*: ``held[cell]`` is the output cell an
active input VC holds (−1 otherwise), written at VC allocation, cleared
at the tail, and equal to ``(router's first port cell + route_port)*V +
out_vc`` wherever ``active`` — which is how ``_bind_derived`` rebuilds it.

C order of the flat index is the lane-major order ``np.nonzero`` gave
the N-d masks, so every gather, scatter and arbitration tie-break sees
cells in the order it always did.  Views and tables are *derived* state:
a pickle of an array and of a view of it yields two unrelated arrays, so
everything ``_bind_derived`` builds is left out of ``__getstate__`` and
rebuilt by ``__setstate__``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from functools import lru_cache
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
            "sa_in_ptr": {"shape": "L,R,P", "dtype": "int32", "values": "vc"},
            "sa_out_ptr": {"shape": "L,R,P", "dtype": "int32", "values": "port"},
            "va_ptr": {"shape": "L,R,P,V", "dtype": "int32", "values": "P*V"},
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
            # Derived index tables (``"derived": True``: built by
            # ``_bind_derived``, never pickled).  ``values`` spelled as a dim
            # product says the entries are flat indices of that family, so
            # ``st.<table>[flat]`` is again a flat index (lane carried when
            # the family leads with it); ``stride`` names trailing dims that
            # are zero in every entry, so ``st.<table>[flat] + small`` stays
            # in the family; a gather keeps its index's uniqueness only
            # through a table declared ``injective``.
            "cell_pc": {"shape": "L*R*P*V", "dtype": "int64", "values": "L*R*P",
                        "derived": True},
            "cell_pc0": {"shape": "L*R*P*V", "dtype": "int64", "values": "L*R*P",
                         "stride": "P", "derived": True},
            "cell_slot0": {"shape": "L*R*P*V", "dtype": "int64", "values": "L*R*P*V*B",
                           "stride": "B", "injective": True, "derived": True},
            "cell_rR": {"shape": "L*R*P*V", "dtype": "int64", "values": "R*R",
                        "stride": "R", "derived": True},
            "cell_vV": {"shape": "L*R*P*V", "dtype": "int64", "values": "V*V",
                        "stride": "V", "derived": True},
            "cell_code": {"shape": "L*R*P*V", "dtype": "int64", "values": "P*V",
                          "derived": True},
            "cell_codePV": {"shape": "L*R*P*V", "dtype": "int64", "values": "P*V*P*V",
                             "stride": "P*V", "derived": True},
            "cell_next_v": {"shape": "L*R*P*V", "dtype": "int32", "values": "vc",
                            "derived": True},
            "cell_lane": {"shape": "L*R*P*V", "dtype": "int64", "values": "L",
                          "derived": True},
            "cell_linked": {"shape": "L*R*P*V", "dtype": "bool", "derived": True},
            "nbr_cell": {"shape": "L*R*P*V", "dtype": "int64", "values": "L*R*P*V",
                         "injective": True, "derived": True},
            "pc_cell0": {"shape": "L*R*P", "dtype": "int64", "values": "L*R*P*V",
                         "stride": "V", "injective": True, "derived": True},
            "pc_pP": {"shape": "L*R*P", "dtype": "int64", "values": "P*P",
                      "stride": "P", "derived": True},
            "pc_next_p": {"shape": "L*R*P", "dtype": "int32", "values": "port",
                          "derived": True},
            "slot_next": {"shape": "L*R*P*V*B", "dtype": "int32", "values": "slot",
                          "derived": True},
            "ring_wrap": {"shape": "?", "dtype": "int64", "values": "slot",
                          "derived": True},
            "next_code": {"shape": "P*V", "dtype": "int32", "values": "P*V",
                        "derived": True},
            "rank_v": {"shape": "V*V", "dtype": "int64", "derived": True},
            "rank_p": {"shape": "P*P", "dtype": "int64", "derived": True},
            "rank_code": {"shape": "P*V*P*V", "dtype": "int64", "derived": True},
            "xy_route": {"shape": "R*R", "dtype": "int8", "values": "port",
                         "derived": True},
            # derived and dynamic: the output cell an active input VC holds
            "held": {"shape": "L*R*P*V", "dtype": "int64", "values": "L*R*P*V",
                     "injective": True, "derived": True},
            # scatter-min scratch
            "arb_cell": {"shape": "L*R*P*V", "dtype": "int64", "derived": True},
            "arb_pc": {"shape": "L*R*P", "dtype": "int64", "derived": True},
        },
        # a kernel parameter that is not state: ``occ`` is the step's one
        # occupancy scan, a duplicate-free ascending flat cell index
        "params": {"occ": "L*R*P*V"},
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


@lru_cache(maxsize=None)
def _succ(n: int) -> np.ndarray:
    """``_succ(n)[i] == (i + 1) % n`` in pointer dtype: one gather advances
    a round-robin pointer (or ring index) with no modulo and no cast."""
    table = ((np.arange(n) + 1) % n).astype(PTR_DTYPE)
    table.flags.writeable = False
    return table


@lru_cache(maxsize=None)
def _rank(n: int) -> np.ndarray:
    """``_rank(n)[i*n + ptr] == (i - ptr) % n``: the round-robin distance of
    candidate ``i`` from its bucket's pointer, as the scatter-min score
    (int64, the scratch's dtype: a mixed-dtype ``minimum.at`` is 8x slower)."""
    i = np.arange(n, dtype=np.int64)
    table = ((i[:, None] - i[None, :]) % n).reshape(-1)
    table.flags.writeable = False
    return table


#: XY output port by ``sign(dx) * 3 + sign(dy) + 4``: X first, then Y
_XY_PORT = np.array(
    [WEST, WEST, WEST, SOUTH, LOCAL, NORTH, EAST, EAST, EAST], dtype=PORT_DTYPE
)


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
    #: packet by table index; a slot is released (``None``) at ejection and
    #: never reused, so memory follows packets in flight, not history
    pkt_objects: List = field(default_factory=list)

    # --- derived (rebuilt, never pickled): 1-d views of the arrays above,
    # --- geometry tables, ``held``, per-step scratch ----------------------
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
    # tables over the flat cell index [L*R*P*V] (see _bind_derived)
    cell_pc: np.ndarray = field(init=False, repr=False)  # port cell, cell // V
    cell_pc0: np.ndarray = field(init=False, repr=False)  # router's first port cell
    cell_slot0: np.ndarray = field(init=False, repr=False)  # cell * B
    cell_rR: np.ndarray = field(init=False, repr=False)  # r * R, row of xy_route
    cell_vV: np.ndarray = field(init=False, repr=False)  # v * V, row of rank_v
    cell_code: np.ndarray = field(init=False, repr=False)  # in_port * V + in_vc
    cell_codePV: np.ndarray = field(init=False, repr=False)  # code * P*V, row of rank_code
    cell_next_v: np.ndarray = field(init=False, repr=False)  # (v + 1) % V
    cell_lane: np.ndarray = field(init=False, repr=False)
    cell_linked: np.ndarray = field(init=False, repr=False)  # bool: nbr_cell >= 0
    nbr_cell: np.ndarray = field(init=False, repr=False)  # same VC across the link
    # tables over the port cell [L*R*P]
    pc_cell0: np.ndarray = field(init=False, repr=False)  # pc * V
    pc_pP: np.ndarray = field(init=False, repr=False)  # p * P, row of rank_p
    pc_next_p: np.ndarray = field(init=False, repr=False)  # (p + 1) % P
    # lane-independent tables
    slot_next: np.ndarray = field(init=False, repr=False)  # [L*R*P*V*B] (slot + 1) % B
    ring_wrap: np.ndarray = field(init=False, repr=False)  # [2B] i % B
    next_code: np.ndarray = field(init=False, repr=False)  # [P*V] (code + 1) % (P*V)
    rank_v: np.ndarray = field(init=False, repr=False)  # [V*V] see _rank
    rank_p: np.ndarray = field(init=False, repr=False)  # [P*P]
    rank_code: np.ndarray = field(init=False, repr=False)  # [P*V*P*V]
    xy_route: np.ndarray = field(init=False, repr=False)  # [R*R] XY port of (r, dst)
    # dynamic, and scratch
    held: np.ndarray = field(init=False, repr=False)  # [L*R*P*V] output cell held, -1 none
    arb_cell: np.ndarray = field(init=False, repr=False)  # [L*R*P*V] scatter-min scratch
    arb_pc: np.ndarray = field(init=False, repr=False)  # [L*R*P] scatter-min scratch

    def __post_init__(self) -> None:
        self._bind_derived()

    def _bind_derived(self) -> None:
        """(Re)build the 1-d views, the geometry tables, ``held`` and the scratch."""
        L, R, P, V, B = self.L, self.R, self.P, self.V, self.B
        PV = P * V
        for name in _DERIVED:
            if name.endswith("_f"):
                setattr(self, name, getattr(self, name[:-2]).reshape(-1))
        self.ovc_owner_pv = self.ovc_owner.reshape(-1, V)

        cell = np.arange(L * R * PV, dtype=np.int64)
        v, code = cell % V, cell % PV
        self.cell_pc = cell // V
        self.cell_pc0 = cell // PV * P
        self.cell_slot0 = cell * B
        self.cell_rR = cell // PV % R * R
        self.cell_vV = v * V
        self.cell_code = code
        self.cell_codePV = code * PV
        self.cell_next_v = _succ(V)[v]
        self.cell_lane = cell // (R * PV)
        pc = np.arange(L * R * P, dtype=np.int64)
        p = pc % P
        self.pc_cell0 = pc * V
        self.pc_pP = p * P
        self.pc_next_p = _succ(P)[p]
        self.slot_next = np.tile(_succ(B), L * R * PV)
        self.ring_wrap = np.arange(2 * B, dtype=np.int64) % B
        self.next_code = _succ(PV)
        self.rank_v, self.rank_p, self.rank_code = _rank(V), _rank(P), _rank(PV)
        dx = np.sign(self.x[None, :] - self.x[:, None])  # [r, dst]
        dy = np.sign(self.y[None, :] - self.y[:, None])
        self.xy_route = _XY_PORT[dx * 3 + dy + 4].reshape(-1)

        # The port cell a flit leaving through (r, p) arrives at, same lane
        # (-1 at mesh edges and the local port), is its own inverse; so
        # ``nbr_cell`` maps an output cell to the downstream input VC it
        # feeds *and* an input cell to the upstream output VC its credits
        # return to.
        far = (self.nbr_router.astype(np.int64) * P + self.nbr_port).reshape(-1)
        lane_base = np.arange(L, dtype=np.int64)[:, None] * (R * P)
        far = np.where(far >= 0, lane_base + far, -1).reshape(-1)[self.cell_pc]
        self.cell_linked = far >= 0
        self.nbr_cell = np.where(self.cell_linked, far * V + v, -1)

        self.held = np.where(
            self.active_f,
            (self.cell_pc0 + self.route_port_f) * V + self.out_vc_f,
            -1,
        )
        # BIG everywhere between kernel calls: each arbitration re-arms
        # only the keys it touched.
        self.arb_cell = np.full(L * R * PV, BIG, dtype=np.int64)
        self.arb_pc = np.full(L * R * P, BIG, dtype=np.int64)

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
        if idx >= len(self.pkt_dst_router):
            self.grow_packet_table(idx + 1)
        self.pkt_dst_router[idx] = self.topo.node_router(packet.dst)
        return idx

    # ------------------------------------------------------------------
    def buffered_flits(self, lane: int) -> int:
        return int(self.count[lane].sum())


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
