"""Per-cycle, whole-array update kernels for the SIMD network.

Each function is the direct analogue of one GPU kernel launch in the
paper's CPU+GPU co-simulation: one invocation reads and writes the
structure-of-arrays state for *all* routers of *all* ``L`` lanes at
once, with no per-router Python control flow.  Conflict resolution (VC
and switch allocation) uses scatter-min reductions (``np.minimum.at``)
— the standard way a data-parallel simulator replaces a sequential
arbiter loop.

The kernels address the state through the flat cell index of
:mod:`repro.engine.layout` — ``np.flatnonzero`` over a 1-d mask view,
then single-array gathers and scatters — because at a few hundred
active cells per cycle the cost of a stage is NumPy's per-call indexing
overhead, not arithmetic, and a 4-array fancy index pays it several
times over.  For the same reason a selection is applied as
``keep = mask.nonzero()[0]`` followed by integer takes: one scan of the
mask instead of one per filtered array.

All scatter-reduction bucket keys are flat indices that carry the lane,
so arbitration in one lane can never observe another — lane *k* of a
K-lane batch is bit-identical to its own one-lane batch
(``tests/test_engine_batched.py`` compares every array after every
cycle).  ``np.flatnonzero`` enumerates the flat views in C order, which
is lane-major ``(lane, r, p, v)`` order, so the per-lane sub-order of
every gather, scatter and tie-break does not depend on the lane count.

Round-robin priority is the distance from the bucket's pointer, which
is already unique within a bucket (its candidates differ in the very
coordinate the distance is taken over), so it is the scatter-min score
as is.

Arbitration fidelity note: round-robin pointers are honoured exactly, but
grant *timing* can differ from the OO router by a cycle in rare interleavings
because all routers update in lock-step from the same snapshot.  Tests bound
the resulting statistical deviation (see ``tests/test_simd_vs_oo.py``).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Tuple

import numpy as np

from ..noc.topology import EAST, LOCAL, NORTH, SOUTH, WEST
from .layout import BIG, OWNER_DTYPE, PORT_DTYPE, PTR_DTYPE, VC_DTYPE, BatchState

__all__ = [
    "FLAG_HEAD",
    "FLAG_TAIL",
    "route_compute",
    "vc_allocate",
    "switch_traverse",
]

FLAG_HEAD = 1
FLAG_TAIL = 2


@lru_cache(maxsize=None)
def _succ(n: int) -> np.ndarray:
    """``_succ(n)[i] == (i + 1) % n`` in pointer dtype: one gather advances
    a round-robin pointer (or ring index) with no modulo and no cast."""
    table = ((np.arange(n) + 1) % n).astype(PTR_DTYPE)
    table.flags.writeable = False
    return table


#: XY output port by ``sign(dx) * 3 + sign(dy) + 4``: X first, then Y
_XY_PORT = np.array(
    [WEST, WEST, WEST, SOUTH, LOCAL, NORTH, EAST, EAST, EAST], dtype=PORT_DTYPE
)


def route_compute(st: BatchState) -> None:
    """Kernel 1: XY route for every VC whose front flit is an unrouted head."""
    cell = np.flatnonzero((st.count_f > 0) & (st.route_port_f < 0))
    if not len(cell):
        return
    pkt = st.buf_pkt_f[cell * st.B + st.head_f[cell]]
    dst = st.pkt_dst_router[pkt]
    r = cell // (st.P * st.V) % st.R
    dx = st.x[dst] - st.x[r]
    dy = st.y[dst] - st.y[r]
    st.route_port_f[cell] = _XY_PORT[np.sign(dx) * 3 + np.sign(dy) + 4]


def vc_allocate(st: BatchState) -> np.ndarray:
    """Kernel 2: separable VC allocation across all lanes.

    Stage 1 (selection): each routed-but-inactive input VC picks the first
    free output VC on its route port.  Stage 2 (arbitration): conflicting
    selections are resolved per output VC by round-robin priority via a
    scatter-min, keyed by the flat output cell ``(lane, r, out_port, out_vc)``, so conflicts
    never cross lanes.  Returns the flat cells of the input VCs granted.
    """
    cell = np.flatnonzero((st.route_port_f >= 0) & ~st.active_f & (st.count_f > 0))
    if not len(cell):
        return cell
    PV = st.P * st.V
    lane_router = cell // PV
    out_pc = lane_router * st.P + st.route_port_f[cell]

    # First free VC of the route port; argmax of a row with none is VC 0,
    # which is then not free.
    out_vc = np.argmax(st.ovc_owner_pv[out_pc] == -1, axis=1)
    target = out_pc * st.V + out_vc
    keep = (st.ovc_owner_f[target] == -1).nonzero()[0]
    if len(keep) < len(cell):
        cell, lane_router, out_vc, target = (
            cell[keep], lane_router[keep], out_vc[keep], target[keep],
        )

    in_code = cell - lane_router * PV  # in_port * V + in_vc
    rank = (in_code - st.va_ptr_f[target]) % PV
    best = st.arb_cell
    np.minimum.at(best, target, rank)
    won = rank == best[target]
    best[target] = BIG

    keep = won.nonzero()[0]
    cell, out_vc, target, in_code = cell[keep], out_vc[keep], target[keep], in_code[keep]
    st.out_vc_f[cell] = out_vc.astype(VC_DTYPE)
    st.active_f[cell] = True
    st.ovc_owner_f[target] = in_code.astype(OWNER_DTYPE)
    st.va_ptr_f[target] = _succ(PV)[in_code]
    return cell


def switch_traverse(
    st: BatchState,
    now: int,
    eject: Callable[[np.ndarray, np.ndarray], None],
    hop_counter: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Kernels 3+4: switch allocation and traversal across all lanes.

    ``eject`` receives ``(cells, pkt_idx)`` of the tail flits leaving at
    a local port, lane-major in C order (so per-lane ejection order
    does not depend on the lane count).  ``hop_counter`` is the global
    per-packet hop array.

    Returns flat cells ``(granted, moved, credit_cells)``: the input VCs
    that won the switch, those of them whose flit crossed a link, and
    the upstream ``(lane, r, out_port, out_vc)`` cells whose credit
    comes back after ``credit_delay``.
    """
    V, P, B = st.V, st.P, st.B
    cell = np.flatnonzero(st.active_f & (st.count_f > 0))
    ready = st.buf_ready_f[cell * B + st.head_f[cell]] <= now
    cell = cell[ready.nonzero()[0]]
    in_pc = cell // V
    out_pc = in_pc // P * P + st.route_port_f[cell]
    out_cell = out_pc * V + st.out_vc_f[cell]
    keep = (st.credits_f[out_cell] > 0).nonzero()[0]
    if not len(keep):
        return keep, keep, keep  # nothing can move: three empty index arrays
    cell, in_pc, out_pc, out_cell = cell[keep], in_pc[keep], out_pc[keep], out_cell[keep]
    best = st.arb_pc

    # Input stage: one VC per input port (round-robin over VCs).
    v = cell % V
    rank = (v - st.sa_in_ptr_f[in_pc]) % V
    np.minimum.at(best, in_pc, rank)
    nominated = rank == best[in_pc]
    best[in_pc] = BIG
    keep = nominated.nonzero()[0]
    cell, in_pc, out_pc, out_cell, v = (
        cell[keep], in_pc[keep], out_pc[keep], out_cell[keep], v[keep],
    )

    # Output stage: one input port per output port (round-robin over ports).
    p = in_pc % P
    rank = (p - st.sa_out_ptr_f[out_pc]) % P
    np.minimum.at(best, out_pc, rank)
    won = rank == best[out_pc]
    best[out_pc] = BIG
    keep = won.nonzero()[0]
    cell, in_pc, out_pc, out_cell, v, p = (
        cell[keep], in_pc[keep], out_pc[keep], out_cell[keep], v[keep], p[keep],
    )

    st.sa_in_ptr_f[in_pc] = _succ(V)[v]
    st.sa_out_ptr_f[out_pc] = _succ(P)[p]

    # Pop the front flits.
    slot = st.head_f[cell]
    front = cell * B + slot
    pkt = st.buf_pkt_f[front]
    flags = st.buf_flags_f[front]
    st.buf_pkt_f[front] = -1
    st.head_f[cell] = _succ(B)[slot]
    st.count_f[cell] -= 1

    # Tails release the input VC and the held output VC.
    tails = (flags & FLAG_TAIL).nonzero()[0]
    tail_cell = cell[tails]
    st.active_f[tail_cell] = False
    st.route_port_f[tail_cell] = -1
    st.out_vc_f[tail_cell] = -1
    st.ovc_owner_f[out_cell[tails]] = -1

    # Only a local output port has no port cell to arrive at (edge ports
    # never hold credits): tails leaving through one leave the network.
    dst_pc = st.nbr_pc[out_pc]
    gone = tails[(dst_pc[tails] < 0).nonzero()[0]]
    if len(gone):
        eject(cell[gone], pkt[gone])

    # Inter-router moves land in the neighbour's input buffer.
    keep = (dst_pc >= 0).nonzero()[0]
    if len(keep):
        pkt, flags, out_cell = pkt[keep], flags[keep], out_cell[keep]
        st.credits_f[out_cell] -= 1
        dst_cell = dst_pc[keep] * V + out_cell % V
        dst_slot = dst_cell * B + (st.head_f[dst_cell] + st.count_f[dst_cell]) % B
        st.buf_pkt_f[dst_slot] = pkt
        st.buf_seq_f[dst_slot] = st.buf_seq_f[front[keep]]
        st.buf_flags_f[dst_slot] = flags
        st.buf_ready_f[dst_slot] = now + st.config.link_delay + st.config.router_delay
        st.count_f[dst_cell] += 1
        np.add.at(hop_counter, pkt[(flags & FLAG_HEAD).nonzero()[0]], 1)

    # Credits for the freed input slots flow to the upstream router; the
    # local port needs none (the injection queue reads occupancy directly).
    up_pc = st.nbr_pc[in_pc]
    return cell, cell[keep], (up_pc * V + v)[(up_pc >= 0).nonzero()[0]]
