"""Per-cycle, whole-array update kernels for the SIMD network.

Each function is the direct analogue of one GPU kernel launch in the
paper's CPU+GPU co-simulation: one invocation reads and writes the
structure-of-arrays state for *all* routers of *all* ``L`` lanes at
once, with no per-router Python control flow.  Conflict resolution (VC
and switch allocation) uses scatter-min reductions (``np.minimum.at``)
— the standard way a data-parallel simulator replaces a sequential
arbiter loop.

The kernels address the state through the flat cell index of
:mod:`repro.engine.layout` and never compute with it: every quantity
that depends only on *where* a cell is (its port cell, its buffer's
first slot, its router's row of the XY route table, its round-robin
rank against a pointer, the VC at the far end of its link) is one gather
from a table ``BatchState._bind_derived`` built once, because at the
40-240 active cells of a cycle a stage costs NumPy's per-call overhead,
and an index array combined with a Python scalar (``cell // V``) pays
three times what a gather does.  What remains is gathers, adds of two
gathered arrays, scatter-mins and scatters; a selection is applied as
``keep = mask.nonzero()[0]`` followed by integer takes: one scan of the
mask instead of one per filtered array.

The three stages share one occupancy scan: ``SimdBatch.step`` takes
``occ = (count_f > 0).nonzero()[0]`` after injection — the occupied cells,
ascending, so in the C order every stage always enumerated — and passes
it to each; nothing changes ``count`` until ``switch_traverse`` pops.  A
stage's candidates are a filter of ``occ`` by a gathered column, never a
scan of the whole state.  ``route_compute`` routes every occupied
unrouted cell, so afterwards *occupied* implies *routed* and the
VC-allocation candidates are simply the occupied cells not ``active``.

All scatter-reduction bucket keys are flat indices that carry the lane,
so arbitration in one lane can never observe another — lane *k* of a
K-lane batch is bit-identical to its own one-lane batch
(``tests/test_engine_batched.py`` compares every array after every
cycle).  ``nonzero`` enumerates the flat views in C order, which is
lane-major ``(lane, r, p, v)`` order, so the per-lane sub-order of
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

from typing import Callable, Tuple

import numpy as np

from .layout import BIG, OWNER_DTYPE, VC_DTYPE, BatchState

__all__ = [
    "FLAG_HEAD",
    "FLAG_TAIL",
    "route_compute",
    "vc_allocate",
    "switch_traverse",
]

FLAG_HEAD = 1
FLAG_TAIL = 2


def route_compute(st: BatchState, occ: np.ndarray) -> None:
    """Kernel 1: XY route for every VC whose front flit is an unrouted head."""
    cell = occ[(st.route_port_f[occ] < 0).nonzero()[0]]
    if not len(cell):
        return
    pkt = st.buf_pkt_f[st.cell_slot0[cell] + st.head_f[cell]]
    st.route_port_f[cell] = st.xy_route[st.cell_rR[cell] + st.pkt_dst_router[pkt]]


def vc_allocate(st: BatchState, occ: np.ndarray) -> np.ndarray:
    """Kernel 2: separable VC allocation across all lanes.

    Stage 1 (selection): each routed-but-inactive input VC picks the first
    free output VC on its route port.  Stage 2 (arbitration): conflicting
    selections are resolved per output VC by round-robin priority via a
    scatter-min, keyed by the flat output cell ``(lane, r, out_port, out_vc)``, so conflicts
    never cross lanes.  Returns the flat cells of the input VCs granted.
    """
    cell = occ[(~st.active_f[occ]).nonzero()[0]]
    if not len(cell):
        return cell
    out_pc = st.cell_pc0[cell] + st.route_port_f[cell]

    # First free VC of the route port: owners are >= -1, so the first
    # minimum of a row is its first free VC; a row with none yields an
    # owned VC, which is then not free.
    out_vc = st.ovc_owner_pv[out_pc].argmin(axis=1)
    target = st.pc_cell0[out_pc] + out_vc
    keep = (st.ovc_owner_f[target] == -1).nonzero()[0]
    if len(keep) < len(cell):
        cell, out_vc, target = cell[keep], out_vc[keep], target[keep]

    rank = st.rank_code[st.cell_codePV[cell] + st.va_ptr_f[target]]
    best = st.arb_cell
    np.minimum.at(best, target, rank)
    won = rank == best[target]
    best[target] = BIG

    keep = won.nonzero()[0]
    cell, out_vc, target = cell[keep], out_vc[keep], target[keep]
    in_code = st.cell_code[cell]  # in_port * V + in_vc
    st.out_vc_f[cell] = out_vc.astype(VC_DTYPE)
    st.active_f[cell] = True
    st.held[cell] = target
    st.ovc_owner_f[target] = in_code.astype(OWNER_DTYPE)
    st.va_ptr_f[target] = st.next_code[in_code]
    return cell


def switch_traverse(
    st: BatchState,
    occ: np.ndarray,
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
    cell = occ[st.active_f[occ].nonzero()[0]]
    ready = st.buf_ready_f[st.cell_slot0[cell] + st.head_f[cell]] <= now
    cell = cell[ready.nonzero()[0]]
    out_cell = st.held[cell]
    keep = st.credits_f[out_cell].nonzero()[0]  # credits are never negative
    if not len(keep):
        return keep, keep, keep  # nothing can move: three empty index arrays
    cell, out_cell = cell[keep], out_cell[keep]
    in_pc = st.cell_pc[cell]
    best = st.arb_pc

    # Input stage: one VC per input port (round-robin over VCs).
    rank = st.rank_v[st.cell_vV[cell] + st.sa_in_ptr_f[in_pc]]
    np.minimum.at(best, in_pc, rank)
    nominated = rank == best[in_pc]
    best[in_pc] = BIG
    keep = nominated.nonzero()[0]
    cell, in_pc, out_cell = cell[keep], in_pc[keep], out_cell[keep]

    # Output stage: one input port per output port (round-robin over ports).
    out_pc = st.cell_pc[out_cell]
    rank = st.rank_p[st.pc_pP[in_pc] + st.sa_out_ptr_f[out_pc]]
    np.minimum.at(best, out_pc, rank)
    won = rank == best[out_pc]
    best[out_pc] = BIG
    keep = won.nonzero()[0]
    cell, in_pc, out_pc, out_cell = cell[keep], in_pc[keep], out_pc[keep], out_cell[keep]

    st.sa_in_ptr_f[in_pc] = st.cell_next_v[cell]
    st.sa_out_ptr_f[out_pc] = st.pc_next_p[in_pc]

    # Pop the front flits.
    front = st.cell_slot0[cell] + st.head_f[cell]
    pkt = st.buf_pkt_f[front]
    flags = st.buf_flags_f[front]
    st.buf_pkt_f[front] = -1
    st.head_f[cell] = st.slot_next[front]
    st.count_f[cell] -= 1

    # Tails release the input VC and the held output VC.
    tails = (flags & FLAG_TAIL).nonzero()[0]
    tail_cell, tail_out = cell[tails], out_cell[tails]
    st.active_f[tail_cell] = False
    st.route_port_f[tail_cell] = -1
    st.out_vc_f[tail_cell] = -1
    st.held[tail_cell] = -1
    st.ovc_owner_f[tail_out] = -1

    # Only a local output port has no cell to arrive at (edge ports never
    # hold credits): tails leaving through one leave the network.
    linked = st.cell_linked[out_cell]
    gone = tails[(~linked[tails]).nonzero()[0]]
    if len(gone):
        eject(cell[gone], pkt[gone])

    # Inter-router moves land in the neighbour's input buffer.
    keep = linked.nonzero()[0]
    if len(keep):
        pkt, flags, out_cell = pkt[keep], flags[keep], out_cell[keep]
        st.credits_f[out_cell] -= 1
        dst_cell = st.nbr_cell[out_cell]
        dst_slot = st.cell_slot0[dst_cell] + st.ring_wrap[st.head_f[dst_cell] + st.count_f[dst_cell]]
        st.buf_pkt_f[dst_slot] = pkt
        st.buf_seq_f[dst_slot] = st.buf_seq_f[front[keep]]
        st.buf_flags_f[dst_slot] = flags
        st.buf_ready_f[dst_slot] = now + st.config.link_delay + st.config.router_delay
        st.count_f[dst_cell] += 1
        np.add.at(hop_counter, pkt[(flags & FLAG_HEAD).nonzero()[0]], 1)

    # Credits for the freed input slots flow to the upstream router; the
    # local port needs none (the injection queue reads occupancy directly).
    credit = cell[st.cell_linked[cell].nonzero()[0]]
    return cell, cell[keep], st.nbr_cell[credit]
