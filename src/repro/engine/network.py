"""The SIMD network: N same-shape simulations, one kernel stream.

:class:`SimdBatch` owns the lane-extended structure-of-arrays state and
steps every lane with one invocation of the :mod:`repro.engine.kernels`
pipeline per cycle.  Each lane is driven through a
:class:`BatchedSimdNetwork` view, which exposes exactly the driving
surface of the object-oriented :class:`~repro.noc.network.CycleNetwork`
— ``inject`` / ``step`` / ``run`` / ``drain`` / ``pop_delivered`` /
``stats`` — so adapters and the co-simulator drive a lane without
knowing it shares kernels with its batch-mates.  A single network is a
batch of one lane: :func:`SimdNetwork` builds exactly that.

The per-cycle cost is a near-constant number of array operations, so
host time per simulated cycle barely grows with router count (or lane
count): the cost profile of the paper's GPU coprocessor, and the source
of the CPU+GPU speedups experiment E6 reproduces.

Functional scope (documented simplifications vs. the OO simulator):
mesh topologies, deterministic XY routing, ``any_free`` VC selection, and
round-robin arbiters.  Timing parameters (router/link/credit/ejection
delays, VC count, buffer depth) are honoured exactly; aggregate behaviour is
validated against the OO simulator in ``tests/test_simd_vs_oo.py``.

Lockstep contract: ``lane.step()`` advances the *whole batch* one cycle.
Drivers that interleave lanes (see :mod:`repro.engine.batch`) exploit
that an adapter's ``advance(to_cycle)`` loop no-ops once the shared
clock has already reached the target.  Per-lane behaviour does not
depend on the lane count: host-side injection and ejection are per-lane
state machines, and the kernels keep lanes independent by construction.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

import numpy as np

from ..errors import ConfigError, SimulationError
from ..noc.config import NocConfig
from ..noc.packet import Packet
from ..noc.stats import NetworkStats
from ..noc.topology import LOCAL, Topology
from .kernels import FLAG_HEAD, FLAG_TAIL, route_compute, switch_traverse, vc_allocate
from .layout import build_batch_state

__all__ = ["BatchedSimdNetwork", "SimdBatch", "SimdNetwork"]


class _Source:
    """Per-router injection state (mirrors the OO network's source queue)."""

    __slots__ = ("pending", "flits_left", "pkt_index", "size", "cell")

    def __init__(self) -> None:
        self.pending: Deque[Packet] = deque()
        self.flits_left = 0
        self.pkt_index = -1
        self.size = 0
        #: flat cell of the local input VC the packet in progress enters by
        self.cell = -1

    def __setstate__(self, state: Tuple[None, Dict[str, Any]]) -> None:
        slots = dict(state[1])
        # A checkpoint written by ``batched-simd-2`` carries the VC within
        # the local port instead; only the lane view knows where that port's
        # cells start, so it is parked as ``-2 - vc`` for
        # ``BatchedSimdNetwork.__setstate__`` to rebase.
        vc = slots.pop("vc", None)
        if vc is not None:
            slots["cell"] = -2 - vc if vc >= 0 else -1
        for name, value in slots.items():
            setattr(self, name, value)


class SimdBatch:
    """Shared kernel state and clock for ``lanes`` same-shape simulations."""

    def __init__(
        self,
        topo: Topology,
        config: Optional[NocConfig] = None,
        lanes: int = 1,
    ) -> None:
        self.topo = topo
        self.config = config or NocConfig()
        if self.config.vc_select != "any_free":
            raise ConfigError("SimdBatch supports vc_select='any_free' only")
        self.cycle = 0
        self.state = build_batch_state(topo, self.config, lanes)
        self.lanes = self.state.L
        self._hops = np.zeros(1024, dtype=np.int64)
        #: credits in flight: (apply_cycle, flat output cells)
        self._pending_credits: Deque[Tuple[int, np.ndarray]] = deque()
        self.kernel_launches = 0
        self._lane_views = [BatchedSimdNetwork(self, i) for i in range(self.lanes)]

    def lane(self, index: int) -> "BatchedSimdNetwork":
        return self._lane_views[index]

    @property
    def in_flight(self) -> int:
        return sum(view.in_flight for view in self._lane_views)

    # ------------------------------------------------------------------
    def step(self) -> None:
        """Advance every lane one cycle with one kernel invocation."""
        now = self.cycle
        views = self._lane_views
        pending = self._pending_credits
        if pending and pending[0][0] <= now:
            self._apply_credits(now)
        for view in views:
            if view._future and view._future[0][0] <= now:
                view._admit(now)
        for view in views:
            if view._active_sources:
                view._inject_flits(now)
        st = self.state
        # The one occupancy scan of the cycle (ascending flat cells):
        # nothing changes ``count`` between here and the pops at the end
        # of ``switch_traverse``.
        occ = (st.count_f > 0).nonzero()[0]
        route_compute(st, occ)
        allocated = vc_allocate(st, occ)
        granted, moved, credit_cells = switch_traverse(
            st, occ, now, self._dispatch_eject, self._hops
        )
        self.kernel_launches += 4
        if len(credit_cells):
            pending.append((now + self.config.credit_delay, credit_cells))
        for view, a, g, m in zip(
            views,
            self._per_lane(allocated),
            self._per_lane(granted),
            self._per_lane(moved),
        ):
            view.va_grants += a
            view.switch_grants += g
            view.link_traversals += m
            view.buffer_writes += m
            if g:
                view._last_progress = now
            else:  # the watchdog cannot fire in a cycle that made progress
                view._check_watchdog(now)
        self.cycle = now + 1
        for view in views:
            view.stats.cycles = self.cycle

    def run(self, cycles: int) -> None:
        for _ in range(cycles):
            self.step()

    # ------------------------------------------------------------------
    def _apply_credits(self, now: int) -> None:
        while self._pending_credits and self._pending_credits[0][0] <= now:
            _, cells = self._pending_credits.popleft()
            # The switch grants one flit per input port and cycle, so one
            # credit per upstream output port: a batch's cells never repeat.
            self.state.credits_f[cells] += 1

    def _per_lane(self, cells: np.ndarray) -> List[int]:
        """How many of the flat ``cells`` lie in each lane."""
        if self.lanes == 1:
            return [len(cells)]
        return np.bincount(self.state.cell_lane[cells], minlength=self.lanes).tolist()

    def _dispatch_eject(self, cells: np.ndarray, pkt_idx: np.ndarray) -> None:
        """Hand each ejected tail flit's packet to its lane's view."""
        views = self._lane_views
        when = self.cycle + self.config.ejection_delay
        for lane, idx, hops in zip(
            self.state.cell_lane[cells].tolist(),
            pkt_idx.tolist(),
            self._hops[pkt_idx].tolist(),
        ):
            views[lane]._eject_packet(idx, hops, when)

    def grow_hops(self, needed: int) -> None:
        if needed <= len(self._hops):
            return
        grown = np.zeros(max(needed, len(self._hops) * 2), dtype=np.int64)
        grown[: len(self._hops)] = self._hops
        self._hops = grown

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SimdBatch({self.topo!r}, lanes={self.lanes}, cycle={self.cycle}, "
            f"in_flight={self.in_flight})"
        )


class BatchedSimdNetwork:
    """One lane of a :class:`SimdBatch`, driven like a ``CycleNetwork``.

    The view owns all host-side per-lane state (injection queues, the
    future heap, delivered packets, stats, energy counters, watchdog)
    and delegates cycle advancement to the shared batch — ``step()``
    steps *every* lane.
    """

    def __init__(self, batch: SimdBatch, lane_index: int) -> None:
        self.batch = batch
        self.lane_index = lane_index
        self.topo = batch.topo
        self.config = batch.config
        self.on_eject: Optional[Callable[[Packet, int], None]] = None
        self.stats = NetworkStats()
        self._sources = [_Source() for _ in range(batch.topo.num_routers)]
        # Insertion-ordered (dict-as-set) so injection order never
        # depends on hash order.
        self._active_sources: Dict[int, None] = {}
        self._future: List[Tuple[int, int, Packet]] = []
        self._future_seq = 0
        self._delivered: Deque[Packet] = deque()
        self._last_progress = 0
        # Energy event counters (see repro.noc.energy)
        self.buffer_writes = 0
        self.switch_grants = 0
        self.link_traversals = 0
        self.va_grants = 0

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self.__dict__.update(state)
        # Rebase what ``_Source.__setstate__`` parked (uses only this view's
        # own fields: the batch may not be restored yet).
        router_cells = self.topo.radix * self.config.num_vcs
        local0 = (
            self.lane_index * self.topo.num_routers * router_cells
            + LOCAL * self.config.num_vcs
        )
        for rid, source in enumerate(self._sources):
            if source.cell < -1:
                source.cell = local0 + rid * router_cells + (-2 - source.cell)

    # ------------------------------------------------------------------
    # Driving (same surface as CycleNetwork)
    # ------------------------------------------------------------------
    @property
    def cycle(self) -> int:
        return self.batch.cycle

    @property
    def kernel_launches(self) -> int:
        return self.batch.kernel_launches

    def inject(self, packet: Packet, cycle: Optional[int] = None) -> None:
        when = self.cycle if cycle is None else cycle
        if when < self.cycle:
            raise SimulationError(
                f"cannot inject at cycle {when}; network is at {self.cycle}"
            )
        packet.inject_cycle = when
        heapq.heappush(self._future, (when, self._future_seq, packet))
        self._future_seq += 1

    def step(self) -> None:
        """Advance the whole batch one cycle (lockstep contract)."""
        self.batch.step()

    def run(self, cycles: int) -> None:
        for _ in range(cycles):
            self.batch.step()

    def drain(self, max_cycles: int = 1_000_000) -> None:
        start = self.cycle
        while self.in_flight > 0:
            if self.cycle - start > max_cycles:
                raise SimulationError(
                    f"batched SIMD lane failed to drain within {max_cycles} "
                    f"cycles ({self.in_flight} packets in flight)"
                )
            self.batch.step()

    def pop_delivered(self) -> List[Packet]:
        out = list(self._delivered)
        self._delivered.clear()
        return out

    @property
    def in_flight(self) -> int:
        return self.stats.in_flight_packets + len(self._future)

    # ------------------------------------------------------------------
    # Per-cycle host-side phases (invoked by SimdBatch.step)
    # ------------------------------------------------------------------
    def _admit(self, now: int) -> None:
        while self._future and self._future[0][0] <= now:
            _, _, packet = heapq.heappop(self._future)
            router = self.topo.node_router(packet.src)
            self._sources[router].pending.append(packet)
            self._active_sources[router] = None
            self.stats.record_injection(packet)

    def _inject_flits(self, now: int) -> None:
        st = self.batch.state
        count, head = st.count_f, st.head_f
        buf_pkt, buf_seq = st.buf_pkt_f, st.buf_seq_f
        buf_flags, buf_ready = st.buf_flags_f, st.buf_ready_f
        sources = self._sources
        B = st.B
        router_cells = st.P * st.V
        local0 = self.lane_index * st.R * router_cells + LOCAL * st.V
        ready = now + self.config.router_delay
        written = 0
        done = []
        for rid in self._active_sources:
            source = sources[rid]
            left = source.flits_left
            if left == 0:
                if not source.pending:
                    done.append(rid)
                    continue
                # first flat cell of this router's local input port
                cell = self._free_local_vc(local0 + rid * router_cells)
                if cell < 0:
                    continue
                packet = source.pending.popleft()
                packet.network_entry_cycle = now
                idx = st.register_packet(packet)
                if idx >= len(self.batch._hops):
                    self.batch.grow_hops(idx + 1)
                source.pkt_index = idx
                source.size = left = packet.size_flits
                source.cell = cell
            cell = source.cell
            occupancy = count.item(cell)
            if occupancy >= B:
                source.flits_left = left
                continue
            seq = source.size - left
            slot = cell * B + (head.item(cell) + occupancy) % B
            buf_pkt[slot] = source.pkt_index
            buf_seq[slot] = seq
            buf_flags[slot] = (FLAG_HEAD if seq == 0 else 0) | (
                FLAG_TAIL if left == 1 else 0
            )
            buf_ready[slot] = ready
            count[cell] = occupancy + 1
            written += 1
            source.flits_left = left = left - 1
            if left == 0:
                source.cell = -1
                if not source.pending:
                    done.append(rid)
        self.buffer_writes += written
        for rid in done:
            self._active_sources.pop(rid, None)

    def _free_local_vc(self, local: int) -> int:
        """Flat cell of the first idle VC of the local input port whose
        cells start at ``local``, or -1."""
        st = self.batch.state
        active, route_port, count = st.active_f, st.route_port_f, st.count_f
        for cell in range(local, local + st.V):
            if (
                not active.item(cell)
                and route_port.item(cell) < 0
                and count.item(cell) == 0
            ):
                return cell
        return -1

    def _eject_packet(self, idx: int, hops: int, when: int) -> None:
        objects = self.batch.state.pkt_objects
        packet = objects[idx]
        objects[idx] = None  # the table holds packets in flight only
        packet.eject_cycle = when
        packet.hops = hops
        self.stats.record_ejection(packet)
        self._delivered.append(packet)
        if self.on_eject is not None:
            self.on_eject(packet, when)

    def _check_watchdog(self, now: int) -> None:
        limit = self.config.watchdog_cycles
        if not limit:
            return
        if self.stats.in_flight_packets > 0 and now - self._last_progress > limit:
            raise SimulationError(
                f"batched SIMD lane {self.lane_index}: no flit movement for "
                f"{limit} cycles with {self.stats.in_flight_packets} packets "
                "in flight"
            )

    # ------------------------------------------------------------------
    def buffered_flits(self) -> int:
        return self.batch.state.buffered_flits(self.lane_index)

    def energy_counters(self):
        """Event counts for :func:`repro.noc.energy.estimate_energy`."""
        from ..noc.energy import NetworkEventCounts

        return NetworkEventCounts(
            buffer_writes=self.buffer_writes,
            switch_grants=self.switch_grants,
            link_traversals=self.link_traversals,
            allocations=self.switch_grants + self.va_grants,
            ejected_flits=self.stats.ejected_flits,
            cycles=self.cycle,
            routers=self.batch.state.R,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"BatchedSimdNetwork(lane={self.lane_index}/{self.batch.lanes}, "
            f"cycle={self.cycle}, in_flight={self.in_flight})"
        )


def SimdNetwork(
    topo: Topology,
    config: Optional[NocConfig] = None,
    on_eject: Optional[Callable[[Packet, int], None]] = None,
) -> BatchedSimdNetwork:
    """A single data-parallel network: the one lane of a batch of one."""
    network = SimdBatch(topo, config, lanes=1).lane(0)
    network.on_eject = on_eject
    return network
