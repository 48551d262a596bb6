"""The coarse-grain full-system CMP simulator.

:class:`CmpSystem` assembles one tile per topology node — core + private L1
(:class:`~repro.fullsys.core_model.Core`), directory + L2 bank
(:class:`~repro.fullsys.directory.HomeController`) — plus memory controllers
at designated tiles, a phase-barrier, and a discrete-event kernel.

The system is network-agnostic: every inter-tile message goes through a
pluggable *transport* (``transport(msg)``) which must eventually call
:meth:`CmpSystem.deliver`.  The reciprocal-abstraction co-simulator installs
itself as the transport; :class:`FixedTransport` provides a standalone mode
for unit tests and zero-load studies.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

from ..errors import ConfigError, ProtocolError, SimulationError
from ..noc.topology import Topology
from .address import AddressMap
from .config import CmpConfig
from .coherence import (
    MEMORY_TABLE,
    Message,
    MessageKind,
    handler_table,
    message_profile,
)
from .core_model import Core, CoreProgram, Mshr
from .directory import HomeController
from .events import EventQueue
from .memory import MemoryController, assign_controllers

__all__ = ["CmpSystem", "FixedTransport"]


class FixedTransport:
    """Standalone transport: delivers every message after a fixed latency."""

    def __init__(self, system: "CmpSystem", latency: int = 12) -> None:
        if latency < 1:
            raise ConfigError(f"transport latency must be >= 1, got {latency}")
        self.system = system
        self.latency = latency

    def __call__(self, msg: Message) -> None:
        # Scheduled callbacks are bound methods plus arguments (never
        # lambdas) so the pending event heap pickles for checkpoint/restore.
        self.system.events.schedule_in(self.latency, self.system.deliver, msg)


class CmpSystem:
    """A many-core target machine.

    Args:
        topo: tile topology (one node per tile).
        config: target parameters.
        programs: one :class:`CoreProgram` per tile.
        transport: message transport; defaults to :class:`FixedTransport`.
            The co-simulation layer replaces it via :attr:`transport`.
    """

    def __init__(
        self,
        topo: Topology,
        config: Optional[CmpConfig] = None,
        programs: Optional[List[CoreProgram]] = None,
        transport: Optional[Callable[[Message], None]] = None,
    ) -> None:
        self.topo = topo
        self.config = config or CmpConfig()
        if programs is None:
            raise ConfigError("CmpSystem needs one program per tile")
        if len(programs) != topo.num_nodes:
            raise ConfigError(
                f"{len(programs)} programs for {topo.num_nodes} tiles"
            )
        self.events = EventQueue()
        self.address_map = AddressMap(topo.num_nodes)
        #: kind -> (message class, size in flits), resolved once per system
        self._profiles: Dict[str, Tuple[int, int]] = {}
        for kind in _ROUTES:
            msg_class, carries_data = message_profile(kind)
            self._profiles[kind] = (
                msg_class,
                self.config.data_flits if carries_data else self.config.ctrl_flits,
            )
        self.transport: Callable[[Message], None] = transport or FixedTransport(self)

        mc_nodes = self.config.mem_controllers
        if mc_nodes is None:
            mc_nodes = self.config.default_mem_controllers(topo.width, topo.height)
            # Node ids == router ids only at concentration 1; pick the first
            # node of each corner router otherwise.
            mc_nodes = [r * topo.concentration for r in mc_nodes]
        if self.config.memory_model == "dram":
            from ..dram import DramController

            self.memctrls: Dict[int, object] = {
                node: DramController(node, schedule=self.events.schedule_in)
                for node in mc_nodes
            }
        else:
            self.memctrls = {
                node: MemoryController(
                    node, self.config.mem_latency, self.config.mem_service
                )
                for node in mc_nodes
            }
        self._mem_assignment = assign_controllers(topo, mc_nodes)

        self.cores = [Core(i, self, programs[i]) for i in range(topo.num_nodes)]
        self.homes = [HomeController(i, self) for i in range(topo.num_nodes)]

        # Barrier bookkeeping: arrivals per phase index, out of the cores
        # whose program takes part in barriers at all.
        self._barrier_participants = sum(
            1 for program in programs if getattr(program, "barriers", True)
        )
        self._barrier_counts: Dict[int, int] = defaultdict(int)
        self._barrier_waiting: Dict[int, List[int]] = defaultdict(list)
        self._finished_cores = 0
        self.finish_cycle: Optional[int] = None

        # Statistics
        self.messages_by_kind: Dict[str, int] = defaultdict(int)
        self.network_messages = 0
        self.local_messages = 0
        self.flits_sent = 0
        self.miss_latencies: List[int] = []
        self._miss_latency_total = 0  # running sum: summary() stays O(1)

    # ------------------------------------------------------------------
    @property
    def now(self) -> int:
        return self.events.now

    def memory_node(self, tile: int) -> int:
        """The memory controller serving ``tile``'s home bank."""
        return self._mem_assignment[tile]

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Schedule every core's first segment (call once)."""
        for core in self.cores:
            core.start()

    def run_until(self, time: int) -> None:
        """Advance the whole system to ``time`` (co-simulation slice)."""
        self.events.run_until(time)

    def run_to_completion(self, max_cycles: int = 10_000_000) -> int:
        """Standalone run: start, then process events until all cores finish.

        Returns the target execution time (cycle the last core finished).
        """
        self.start()
        while self.finish_cycle is None:
            if self.events.pending == 0:
                raise SimulationError(
                    "event queue drained before all cores finished "
                    f"({self._finished_cores}/{len(self.cores)} done)"
                )
            if self.now > max_cycles:
                raise SimulationError(f"exceeded {max_cycles} cycles")
            nxt = self.events.next_event_time()
            if nxt is None:
                raise SimulationError(
                    "event queue emptied between pending check and pop"
                )
            self.events.run_until(nxt)
        return self.finish_cycle

    @property
    def all_finished(self) -> bool:
        return self.finish_cycle is not None

    # ------------------------------------------------------------------
    # Message plumbing
    # ------------------------------------------------------------------
    def send_protocol(
        self,
        kind: str,
        src: int,
        dst: int,
        line: int,
        requester: int,
        at: Optional[int] = None,
        delay: int = 0,
        acks_expected: int = 0,
    ) -> None:
        """Create and route one protocol message.

        ``at`` lets a core segment date a message at its local time (which
        can be ahead of the event clock); ``delay`` models controller
        occupancy.  Messages dated in the future are held and dispatched by
        an event at their creation time, so the transport always sees
        messages at ``now == created_cycle``.
        """
        events = self.events
        now = events.now
        created = (now if at is None else at) + delay
        try:
            msg_class, size = self._profiles[kind]
        except KeyError:
            raise ProtocolError(f"unknown message kind {kind!r}") from None
        msg = Message(
            kind, src, dst, line, requester, size, msg_class, created, acks_expected
        )
        self.messages_by_kind[kind] += 1
        if created > now:
            events.schedule(created, self._dispatch, msg)
        else:
            self._dispatch(msg)

    def _dispatch(self, msg: Message) -> None:
        """Route ``msg`` at its creation cycle (``now == created_cycle``)."""
        if msg.src == msg.dst:
            self.local_messages += 1
            self.events.schedule_in(self.config.local_latency, self.deliver, msg)
        else:
            self.network_messages += 1
            self.flits_sent += msg.size_flits
            self.transport(msg)

    def deliver(self, msg: Message) -> None:
        """Hand a message to its destination tile (called by the transport
        at delivery time)."""
        route = _ROUTES.get(msg.kind)
        if route is None:
            raise ProtocolError(f"undeliverable message {msg!r}")
        tiles, handler = route
        handler(getattr(self, tiles)[msg.dst] if tiles else self, msg)

    def _memctrl(self, msg: Message):
        mc = self.memctrls.get(msg.dst)
        if mc is None:
            raise ProtocolError(f"no memory controller at node {msg.dst}: {msg!r}")
        return mc

    def _on_mem_wb(self, msg: Message) -> None:
        self._memctrl(msg).writeback(msg.line, self.events.now)

    def _on_mem_read(self, msg: Message) -> None:
        # The completion callback is a partial of a bound method, not a
        # closure: the DRAM controller stores it in its request queue, which
        # must pickle for checkpoint/restore.
        self._memctrl(msg).read(
            msg.line, self.events.now, functools.partial(self._memory_ready, msg)
        )

    def _memory_ready(self, msg: Message, ready: int) -> None:
        """A memory read issued for ``msg`` completes at cycle ``ready``."""
        self.events.schedule(ready, self._send_mem_data, msg)

    def _send_mem_data(self, msg: Message) -> None:
        self.send_protocol(
            MessageKind.MEM_DATA, msg.dst, msg.src, msg.line, msg.requester
        )

    #: kind -> handler for the memory-bound kinds (the system is their port)
    HANDLERS = handler_table(
        {MessageKind.MEM_READ: _on_mem_read, MessageKind.MEM_WB: _on_mem_wb},
        MEMORY_TABLE,
    )

    # ------------------------------------------------------------------
    # Barrier and completion
    # ------------------------------------------------------------------
    def barrier_arrive(self, core_id: int, phase: int, t: int) -> None:
        """A core's segment reached the end of ``phase`` at local time ``t``."""
        self.events.schedule(t, self._barrier_register, core_id, phase)

    def _barrier_register(self, core_id: int, phase: int) -> None:
        core = self.cores[core_id]
        if not getattr(core.program, "barriers", True):
            self.events.schedule_in(1, core.resume_from_barrier)
            return
        self._barrier_counts[phase] += 1
        self._barrier_waiting[phase].append(core_id)
        if self._barrier_counts[phase] == self._barrier_participants:
            release = self.now + self.config.barrier_latency
            for cid in self._barrier_waiting.pop(phase):
                self.events.schedule(release, self.cores[cid].resume_from_barrier)

    def core_finished(self, core_id: int) -> None:
        self._finished_cores += 1
        if self._finished_cores == len(self.cores):
            self.finish_cycle = self.now

    def record_fill(self, core_id: int, mshr: Mshr) -> None:
        latency = self.events.now - mshr.issued_at
        self.miss_latencies.append(latency)
        self._miss_latency_total += latency

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    def total_instructions(self) -> int:
        return sum(core.instructions_retired for core in self.cores)

    def mean_miss_latency(self) -> float:
        if not self.miss_latencies:
            return 0.0
        return self._miss_latency_total / len(self.miss_latencies)

    def summary(self) -> Dict[str, float]:
        l1_hits = sum(c.l1.hits for c in self.cores)
        l1_misses = sum(c.l1.misses for c in self.cores)
        instructions = self.total_instructions()
        return {
            "cycles": float(self.now),
            "instructions": float(instructions),
            "system_ipc": instructions / self.now if self.now else 0.0,
            "network_messages": float(self.network_messages),
            "local_messages": float(self.local_messages),
            "flits_sent": float(self.flits_sent),
            "l1_miss_rate": l1_misses / (l1_hits + l1_misses)
            if (l1_hits + l1_misses)
            else 0.0,
            "mean_miss_latency": self.mean_miss_latency(),
            "finish_cycle": float(self.finish_cycle or 0),
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CmpSystem({self.topo!r}, now={self.now}, "
            f"finished={self._finished_cores}/{len(self.cores)})"
        )


#: kind -> (the CmpSystem tile array the kind is bound for, or "" for the
#: system's own memory port; handler).  Merged from the controllers' handler
#: tables, each held to its protocol table in :mod:`.coherence`, so delivery
#: can never drift from the specification the verifier checks.
_ROUTES: Dict[str, Tuple[str, Callable]] = {
    kind: (tiles, handler)
    for tiles, owner in (("homes", HomeController), ("cores", Core), ("", CmpSystem))
    for kind, handler in owner.HANDLERS.items()
}
