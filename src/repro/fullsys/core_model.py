"""In-order core with bounded miss-level parallelism, plus its L1 controller.

The core executes a :class:`CoreProgram` — an abstract instruction stream
described by (gap, address, is_write) triples — in *segments*: one event
simulates up to ``segment_max_accesses`` memory accesses inline (L1 hits
cost their latency immediately; misses allocate MSHRs).  When the number of
outstanding misses reaches ``mlp`` the core stalls until a fill returns.
This bounded-MLP behaviour is what makes the generated network traffic
self-throttling, the property the paper shows vacuum simulation loses.

The L1 controller half of this module implements the requester side of the
MSI protocol in :mod:`repro.fullsys.coherence`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Protocol, Tuple

from ..errors import ProtocolError, WorkloadError
from .cache import Cache, CacheLineState
from .coherence import CACHE_TABLE, Message, MessageKind, handler_table

__all__ = ["CoreProgram", "Phase", "Core", "Mshr"]


@dataclass
class Phase:
    """One program phase: an instruction budget with its own access mix."""

    instructions: int
    name: str = ""


class CoreProgram(Protocol):
    """What a core executes.  Implemented by :mod:`repro.workloads`."""

    phases: List[Phase]

    def next_access(self, phase: int) -> Tuple[int, int, bool]:
        """Next memory access in ``phase``: (gap_instructions, line, is_write).

        ``gap_instructions`` is the number of non-memory instructions retired
        before this access.  Streams are infinite per phase; the phase's
        instruction budget decides when the core moves on.
        """
        ...


@dataclass(slots=True)
class Mshr:
    """Miss-status register: one outstanding L1 miss.

    ``requested_write`` is what was asked of the directory (GetS vs GetX)
    and decides the fill state; ``wants_write`` additionally tracks stores
    coalesced into a read miss — the fill then triggers a follow-up upgrade
    GetX, because installing Modified without the directory's permission
    would break coherence.
    """

    line: int
    requested_write: bool
    issued_at: int
    wants_write: bool = False
    acks_expected: Optional[int] = None  # unknown until DATA arrives
    acks_received: int = 0
    data_received: bool = False
    #: accesses coalesced into this miss while it was outstanding
    coalesced: int = 0
    #: True while the request is held back by a pending PutM for the same
    #: line (sent when the PutAck arrives) — prevents the stale-writeback
    #: race where the home mistakes the old PutM for the new copy's.
    deferred: bool = False

    @property
    def complete(self) -> bool:
        return self.data_received and (
            self.acks_expected is not None
            and self.acks_received >= self.acks_expected
        )


class Core:
    """One tile's core + L1 cache + requester-side protocol engine.

    The surrounding :class:`~repro.fullsys.cmp.CmpSystem` provides the
    event queue, message transport, and configuration through the ``system``
    handle; the core never touches other tiles directly.
    """

    def __init__(self, core_id: int, system, program: CoreProgram) -> None:
        self.core_id = core_id
        self.system = system
        self.events = system.events  # the clock, without the system.now hop
        self.program = program
        cfg = system.config
        self.l1 = Cache.from_geometry(cfg.l1_lines, cfg.l1_ways)
        self.mshrs: Dict[int, Mshr] = {}
        #: dirty lines evicted but not yet PUT_ACKed (shadow copies that can
        #: still answer a RECALL crossing the PutM in flight)
        self.evicting: Dict[int, bool] = {}  # line -> recalled?

        self.phase_idx = 0
        self.instr_done = 0  # within the current phase
        self._time_frac = 0.0  # sub-cycle accumulator for ipc division
        self.stalled = False
        self.at_barrier = False
        self.finished = False
        self.finish_cycle: Optional[int] = None

        # Statistics
        self.instructions_retired = 0
        self.accesses = 0
        self.l1_hits = 0
        self.l1_misses = 0
        self.coalesced_accesses = 0
        self.stall_events = 0
        self.upgrades = 0

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Schedule the first execution segment."""
        if not self.program.phases:
            raise WorkloadError(f"core {self.core_id} has an empty program")
        self.events.schedule(self.events.now, self._segment)

    def _segment(self) -> None:
        """Execute one bounded slice of the program."""
        if self.finished or self.stalled or self.at_barrier:
            return
        cfg = self.system.config
        now = t = self.events.now
        deadline = t + cfg.segment_max_cycles
        # The phase only changes at a barrier, which ends the segment.
        phase = self.phase_idx
        phase_budget = self.program.phases[phase].instructions
        next_access = self.program.next_access
        for _ in range(cfg.segment_max_accesses):
            if self.instr_done >= phase_budget:
                self._reach_barrier(t)
                return
            gap, line, is_write = next_access(phase)
            remaining = phase_budget - self.instr_done
            if gap >= remaining:
                # The phase ends inside the gap; retire the tail and loop
                # into the barrier branch above.
                t = self._advance(t, remaining)
                self.instr_done += remaining
                self.instructions_retired += remaining
                continue
            t = self._advance(t, gap)
            self.instr_done += gap + 1
            self.instructions_retired += gap + 1
            t = self._access(line, is_write, t)
            if self.stalled:
                return
            if t >= deadline:
                break
        self.events.schedule(max(t, now + 1), self._segment)

    def _advance(self, t: int, instructions: int) -> int:
        """Advance local time by ``instructions`` non-memory instructions."""
        exact = instructions / self.system.config.ipc + self._time_frac
        whole = int(exact)
        self._time_frac = exact - whole
        return t + whole

    def _access(self, line: int, is_write: bool, t: int) -> int:
        """Simulate one memory access at local time ``t``."""
        self.accesses += 1
        cfg = self.system.config
        state = self.l1.lookup(line)
        if state is not None:
            writable = state == CacheLineState.MODIFIED
            if not is_write or writable:
                self.l1_hits += 1
                return t + cfg.l1_hit_latency
            # Store to a Shared line: upgrade via GETX.
            self.upgrades += 1
        if line in self.mshrs:
            # Coalesce with the in-flight miss for the same line.
            mshr = self.mshrs[line]
            mshr.wants_write = mshr.wants_write or is_write
            if mshr.deferred and is_write:
                # Not sent yet: upgrade the request itself instead of
                # filling Shared and immediately upgrading.
                mshr.requested_write = True
            mshr.coalesced += 1
            self.coalesced_accesses += 1
            return t + cfg.l1_hit_latency
        self.l1_misses += 1
        self._issue_miss(line, is_write, t)
        if len(self.mshrs) >= cfg.mlp:
            self.stalled = True
            self.stall_events += 1
        return t + cfg.l1_hit_latency

    def _reach_barrier(self, t: int) -> None:
        self.at_barrier = True
        self.system.barrier_arrive(self.core_id, self.phase_idx, max(t, self.events.now))

    def resume_from_barrier(self) -> None:
        """Called by the system when the phase barrier releases."""
        self.at_barrier = False
        self.phase_idx += 1
        self.instr_done = 0
        if self.phase_idx >= len(self.program.phases):
            self.finished = True
            self.finish_cycle = self.events.now
            self.system.core_finished(self.core_id)
            return
        if not self.stalled:
            self.events.schedule(self.events.now, self._segment)

    # ------------------------------------------------------------------
    # Requester-side protocol
    # ------------------------------------------------------------------
    def _issue_miss(self, line: int, is_write: bool, t: int) -> None:
        mshr = Mshr(
            line=line, requested_write=is_write, issued_at=t, wants_write=is_write
        )
        self.mshrs[line] = mshr
        if line in self.evicting:
            # A PutM for this very line is still in flight.  Sending the
            # request now could let it overtake the PutM and make the home
            # recall us, re-grant ownership, and then misread the old PutM
            # as a writeback of the *new* copy.  Hold the request until the
            # PutAck closes the eviction (standard MSHR behaviour).
            mshr.deferred = True
            return
        self._send_miss(mshr, at=t)

    def _send_miss(self, mshr: Mshr, at: Optional[int] = None) -> None:
        kind = MessageKind.GETX if mshr.requested_write else MessageKind.GETS
        self.system.send_protocol(
            kind,
            self.core_id,
            self.system.address_map.home_tile(mshr.line),
            mshr.line,
            self.core_id,
            at=at,
        )

    def handle_message(self, msg: Message) -> None:
        """Dispatch an L1-bound protocol message."""
        handler = self.HANDLERS.get(msg.kind)
        if handler is None:
            raise ProtocolError(f"core {self.core_id}: unexpected {msg!r}")
        handler(self, msg)

    def _on_data(self, msg: Message) -> None:
        mshr = self.mshrs.get(msg.line)
        if mshr is None:
            raise ProtocolError(f"core {self.core_id}: DATA without MSHR: {msg!r}")
        mshr.data_received = True
        mshr.acks_expected = msg.acks_expected
        self._maybe_complete(mshr)

    def _on_inv_ack(self, msg: Message) -> None:
        mshr = self.mshrs.get(msg.line)
        if mshr is None:
            raise ProtocolError(f"core {self.core_id}: INV_ACK without MSHR: {msg!r}")
        mshr.acks_received += 1
        self._maybe_complete(mshr)

    def _maybe_complete(self, mshr: Mshr) -> None:
        if mshr.acks_expected is None or not mshr.data_received:
            return
        if mshr.acks_received < mshr.acks_expected:
            return
        line = mshr.line
        del self.mshrs[line]
        new_state = (
            CacheLineState.MODIFIED
            if mshr.requested_write
            else CacheLineState.SHARED
        )
        victim = self.l1.insert(line, new_state)
        if victim is not None:
            self._evict(*victim)
        self.system.send_protocol(
            MessageKind.UNBLOCK,
            self.core_id,
            self.system.address_map.home_tile(line),
            line,
            self.core_id,
        )
        self.system.record_fill(self.core_id, mshr)
        if mshr.wants_write and not mshr.requested_write:
            # A store coalesced into this read miss: the Shared fill is not
            # enough, so upgrade through the directory.
            self.upgrades += 1
            self._issue_miss(line, True, self.events.now)
        if self.stalled and len(self.mshrs) < self.system.config.mlp:
            self.stalled = False
            if not self.at_barrier and not self.finished:
                self.events.schedule(self.events.now, self._segment)

    def _evict(self, line: int, state: str) -> None:
        """Handle an L1 victim: Shared lines drop silently, Modified lines
        run the PutM transaction with a shadow copy kept until PutAck."""
        if state != CacheLineState.MODIFIED:
            return
        if line in self.evicting:
            # Unreachable by construction: re-acquiring the line (and hence
            # evicting it again) requires a request, which _issue_miss
            # defers until the previous PutM is acknowledged.
            raise ProtocolError(
                f"core {self.core_id}: double eviction of line {line}"
            )
        self.evicting[line] = False
        self.system.send_protocol(
            MessageKind.PUTM,
            self.core_id,
            self.system.address_map.home_tile(line),
            line,
            self.core_id,
        )

    def _on_inv(self, msg: Message) -> None:
        # Invalidation for a Shared copy; ack the *requester* directly.
        # The copy may have been silently evicted — ack regardless, since
        # the directory's sharer list is allowed to be stale.
        self.l1.invalidate(msg.line)
        self.system.send_protocol(
            MessageKind.INV_ACK, self.core_id, msg.requester, msg.line, msg.requester
        )

    def _on_recall(self, msg: Message) -> None:
        """Home recalls our Modified copy (RecallS downgrades, RecallX kills)."""
        line = msg.line
        state = self.l1.peek(line)
        if state == CacheLineState.MODIFIED:
            if msg.kind == MessageKind.RECALL_S:
                self.l1.set_state(line, CacheLineState.SHARED)
            else:
                self.l1.invalidate(line)
        elif line in self.evicting:
            # Our PutM crossed the recall on the wire: answer from the
            # shadow copy and remember we did, so PutAck just cleans up.
            self.evicting[line] = True
        else:
            raise ProtocolError(
                f"core {self.core_id}: recall for line {line} we do not own"
            )
        self.system.send_protocol(
            MessageKind.RECALL_DATA, self.core_id, msg.src, line, msg.requester
        )

    def _on_put_ack(self, msg: Message) -> None:
        if msg.line not in self.evicting:
            raise ProtocolError(
                f"core {self.core_id}: PutAck for line {msg.line} not evicting"
            )
        del self.evicting[msg.line]
        mshr = self.mshrs.get(msg.line)
        if mshr is not None and mshr.deferred:
            mshr.deferred = False
            self._send_miss(mshr)

    #: kind -> handler: the one dispatch table :meth:`handle_message` and
    #: :meth:`CmpSystem.deliver` share, one row per L1-bound kind
    HANDLERS = handler_table(
        {
            MessageKind.DATA: _on_data,
            MessageKind.INV: _on_inv,
            MessageKind.INV_ACK: _on_inv_ack,
            MessageKind.RECALL_S: _on_recall,
            MessageKind.RECALL_X: _on_recall,
            MessageKind.PUT_ACK: _on_put_ack,
        },
        CACHE_TABLE,
    )

    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Core({self.core_id}, phase={self.phase_idx}, "
            f"retired={self.instructions_retired}, mshrs={len(self.mshrs)})"
        )
