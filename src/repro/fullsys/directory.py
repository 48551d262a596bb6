"""Home-side protocol engine: one directory + L2 bank controller per tile.

Implements the blocking home of the MSI protocol described in
:mod:`repro.fullsys.coherence`: one transaction per line at a time, ordered
by arrival, completed by the requester's Unblock.  The controller also owns
the tile's L2 bank (a non-inclusive tag cache deciding hit-vs-memory) and
talks to the tile's assigned memory controller.
"""

from __future__ import annotations

from typing import Dict

from ..errors import ProtocolError
from .cache import Cache, CacheLineState
from .coherence import (
    BUSY_MEM,
    BUSY_RECALL,
    BUSY_UNBLOCK,
    DIRECTORY_TABLE,
    IDLE,
    DirectoryEntry,
    Message,
    MessageKind,
    handler_table,
)

__all__ = ["HomeController"]


class HomeController:
    """Directory and L2 bank for the lines homed at one tile."""

    def __init__(self, tile: int, system) -> None:
        self.tile = tile
        self.system = system
        cfg = system.config
        self.l2 = Cache.from_geometry(cfg.l2_lines, cfg.l2_ways)
        #: sharing/transaction state per line; entries are created on first
        #: touch and dropped once empty, so the dict stays proportional to
        #: the active footprint rather than the address space.
        self.entries: Dict[int, DirectoryEntry] = {}
        # Statistics
        self.transactions = 0
        self.recalls = 0
        self.invalidations = 0
        self.l2_fills = 0
        self.queued_peak = 0

    # ------------------------------------------------------------------
    def entry(self, line: int) -> DirectoryEntry:
        ent = self.entries.get(line)
        if ent is None:
            ent = self.entries[line] = DirectoryEntry()
        return ent

    def _gc(self, line: int, ent: DirectoryEntry) -> None:
        if ent.is_clean_and_quiet:
            del self.entries[line]

    # ------------------------------------------------------------------
    def handle_message(self, msg: Message) -> None:
        """Dispatch a home-bound protocol message."""
        handler = self.HANDLERS.get(msg.kind)
        if handler is None:
            raise ProtocolError(f"home {self.tile}: unexpected {msg!r}")
        handler(self, msg)

    # ------------------------------------------------------------------
    # Request admission and serialization
    # ------------------------------------------------------------------
    def _on_request(self, msg: Message) -> None:
        ent = self.entry(msg.line)
        if not ent.is_idle:
            ent.pending.append(msg)
            self.queued_peak = max(self.queued_peak, len(ent.pending))
            return
        self._start(msg, ent)

    def _start(self, msg: Message, ent: DirectoryEntry) -> None:
        self.transactions += 1
        ent.active = msg
        if msg.kind == MessageKind.PUTM:
            self._do_putm(msg, ent)
        elif msg.kind in (MessageKind.GETS, MessageKind.GETX):
            self._do_get(msg, ent)
        else:
            raise ProtocolError(f"home {self.tile}: cannot start on {msg!r}")

    def _next_transaction(self, line: int) -> None:
        ent = self.entry(line)
        ent.state = IDLE
        ent.active = None
        if ent.pending:
            nxt = ent.pending.popleft()
            self._start(nxt, ent)
        else:
            self._gc(line, ent)

    # ------------------------------------------------------------------
    # Transaction bodies
    # ------------------------------------------------------------------
    def _do_putm(self, msg: Message, ent: DirectoryEntry) -> None:
        if ent.owner == msg.src:
            ent.owner = None
            self._l2_fill(msg.line, CacheLineState.DIRTY)
        # else: a recall beat the PutM; the data already came home.  Ack
        # either way so the evicting L1 can drop its shadow copy.
        self._reply(msg, MessageKind.PUT_ACK, dst=msg.src)
        self._next_transaction(msg.line)

    def _do_get(self, msg: Message, ent: DirectoryEntry) -> None:
        if ent.owner is not None:
            # Note ent.owner may equal msg.requester: the requester's GetS
            # raced ahead of its own PutM (short request packets overtake
            # long writebacks).  The recall still works — the L1 answers
            # from its evicting shadow copy.
            ent.state = BUSY_RECALL
            self.recalls += 1
            recall = (
                MessageKind.RECALL_S
                if msg.kind == MessageKind.GETS
                else MessageKind.RECALL_X
            )
            self._reply(msg, recall, dst=ent.owner)
            return
        if self.l2.lookup(msg.line) is None:
            ent.state = BUSY_MEM
            self._reply(msg, MessageKind.MEM_READ, dst=self.system.memory_node(self.tile))
            return
        self._complete_get(msg, ent)

    def _complete_get(self, msg: Message, ent: DirectoryEntry) -> None:
        """Data is available at the home; finish the transaction."""
        acks = 0
        if msg.kind == MessageKind.GETS:
            ent.sharers.add(msg.requester)
        else:  # GETX
            targets = ent.sharers - {msg.requester}
            self.invalidations += len(targets)
            # Sorted so invalidations are sent in node order: sharer sets
            # iterate by hash, which is not a reproducible message order.
            for sharer in sorted(targets):
                self._reply(msg, MessageKind.INV, dst=sharer)
            acks = len(targets)
            ent.sharers.clear()
            ent.owner = msg.requester
            # The line leaves the L2's clean image; mark dirty so a later
            # L2 victim writes back.  (The owner's copy is authoritative.)
            if self.l2.peek(msg.line) is not None:
                self.l2.set_state(msg.line, CacheLineState.DIRTY)
        ent.state = BUSY_UNBLOCK
        self._reply(
            msg,
            MessageKind.DATA,
            dst=msg.requester,
            extra_latency=self.system.config.l2_latency,
            acks_expected=acks,
        )

    # ------------------------------------------------------------------
    # Asynchronous completions
    # ------------------------------------------------------------------
    def _on_recall_data(self, msg: Message) -> None:
        ent = self.entry(msg.line)
        if ent.state != BUSY_RECALL or ent.active is None:
            raise ProtocolError(f"home {self.tile}: stray {msg!r}")
        prev_owner = ent.owner
        if prev_owner is None:
            raise ProtocolError(
                f"home {self.tile}: recall data for {msg.line:#x} arrived "
                "with no recorded owner"
            )
        ent.owner = None
        if ent.active.kind == MessageKind.GETS:
            ent.sharers.add(prev_owner)  # RecallS leaves the owner Shared
        self._l2_fill(msg.line, CacheLineState.DIRTY)
        self._complete_get(ent.active, ent)

    def _on_mem_data(self, msg: Message) -> None:
        ent = self.entry(msg.line)
        if ent.state != BUSY_MEM or ent.active is None:
            raise ProtocolError(f"home {self.tile}: stray {msg!r}")
        self._l2_fill(msg.line, CacheLineState.VALID)
        self._complete_get(ent.active, ent)

    def _on_unblock(self, msg: Message) -> None:
        ent = self.entry(msg.line)
        if ent.state != BUSY_UNBLOCK:
            raise ProtocolError(f"home {self.tile}: stray {msg!r}")
        self._next_transaction(msg.line)

    #: kind -> handler: the one dispatch table :meth:`handle_message` and
    #: :meth:`CmpSystem.deliver` share, one row per home-bound kind
    HANDLERS = handler_table(
        {
            MessageKind.GETS: _on_request,
            MessageKind.GETX: _on_request,
            MessageKind.PUTM: _on_request,
            MessageKind.RECALL_DATA: _on_recall_data,
            MessageKind.MEM_DATA: _on_mem_data,
            MessageKind.UNBLOCK: _on_unblock,
        },
        DIRECTORY_TABLE,
    )

    # ------------------------------------------------------------------
    def _l2_fill(self, line: int, state: str) -> None:
        self.l2_fills += 1
        victim = self.l2.insert(line, state)
        if victim is not None and victim[1] == CacheLineState.DIRTY:
            self.system.send_protocol(
                MessageKind.MEM_WB,
                self.tile,
                self.system.memory_node(self.tile),
                victim[0],
                self.tile,
            )

    def _reply(
        self,
        msg: Message,
        kind: str,
        dst: int,
        extra_latency: int = 0,
        acks_expected: int = 0,
    ) -> None:
        self.system.send_protocol(
            kind,
            self.tile,
            dst,
            msg.line,
            msg.requester,
            delay=self.system.config.dir_latency + extra_latency,
            acks_expected=acks_expected,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"HomeController(tile={self.tile}, tx={self.transactions})"
