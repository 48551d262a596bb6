"""Directory-based MSI coherence protocol.

The protocol is *home-centric and blocking*: every transaction for a line is
serialized at the line's home directory, which stays busy until the requester
sends an Unblock.  Dirty data always flows through the home (owner ->
home -> requester), and dirty L1 evictions are explicit transactions
(PutM / PutAck).  These two choices eliminate the classic directory races
(late writebacks, forward-to-stale-owner) at the cost of one extra hop on
owner-sourced fills — an accepted coarse-grain simplification, documented in
DESIGN.md, that slightly *increases* network traffic and therefore keeps the
co-simulation experiments conservative.

Message walk-throughs:

* **Load miss**: GETS -> home.  Home recalls the owner if any (RECALL_S /
  RECALL_DATA), fetches from memory if the L2 bank misses (MEM_READ /
  MEM_DATA), then DATA -> requester, who answers UNBLOCK.
* **Store miss / upgrade**: GETX -> home.  Home recalls an owner with
  RECALL_X, or sends INV to every sharer; sharers ack the *requester*
  directly (INV_ACK).  DATA carries ``acks_expected``; the requester
  unblocks the home after data and all acks arrive.
* **Dirty eviction**: PUTM (with data) -> home; home answers PUT_ACK.  The
  L1 keeps the line in an *evicting* shadow state until the ack so it can
  still answer a RECALL that crossed the PutM on the wire.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, FrozenSet, Iterable, Optional, Set, Tuple

from ..errors import ProtocolError
from ..noc.packet import MessageClass
from ..util import SerialCounter

__all__ = [
    "MessageKind",
    "Message",
    "DirectoryEntry",
    "message_profile",
    "TransitionSpec",
    "CacheLabel",
    "MEMORY_READY",
    "DIRECTORY_TABLE",
    "CACHE_TABLE",
    "MEMORY_TABLE",
    "BLOCKING_WAITS",
    "handler_table",
]


class MessageKind:
    """Protocol message opcodes."""

    GETS = "GetS"
    GETX = "GetX"
    RECALL_S = "RecallS"  # home -> owner: downgrade to S, send data home
    RECALL_X = "RecallX"  # home -> owner: invalidate, send data home
    RECALL_DATA = "RecallData"  # owner -> home
    DATA = "Data"  # home -> requester (carries acks_expected)
    INV = "Inv"  # home -> sharer
    INV_ACK = "InvAck"  # sharer -> requester
    UNBLOCK = "Unblock"  # requester -> home: transaction complete
    PUTM = "PutM"  # L1 -> home: dirty eviction (carries data)
    PUT_ACK = "PutAck"  # home -> L1
    MEM_READ = "MemRead"  # home -> memory controller
    MEM_DATA = "MemData"  # memory controller -> home
    MEM_WB = "MemWB"  # home -> memory controller (dirty L2 victim)


#: (message class, carries_data) per opcode; sizes resolve via CmpConfig.
_PROFILES = {
    MessageKind.GETS: (MessageClass.REQUEST, False),
    MessageKind.GETX: (MessageClass.REQUEST, False),
    MessageKind.RECALL_S: (MessageClass.CONTROL, False),
    MessageKind.RECALL_X: (MessageClass.CONTROL, False),
    MessageKind.RECALL_DATA: (MessageClass.WRITEBACK, True),
    MessageKind.DATA: (MessageClass.RESPONSE, True),
    MessageKind.INV: (MessageClass.CONTROL, False),
    MessageKind.INV_ACK: (MessageClass.CONTROL, False),
    MessageKind.UNBLOCK: (MessageClass.CONTROL, False),
    MessageKind.PUTM: (MessageClass.WRITEBACK, True),
    MessageKind.PUT_ACK: (MessageClass.CONTROL, False),
    MessageKind.MEM_READ: (MessageClass.REQUEST, False),
    MessageKind.MEM_DATA: (MessageClass.RESPONSE, True),
    MessageKind.MEM_WB: (MessageClass.WRITEBACK, True),
}


def message_profile(kind: str) -> tuple:
    """``(msg_class, carries_data)`` for an opcode."""
    try:
        return _PROFILES[kind]
    except KeyError:
        raise ProtocolError(f"unknown message kind {kind!r}") from None


# Restorable (not itertools.count) so checkpoint/restore can reinstate the
# exact id position and a restored run issues the same mids it would have.
_msg_ids = SerialCounter()


def message_id_state() -> int:
    """Snapshot the message-id counter (for checkpoint/restore)."""
    return _msg_ids.state()


def restore_message_id_state(state: int) -> None:
    """Reinstate a snapshotted message-id counter position."""
    _msg_ids.restore(state)


@dataclass(slots=True)
class Message:
    """One protocol message travelling between tiles.

    ``size_flits`` and ``msg_class`` are what the network sees; everything
    else is protocol payload.  Slotted, and built positionally on the send
    path: a co-simulation creates one per protocol hop.
    """

    kind: str
    src: int
    dst: int
    line: int
    requester: int
    size_flits: int
    msg_class: int
    created_cycle: int = 0
    acks_expected: int = 0
    mid: int = field(default_factory=_msg_ids.next)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Msg({self.kind} {self.src}->{self.dst} line={self.line} "
            f"req={self.requester} t={self.created_cycle})"
        )


# Directory-entry busy states
IDLE = "idle"
BUSY_RECALL = "busy_recall"  # waiting for RECALL_DATA from the old owner
BUSY_MEM = "busy_mem"  # waiting for MEM_DATA from a memory controller
BUSY_UNBLOCK = "busy_unblock"  # waiting for the requester's UNBLOCK


@dataclass(slots=True)
class DirectoryEntry:
    """Sharing state and transaction context for one line at its home."""

    owner: Optional[int] = None
    sharers: Set[int] = field(default_factory=set)
    state: str = IDLE
    #: request currently being serviced (None when IDLE)
    active: Optional[Message] = None
    #: requests waiting for the line to go idle
    pending: Deque[Message] = field(default_factory=deque)

    @property
    def is_idle(self) -> bool:
        return self.state == IDLE

    @property
    def is_clean_and_quiet(self) -> bool:
        """True when the entry carries no information and can be dropped."""
        return (
            self.state == IDLE
            and self.owner is None
            and not self.sharers
            and not self.pending
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DirEntry(owner={self.owner}, sharers={sorted(self.sharers)}, "
            f"state={self.state}, queued={len(self.pending)})"
        )


# ---------------------------------------------------------------------------
# Declarative protocol tables
# ---------------------------------------------------------------------------
#
# The tables below are the protocol *specification* the implementations in
# :mod:`repro.fullsys.directory` and :mod:`repro.fullsys.core_model` are held
# to.  They are data, not code, so that
#
# * :mod:`repro.fullsys.cmp` can derive message routing (which controller a
#   kind is bound for) instead of hard-coding parallel kind sets, and
# * the configuration verifier (:mod:`repro.verify.protocol`) can run the
#   controllers themselves over the reachable protocol state space and flag
#   any (state, kind) pair the tables do not cover, or a handler that
#   strays from its row — before a single cycle is simulated.
#
# A row keyed ``(state_label, kind)`` means: a controller whose abstract
# state has that label handles an arriving message of that kind, may emit
# any subset of ``emits``, and lands in one of ``next_states``.  *Absence*
# of a row is a claim that the pair is unreachable; the verifier either
# proves that claim or produces the message interleaving that refutes it.


@dataclass(frozen=True)
class TransitionSpec:
    """One (state, message kind) row of a protocol table."""

    #: message kinds the handler may send while processing (superset).
    emits: FrozenSet[str]
    #: abstract state labels the controller may be in afterwards.
    next_states: FrozenSet[str]


def _spec(emits: Iterable[str] = (), next_states: Iterable[str] = ()) -> TransitionSpec:
    return TransitionSpec(frozenset(emits), frozenset(next_states))


class CacheLabel:
    """Abstract L1 states (base MSI x MSHR x eviction shadow).

    The stable states are plain MSI.  Transient names follow the usual
    Sorin-style convention: ``XY_Z`` is "was X, becoming Y, waiting for Z"
    with D = data and A = acks (PutAck for the eviction states).  ``^def``
    marks a miss deferred behind an in-flight PutM for the same line
    (:class:`~repro.fullsys.core_model.Mshr` ``deferred``), and ``^defr``
    additionally records that the eviction shadow already answered a recall
    (so the line may be on the directory's sharer list again).
    """

    I = "I"  # noqa: E741 - conventional MSI name
    S = "S"
    M = "M"
    IS_D = "IS_D"
    IM_AD = "IM_AD"
    IM_A = "IM_A"
    SM_AD = "SM_AD"
    SM_A = "SM_A"
    MI_A = "MI_A"
    II_A = "II_A"
    IS_D_DEF = "IS_D^def"
    IM_AD_DEF = "IM_AD^def"
    IS_D_DEF_R = "IS_D^defr"
    IM_AD_DEF_R = "IM_AD^defr"

    STABLE = frozenset((I, S, M))
    TRANSIENT = frozenset(
        (IS_D, IM_AD, IM_A, SM_AD, SM_A, MI_A, II_A,
         IS_D_DEF, IM_AD_DEF, IS_D_DEF_R, IM_AD_DEF_R)
    )
    ALL = STABLE | TRANSIENT


#: the (only) abstract state of a memory controller: always ready.
MEMORY_READY = "ready"

_QUEUED_KINDS = (MessageKind.GETS, MessageKind.GETX, MessageKind.PUTM)

#: Home/directory transitions.  Requests arriving at a busy entry are queued
#: unchanged (the blocking home), which the table records as a self-loop;
#: the dequeue on return to IDLE is a fresh application of the IDLE row for
#: the queued kind.
DIRECTORY_TABLE: Dict[Tuple[str, str], TransitionSpec] = {
    (IDLE, MessageKind.GETS): _spec(
        emits=(MessageKind.RECALL_S, MessageKind.MEM_READ, MessageKind.DATA),
        next_states=(BUSY_RECALL, BUSY_MEM, BUSY_UNBLOCK),
    ),
    (IDLE, MessageKind.GETX): _spec(
        emits=(
            MessageKind.RECALL_X,
            MessageKind.MEM_READ,
            MessageKind.INV,
            MessageKind.DATA,
        ),
        next_states=(BUSY_RECALL, BUSY_MEM, BUSY_UNBLOCK),
    ),
    (IDLE, MessageKind.PUTM): _spec(
        emits=(MessageKind.PUT_ACK, MessageKind.MEM_WB),
        next_states=(IDLE,),
    ),
    (BUSY_RECALL, MessageKind.RECALL_DATA): _spec(
        emits=(MessageKind.MEM_WB, MessageKind.INV, MessageKind.DATA),
        next_states=(BUSY_UNBLOCK,),
    ),
    (BUSY_MEM, MessageKind.MEM_DATA): _spec(
        emits=(MessageKind.MEM_WB, MessageKind.INV, MessageKind.DATA),
        next_states=(BUSY_UNBLOCK,),
    ),
    (BUSY_UNBLOCK, MessageKind.UNBLOCK): _spec(next_states=(IDLE,)),
}
for _busy in (BUSY_RECALL, BUSY_MEM, BUSY_UNBLOCK):
    for _kind in _QUEUED_KINDS:
        DIRECTORY_TABLE[(_busy, _kind)] = _spec(next_states=(_busy,))

#: L1/requester transitions, message-triggered only — the spontaneous core
#: actions (issuing misses, upgrades, evictions, silent Shared drops) are
#: state transitions of the *core*, not responses to messages, and are
#: modelled directly by the verifier as the environment of the handlers.
CACHE_TABLE: Dict[Tuple[str, str], TransitionSpec] = {
    # Stale-sharer invalidations: the directory's sharer list may lag the
    # cache (silent Shared drops; re-add via a RecallS answered from an
    # eviction shadow), so Inv must be handled in every state the cache can
    # occupy while still on that list.
    (CacheLabel.I, MessageKind.INV): _spec(
        emits=(MessageKind.INV_ACK,), next_states=(CacheLabel.I,)
    ),
    (CacheLabel.S, MessageKind.INV): _spec(
        emits=(MessageKind.INV_ACK,), next_states=(CacheLabel.I,)
    ),
    (CacheLabel.IS_D, MessageKind.INV): _spec(
        emits=(MessageKind.INV_ACK,), next_states=(CacheLabel.IS_D,)
    ),
    (CacheLabel.IM_AD, MessageKind.INV): _spec(
        emits=(MessageKind.INV_ACK,), next_states=(CacheLabel.IM_AD,)
    ),
    (CacheLabel.SM_AD, MessageKind.INV): _spec(
        emits=(MessageKind.INV_ACK,), next_states=(CacheLabel.IM_AD,)
    ),
    (CacheLabel.II_A, MessageKind.INV): _spec(
        emits=(MessageKind.INV_ACK,), next_states=(CacheLabel.II_A,)
    ),
    (CacheLabel.IS_D_DEF_R, MessageKind.INV): _spec(
        emits=(MessageKind.INV_ACK,), next_states=(CacheLabel.IS_D_DEF_R,)
    ),
    (CacheLabel.IM_AD_DEF_R, MessageKind.INV): _spec(
        emits=(MessageKind.INV_ACK,), next_states=(CacheLabel.IM_AD_DEF_R,)
    ),
    # Fills.  A GetS fill with a coalesced store behind it immediately
    # upgrades (GetX), landing in SM_AD rather than S.
    (CacheLabel.IS_D, MessageKind.DATA): _spec(
        emits=(MessageKind.UNBLOCK, MessageKind.GETX),
        next_states=(CacheLabel.S, CacheLabel.SM_AD),
    ),
    (CacheLabel.IM_AD, MessageKind.DATA): _spec(
        emits=(MessageKind.UNBLOCK,),
        next_states=(CacheLabel.M, CacheLabel.IM_A),
    ),
    (CacheLabel.SM_AD, MessageKind.DATA): _spec(
        emits=(MessageKind.UNBLOCK,),
        next_states=(CacheLabel.M, CacheLabel.SM_A),
    ),
    # Invalidation acks travel sharer -> requester and may arrive before
    # the Data they complement.
    (CacheLabel.IM_AD, MessageKind.INV_ACK): _spec(
        next_states=(CacheLabel.IM_AD,)
    ),
    (CacheLabel.SM_AD, MessageKind.INV_ACK): _spec(
        next_states=(CacheLabel.SM_AD,)
    ),
    (CacheLabel.IM_A, MessageKind.INV_ACK): _spec(
        emits=(MessageKind.UNBLOCK,),
        next_states=(CacheLabel.M, CacheLabel.IM_A),
    ),
    (CacheLabel.SM_A, MessageKind.INV_ACK): _spec(
        emits=(MessageKind.UNBLOCK,),
        next_states=(CacheLabel.M, CacheLabel.SM_A),
    ),
    # Recalls of an owned copy; also answered from the eviction shadow when
    # the PutM crossed the recall on the wire.
    (CacheLabel.M, MessageKind.RECALL_S): _spec(
        emits=(MessageKind.RECALL_DATA,), next_states=(CacheLabel.S,)
    ),
    (CacheLabel.M, MessageKind.RECALL_X): _spec(
        emits=(MessageKind.RECALL_DATA,), next_states=(CacheLabel.I,)
    ),
    (CacheLabel.MI_A, MessageKind.RECALL_S): _spec(
        emits=(MessageKind.RECALL_DATA,), next_states=(CacheLabel.II_A,)
    ),
    (CacheLabel.MI_A, MessageKind.RECALL_X): _spec(
        emits=(MessageKind.RECALL_DATA,), next_states=(CacheLabel.II_A,)
    ),
    (CacheLabel.IS_D_DEF, MessageKind.RECALL_S): _spec(
        emits=(MessageKind.RECALL_DATA,), next_states=(CacheLabel.IS_D_DEF_R,)
    ),
    (CacheLabel.IS_D_DEF, MessageKind.RECALL_X): _spec(
        emits=(MessageKind.RECALL_DATA,), next_states=(CacheLabel.IS_D_DEF_R,)
    ),
    (CacheLabel.IM_AD_DEF, MessageKind.RECALL_S): _spec(
        emits=(MessageKind.RECALL_DATA,), next_states=(CacheLabel.IM_AD_DEF_R,)
    ),
    (CacheLabel.IM_AD_DEF, MessageKind.RECALL_X): _spec(
        emits=(MessageKind.RECALL_DATA,), next_states=(CacheLabel.IM_AD_DEF_R,)
    ),
    # Eviction completion; a deferred miss is released (sent) by the ack.
    (CacheLabel.MI_A, MessageKind.PUT_ACK): _spec(next_states=(CacheLabel.I,)),
    (CacheLabel.II_A, MessageKind.PUT_ACK): _spec(next_states=(CacheLabel.I,)),
    (CacheLabel.IS_D_DEF, MessageKind.PUT_ACK): _spec(
        emits=(MessageKind.GETS,), next_states=(CacheLabel.IS_D,)
    ),
    (CacheLabel.IM_AD_DEF, MessageKind.PUT_ACK): _spec(
        emits=(MessageKind.GETX,), next_states=(CacheLabel.IM_AD,)
    ),
    (CacheLabel.IS_D_DEF_R, MessageKind.PUT_ACK): _spec(
        emits=(MessageKind.GETS,), next_states=(CacheLabel.IS_D,)
    ),
    (CacheLabel.IM_AD_DEF_R, MessageKind.PUT_ACK): _spec(
        emits=(MessageKind.GETX,), next_states=(CacheLabel.IM_AD,)
    ),
}

#: Memory controllers are always ready and answer unconditionally.
MEMORY_TABLE: Dict[Tuple[str, str], TransitionSpec] = {
    (MEMORY_READY, MessageKind.MEM_READ): _spec(
        emits=(MessageKind.MEM_DATA,), next_states=(MEMORY_READY,)
    ),
    (MEMORY_READY, MessageKind.MEM_WB): _spec(next_states=(MEMORY_READY,)),
}

#: The *blocking* waits of the protocol: directory busy states refuse to
#: start another transaction until the named kind arrives.  Cache transient
#: states keep consuming every message and therefore never block; the
#: protocol-deadlock (message-class cycle) analysis in
#: :mod:`repro.verify.protocol` builds its dependency graph from exactly
#: these waits.
BLOCKING_WAITS: Dict[str, FrozenSet[str]] = {
    BUSY_RECALL: frozenset((MessageKind.RECALL_DATA,)),
    BUSY_MEM: frozenset((MessageKind.MEM_DATA,)),
    BUSY_UNBLOCK: frozenset((MessageKind.UNBLOCK,)),
}


def handler_table(
    handlers: Dict[str, Callable],
    table: Dict[Tuple[str, str], TransitionSpec],
) -> Dict[str, Callable]:
    """``handlers`` (kind -> controller method), held to a protocol table.

    Each controller dispatches through one class-level table, and
    :class:`~repro.fullsys.cmp.CmpSystem` routes delivery by merging them,
    so routing is derived from the protocol tables: a kind ``table`` sends
    to the controller that no handler covers (or the reverse) fails here,
    at import, before a single cycle is simulated.
    """
    kinds = frozenset(kind for _, kind in table)
    if kinds != handlers.keys():
        raise ProtocolError(
            f"handlers cover {sorted(handlers)} but the protocol table "
            f"routes {sorted(kinds)}"
        )
    return handlers
