"""Coherence-protocol safety: explicit-state model checking.

The checker exhaustively enumerates the reachable state space of the
directory protocol for one line, one home, and a small number of cachers
(the *small-N abstraction*: every documented race is between the home, at
most two requesters, and the messages between them, so N = 2..3 covers the
interesting interleavings while staying a few hundred thousand states).

The model mirrors the implementations in :mod:`repro.fullsys.directory`
and :mod:`repro.fullsys.core_model` operationally — same handler logic,
same MSHR/eviction-shadow bookkeeping — while the declarative tables in
:mod:`repro.fullsys.coherence` act as the specification.  Every message
consumption is validated against its table row: a reachable ``(state,
kind)`` pair with no row is an **unhandled transition** (with the message
interleaving that reaches it as the counterexample), and a handler that
emits outside its row's ``emits`` or lands outside ``next_states`` is a
**table mismatch**.

Deliveries are unordered (any in-flight message may arrive next), which
over-approximates every network the co-simulator can be configured with.

The search is breadth-first over states held as tuples of small ints: a
home id, one id per core and the id of the in-flight message multiset,
numbered per check.  Many states share a home, a core or a multiset, so
each transition is computed once per distinct input and then looked up:
a delivery (refusals included) on (message, receiver), multiset removal
and addition on (multiset, messages), a core's spontaneous moves on
(core index, core) and the L2 drop on the home.  Action text is only
formatted for a printed trace.  Every table belongs to one call of
:func:`check_protocol` and is dropped with it, so a broken table under
test never leaks into the next check.

Checked properties:

* **SWMR** — no reachable state has a Modified copy coexisting with any
  other valid copy;
* **no unhandled transition** — as above, for home, cache, and memory
  tables;
* **drain** — from every reachable state, message-driven transitions alone
  can reach quiescence (no in-flight messages, home idle with an empty
  queue, no MSHRs or eviction shadows): every transient state empties;
* **message-dependency acyclicity** — the same-transaction message
  generation graph over kinds, and its projection onto the blocking waits
  of the directory (message classes), are acyclic, so no protocol-level
  deadlock can form from messages waiting on messages.
"""

from __future__ import annotations

from collections import deque
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Set,
    Tuple,
    Union,
)

from ..errors import ConfigError
from ..fullsys.coherence import (
    BLOCKING_WAITS,
    BUSY_MEM,
    BUSY_RECALL,
    BUSY_UNBLOCK,
    CACHE_TABLE,
    DIRECTORY_TABLE,
    IDLE,
    MEMORY_READY,
    MEMORY_TABLE,
    CacheLabel,
    MessageKind,
    TransitionSpec,
    message_profile,
)
from ..noc.packet import MessageClass
from .report import Finding, VerifyReport

__all__ = [
    "check_protocol",
    "check_message_dependencies",
    "core_label",
]

# Agent addresses in the abstract model.
HOME = "H"
MEM = "MEM"

# Core eviction-shadow status.
EV_NONE = "none"
EV_SHADOW = "shadow"
EV_RECALLED = "recalled"

# L2 abstract states.
L2_ABSENT = "absent"
L2_VALID = "valid"
L2_DIRTY = "dirty"

#: request kinds that open a *new* transaction; excluded from the
#: same-transaction message-generation graph (they are rate-limited by MSHR
#: and eviction slots, and the blocking home consumes them unconditionally).
_NEW_TRANSACTION_KINDS = frozenset(
    (MessageKind.GETS, MessageKind.GETX, MessageKind.PUTM)
)

# A message: (kind, src, dst, requester, acks).
Msg = Tuple[str, object, object, int, int]
# A core: (base, mshr, evict); mshr is None or
# (requested_write, wants_write, deferred, data_received, acks_expected,
#  acks_received).
CoreState = Tuple[str, Optional[tuple], str]
# The home: (dir_state, owner, sharers, active, pending, l2).
HomeState = Tuple[str, Optional[int], FrozenSet[int], Optional[tuple], tuple, str]
# Global: (home, cores, msgs) with msgs a sorted ((msg, count), ...) tuple.
State = Tuple[HomeState, Tuple[CoreState, ...], tuple]
# The same state as the search holds it: (home id, one id per core, flight
# id), numbered per check; a flight is a msgs multiset.
Ids = Tuple[int, ...]
# A step of a trace: the message delivered, or the text of a spontaneous move.
Action = Union[Msg, str]

Table = Dict[Tuple[str, str], TransitionSpec]


class _CheckError(Exception):
    """A property violation hit while executing one transition."""

    def __init__(self, check: str, summary: str) -> None:
        super().__init__(summary)
        self.check = check
        self.summary = summary


# ---------------------------------------------------------------------------
# Labelling
# ---------------------------------------------------------------------------
def core_label(core: CoreState) -> str:
    """Map a concrete core state onto its :class:`CacheLabel`."""
    base, mshr, evict = core
    if mshr is None:
        if evict == EV_SHADOW:
            return CacheLabel.MI_A
        if evict == EV_RECALLED:
            return CacheLabel.II_A
        return base
    rw, _ww, deferred, datar, _acks_e, _acks_r = mshr
    if deferred:
        if evict == EV_RECALLED:
            return CacheLabel.IM_AD_DEF_R if rw else CacheLabel.IS_D_DEF_R
        return CacheLabel.IM_AD_DEF if rw else CacheLabel.IS_D_DEF
    if not rw:
        return CacheLabel.IS_D
    if base == CacheLabel.S:
        return CacheLabel.SM_A if datar else CacheLabel.SM_AD
    return CacheLabel.IM_A if datar else CacheLabel.IM_AD


def _validate(
    table: Table,
    agent: str,
    label: str,
    kind: str,
    emitted: Iterable[str],
    after: str,
) -> None:
    spec = table.get((label, kind))
    if spec is None:
        raise _CheckError(
            "unhandled-transition",
            f"{agent} has no transition for {kind} in state {label}",
        )
    extra = set(emitted) - set(spec.emits)
    if extra:
        raise _CheckError(
            "table-mismatch",
            f"{agent} handling {kind} in {label} emitted {sorted(extra)}, "
            f"which the table does not allow",
        )
    if after not in spec.next_states:
        raise _CheckError(
            "table-mismatch",
            f"{agent} handling {kind} in {label} reached {after}; the table "
            f"allows {sorted(spec.next_states)}",
        )


# ---------------------------------------------------------------------------
# Message multiset helpers
# ---------------------------------------------------------------------------
def _msgs_add(msgs: tuple, new: Iterable[Msg]) -> tuple:
    counts = dict(msgs)
    for m in new:
        counts[m] = counts.get(m, 0) + 1
    return tuple(sorted(counts.items()))


def _msgs_remove(msgs: tuple, victim: Msg) -> tuple:
    counts = dict(msgs)
    if counts[victim] == 1:
        del counts[victim]
    else:
        counts[victim] -= 1
    return tuple(sorted(counts.items()))


def _mk(kind: str, src, dst, requester: int, acks: int = 0) -> Msg:
    return (kind, src, dst, requester, acks)


def _msg_str(m: Msg) -> str:
    kind, src, dst, requester, acks = m
    extra = f", acks={acks}" if kind == MessageKind.DATA else ""
    return f"{kind} {src}->{dst} (req={requester}{extra})"


# ---------------------------------------------------------------------------
# Home executor (mirrors repro.fullsys.directory.HomeController)
# ---------------------------------------------------------------------------
def _complete_get(
    home: list, active: tuple, out: List[Msg], emitted: Set[str]
) -> None:
    kind, requester = active
    _state, owner, sharers, _active, _pending, l2 = home
    acks = 0
    if kind == MessageKind.GETS:
        sharers = sharers | {requester}
    else:
        targets = sorted(sharers - {requester})
        for t in targets:
            out.append(_mk(MessageKind.INV, HOME, t, requester))
            emitted.add(MessageKind.INV)
        acks = len(targets)
        sharers = frozenset()
        owner = requester
        if l2 != L2_ABSENT:
            l2 = L2_DIRTY
    out.append(_mk(MessageKind.DATA, HOME, requester, requester, acks))
    emitted.add(MessageKind.DATA)
    home[0] = BUSY_UNBLOCK
    home[1] = owner
    home[2] = sharers
    home[5] = l2


def _home_start(
    home: list,
    kind: str,
    src: int,
    requester: int,
    out: List[Msg],
    table: Table,
) -> None:
    """Mirror of ``HomeController._start`` + the dequeue loop."""
    emitted: Set[str] = set()
    if kind == MessageKind.PUTM:
        if home[1] == src:
            home[1] = None
            home[5] = L2_DIRTY
        out.append(_mk(MessageKind.PUT_ACK, HOME, src, requester))
        emitted.add(MessageKind.PUT_ACK)
        _validate(table, "home", IDLE, kind, emitted, IDLE)
        _next_transaction(home, out, table)
        return
    home[3] = (kind, requester)
    if home[1] is not None:
        home[0] = BUSY_RECALL
        recall = (
            MessageKind.RECALL_S if kind == MessageKind.GETS else MessageKind.RECALL_X
        )
        out.append(_mk(recall, HOME, home[1], requester))
        emitted.add(recall)
    elif home[5] == L2_ABSENT:
        home[0] = BUSY_MEM
        out.append(_mk(MessageKind.MEM_READ, HOME, MEM, requester))
        emitted.add(MessageKind.MEM_READ)
    else:
        _complete_get(home, (kind, requester), out, emitted)
    _validate(table, "home", IDLE, kind, emitted, home[0])


def _next_transaction(home: list, out: List[Msg], table: Table) -> None:
    home[0] = IDLE
    home[3] = None
    if home[4]:
        nxt, rest = home[4][0], home[4][1:]
        home[4] = rest
        _home_start(home, nxt[0], nxt[1], nxt[2], out, table)


def _home_deliver(
    home_t: HomeState, msg: Msg, table: Table
) -> Tuple[HomeState, List[Msg]]:
    home = list(home_t)
    kind, src, _dst, requester, _acks = msg
    out: List[Msg] = []
    label = home[0]
    if kind in (MessageKind.GETS, MessageKind.GETX, MessageKind.PUTM):
        if label != IDLE:
            home[4] = home[4] + ((kind, src, requester),)
            _validate(table, "home", label, kind, (), home[0])
        else:
            _home_start(home, kind, src, requester, out, table)
    elif kind == MessageKind.RECALL_DATA:
        if label != BUSY_RECALL or home[3] is None:
            _validate(table, "home", label, kind, (), label)
            raise _CheckError("protocol-error", f"home: stray {kind} in {label}")
        prev_owner = home[1]
        if prev_owner is None:
            raise _CheckError(
                "protocol-error", "home: recall data arrived with no recorded owner"
            )
        home[1] = None
        if home[3][0] == MessageKind.GETS:
            home[2] = home[2] | {prev_owner}
        home[5] = L2_DIRTY
        emitted: Set[str] = set()
        _complete_get(home, home[3], out, emitted)
        _validate(table, "home", label, kind, emitted, home[0])
    elif kind == MessageKind.MEM_DATA:
        if label != BUSY_MEM or home[3] is None:
            _validate(table, "home", label, kind, (), label)
            raise _CheckError("protocol-error", f"home: stray {kind} in {label}")
        home[5] = L2_VALID
        emitted = set()
        _complete_get(home, home[3], out, emitted)
        _validate(table, "home", label, kind, emitted, home[0])
    elif kind == MessageKind.UNBLOCK:
        if label != BUSY_UNBLOCK:
            _validate(table, "home", label, kind, (), label)
            raise _CheckError("protocol-error", f"home: stray {kind} in {label}")
        _validate(table, "home", label, kind, (), IDLE)
        _next_transaction(home, out, table)
    else:
        _validate(table, "home", label, kind, (), label)
        raise _CheckError("protocol-error", f"home: unexpected {kind}")
    return (home[0], home[1], home[2], home[3], home[4], home[5]), out


# ---------------------------------------------------------------------------
# Core executor (mirrors repro.fullsys.core_model.Core)
# ---------------------------------------------------------------------------
def _maybe_complete(
    core: list, core_id: int, out: List[Msg], emitted: Set[str]
) -> None:
    mshr = core[1]
    rw, ww, _deferred, datar, acks_e, acks_r = mshr
    if acks_e is None or not datar or acks_r < acks_e:
        core[1] = mshr
        return
    core[1] = None
    core[0] = CacheLabel.M if rw else CacheLabel.S
    out.append(_mk(MessageKind.UNBLOCK, core_id, HOME, core_id))
    emitted.add(MessageKind.UNBLOCK)
    if ww and not rw:
        # A store coalesced into the read miss: upgrade immediately.
        if core[2] != EV_NONE:
            raise _CheckError(
                "protocol-error",
                f"core {core_id}: upgrade issued while an eviction is in flight",
            )
        core[1] = (True, True, False, False, None, 0)
        out.append(_mk(MessageKind.GETX, core_id, HOME, core_id))
        emitted.add(MessageKind.GETX)


def _core_deliver(
    core_t: CoreState, core_id: int, msg: Msg, table: Table
) -> Tuple[CoreState, List[Msg]]:
    core = list(core_t)
    kind, src, _dst, requester, acks = msg
    label = core_label(core_t)
    out: List[Msg] = []
    emitted: Set[str] = set()
    if kind == MessageKind.DATA:
        if core[1] is None:
            _validate(table, f"core {core_id}", label, kind, (), label)
            raise _CheckError("protocol-error", f"core {core_id}: DATA without MSHR")
        rw, ww, deferred, _datar, _acks_e, acks_r = core[1]
        core[1] = (rw, ww, deferred, True, acks, acks_r)
        _maybe_complete(core, core_id, out, emitted)
    elif kind == MessageKind.INV_ACK:
        if core[1] is None:
            _validate(table, f"core {core_id}", label, kind, (), label)
            raise _CheckError(
                "protocol-error", f"core {core_id}: INV_ACK without MSHR"
            )
        rw, ww, deferred, datar, acks_e, acks_r = core[1]
        core[1] = (rw, ww, deferred, datar, acks_e, acks_r + 1)
        _maybe_complete(core, core_id, out, emitted)
    elif kind == MessageKind.INV:
        core[0] = CacheLabel.I
        out.append(_mk(MessageKind.INV_ACK, core_id, requester, requester))
        emitted.add(MessageKind.INV_ACK)
    elif kind in (MessageKind.RECALL_S, MessageKind.RECALL_X):
        if core[0] == CacheLabel.M:
            core[0] = (
                CacheLabel.S if kind == MessageKind.RECALL_S else CacheLabel.I
            )
        elif core[2] == EV_SHADOW:
            core[2] = EV_RECALLED
        else:
            _validate(table, f"core {core_id}", label, kind, (), label)
            raise _CheckError(
                "protocol-error",
                f"core {core_id}: recall for a line it does not own",
            )
        out.append(_mk(MessageKind.RECALL_DATA, core_id, src, requester))
        emitted.add(MessageKind.RECALL_DATA)
    elif kind == MessageKind.PUT_ACK:
        if core[2] == EV_NONE:
            _validate(table, f"core {core_id}", label, kind, (), label)
            raise _CheckError(
                "protocol-error", f"core {core_id}: PutAck while not evicting"
            )
        core[2] = EV_NONE
        if core[1] is not None and core[1][2]:
            rw, ww, _deferred, datar, acks_e, acks_r = core[1]
            core[1] = (rw, ww, False, datar, acks_e, acks_r)
            miss = MessageKind.GETX if rw else MessageKind.GETS
            out.append(_mk(miss, core_id, HOME, core_id))
            emitted.add(miss)
    else:
        _validate(table, f"core {core_id}", label, kind, (), label)
        raise _CheckError("protocol-error", f"core {core_id}: unexpected {kind}")
    after = core_label((core[0], core[1], core[2]))
    _validate(table, f"core {core_id}", label, kind, emitted, after)
    return (core[0], core[1], core[2]), out


def _mem_deliver(msg: Msg, table: Table) -> List[Msg]:
    kind, _src, _dst, requester, _acks = msg
    out: List[Msg] = []
    emitted: Set[str] = set()
    if kind == MessageKind.MEM_READ:
        out.append(_mk(MessageKind.MEM_DATA, MEM, HOME, requester))
        emitted.add(MessageKind.MEM_DATA)
    elif kind != MessageKind.MEM_WB:
        _validate(table, "memory", MEMORY_READY, kind, (), MEMORY_READY)
        raise _CheckError("protocol-error", f"memory: unexpected {kind}")
    _validate(table, "memory", MEMORY_READY, kind, emitted, MEMORY_READY)
    return out


# ---------------------------------------------------------------------------
# Spontaneous (non-message) transitions
# ---------------------------------------------------------------------------
def _core_moves(i: int, core: CoreState) -> List[Tuple[str, CoreState, List[Msg]]]:
    """Core ``i``'s moves that no message triggers: (action, core, sends)."""
    base, mshr, evict = core
    moves: List[Tuple[str, CoreState, List[Msg]]] = []
    if mshr is None:
        if base == CacheLabel.I:
            for is_write, name in ((False, "load"), (True, "store")):
                new_mshr = (is_write, is_write, evict != EV_NONE, False, None, 0)
                sends: List[Msg] = []
                if evict == EV_NONE:
                    kind = MessageKind.GETX if is_write else MessageKind.GETS
                    sends.append(_mk(kind, i, HOME, i))
                    action = f"core {i}: {name} miss ({kind} -> home)"
                else:
                    action = f"core {i}: {name} miss deferred behind PutM"
                moves.append((action, (base, new_mshr, evict), sends))
        elif base == CacheLabel.S:
            moves.append(
                (
                    f"core {i}: upgrade store ({MessageKind.GETX} -> home)",
                    (base, (True, True, False, False, None, 0), evict),
                    [_mk(MessageKind.GETX, i, HOME, i)],
                )
            )
            moves.append(
                (f"core {i}: silent Shared drop", (CacheLabel.I, None, evict), [])
            )
        elif base == CacheLabel.M:
            moves.append(
                (
                    f"core {i}: evict Modified ({MessageKind.PUTM} -> home)",
                    (CacheLabel.I, None, EV_SHADOW),
                    [_mk(MessageKind.PUTM, i, HOME, i)],
                )
            )
    else:
        rw, ww, deferred, datar, acks_e, acks_r = mshr
        if not ww:
            # A store coalesces into the outstanding read miss; if the
            # request is still deferred it upgrades in place.
            new_rw = True if deferred else rw
            moves.append(
                (
                    f"core {i}: store coalesces into outstanding miss",
                    (base, (new_rw, True, deferred, datar, acks_e, acks_r), evict),
                    [],
                )
            )
    return moves


def _l2_drop(home: HomeState) -> List[Tuple[str, HomeState]]:
    """The home's L2 capacity eviction, if it holds the line: (action, home).

    A fill of some other line victimizes this one: silent for clean lines,
    a memory writeback for dirty ones.  The writeback is absorbed at
    emission: memory consumes MemWB with no response or state change, so
    keeping it in flight would only let its multiplicity grow without
    bound (the state space must stay finite).  Its table row is validated
    once in check_protocol instead.
    """
    dir_state, owner, sharers, active, pending, l2 = home
    dropped = (dir_state, owner, sharers, active, pending, L2_ABSENT)
    if l2 == L2_VALID:
        return [("home: L2 drops clean copy", dropped)]
    if l2 == L2_DIRTY:
        return [
            (
                f"home: L2 drops dirty copy ({MessageKind.MEM_WB} -> memory, absorbed)",
                dropped,
            )
        ]
    return []


# ---------------------------------------------------------------------------
# The explorer
# ---------------------------------------------------------------------------
class _Numbering:
    """Distinct values of one kind, numbered in order of first sight.

    Each check makes its own: a number means nothing outside that check.
    """

    __slots__ = ("values", "_ids")

    def __init__(self) -> None:
        self.values: list = []
        self._ids: dict = {}

    def __call__(self, value) -> int:
        number = self._ids.get(value)
        if number is None:
            number = self._ids[value] = len(self.values)
            self.values.append(value)
        return number


def _position(dst) -> Optional[int]:
    """Where a message's receiver sits in an :data:`Ids` state."""
    if dst == HOME:
        return 0
    if dst == MEM:
        return None
    return 1 + dst


def _initial_state(num_cores: int) -> State:
    home: HomeState = (IDLE, None, frozenset(), None, (), L2_ABSENT)
    cores = tuple((CacheLabel.I, None, EV_NONE) for _ in range(num_cores))
    return (home, cores, ())


def _swmr_violation(cores: Iterable[CoreState]) -> Optional[str]:
    bases = [core[0] for core in cores]
    owners = [i for i, b in enumerate(bases) if b == CacheLabel.M]
    if not owners:
        return None
    others = [
        i
        for i, b in enumerate(bases)
        if b in (CacheLabel.S, CacheLabel.M) and i != owners[0]
    ]
    if len(owners) > 1 or others:
        return (
            f"core {owners[0]} holds Modified while core(s) "
            f"{sorted(set(owners[1:]) | set(others))} hold a valid copy"
        )
    return None


def _describe_state(state: State) -> str:
    home, cores, msgs = state
    dir_state, owner, sharers, active, pending, l2 = home
    parts = [
        f"home: state={dir_state} owner={owner} sharers={sorted(sharers)} "
        f"queued={len(pending)} l2={l2}"
    ]
    for i, core in enumerate(cores):
        parts.append(f"core {i}: {core_label(core)}")
    if msgs:
        flight = ", ".join(
            _msg_str(m) + (f" x{n}" if n > 1 else "") for m, n in msgs
        )
        parts.append(f"in flight: {flight}")
    else:
        parts.append("in flight: (none)")
    return "\n".join(parts)


def _action_text(action: Action) -> str:
    if isinstance(action, str):
        return action
    return f"deliver {_msg_str(action)}"


def _trace(
    parents: Dict[Ids, Optional[Tuple[Ids, Action]]],
    state: Ids,
    decode: Callable[[Ids], State],
) -> str:
    steps: List[str] = []
    cur = state
    while True:
        link = parents[cur]
        if link is None:
            break
        cur, action = link
        steps.append(_action_text(action))
    steps.reverse()
    lines = [f"{i + 1}. {s}" for i, s in enumerate(steps)]
    lines.append("reached:")
    lines.append(_describe_state(decode(state)))
    return "\n".join(lines)


def check_protocol(
    num_cores: int = 2,
    directory_table: Optional[Table] = None,
    cache_table: Optional[Table] = None,
    memory_table: Optional[Table] = None,
    max_states: int = 2_000_000,
    max_findings: int = 5,
) -> VerifyReport:
    """Enumerate the reachable protocol state space and check its safety.

    Alternative tables substitute the specification under test (used by the
    deliberately-broken fixtures); the executor semantics are always those
    of the shipped implementation.

    Raises :class:`~repro.errors.ConfigError` for ``num_cores < 2``: with
    fewer than two cachers no line is ever shared or invalidated, so SWMR
    would be certified vacuously.
    """
    if num_cores < 2:
        raise ConfigError(
            f"the protocol abstraction needs >= 2 cachers to exercise "
            f"sharing, invalidation and SWMR, got {num_cores}"
        )
    dir_table = DIRECTORY_TABLE if directory_table is None else directory_table
    cch_table = CACHE_TABLE if cache_table is None else cache_table
    mem_table = MEMORY_TABLE if memory_table is None else memory_table
    subject = f"directory protocol (1 line, {num_cores} cachers, 1 home)"
    report = VerifyReport(subject=subject)

    # MemWB deliveries are absorbed at emission (see _l2_drop); its
    # specification row is checked here instead of during exploration.
    if (MEMORY_READY, MessageKind.MEM_WB) not in mem_table:
        report.findings.append(
            Finding(
                check="unhandled-transition",
                summary=(
                    f"memory has no transition for {MessageKind.MEM_WB} in "
                    f"state {MEMORY_READY}"
                ),
                details="emitted whenever the home's L2 drops a dirty copy",
            )
        )

    # The search holds a state as small ints — (home id, one id per core,
    # flight id), a flight being the multiset of messages in flight — all
    # numbered for this check only.  Each transition is computed once per
    # distinct input and read from a table after that.
    homes, cores, messages, flights = (_Numbering() for _ in range(4))
    #: flight id -> ((message id, position of its receiver in a state), ...);
    #: memory holds no state, so its position is None
    offered: List[Tuple[Tuple[int, Optional[int]], ...]] = []
    #: (message id, receiver id or -1 for memory) -> (receiver id, sent
    #: message ids, None), or (-1, (), the _CheckError that refuses it)
    delivered: Dict[Tuple[int, int], tuple] = {}
    #: (flight id, message id) -> flight id with one copy of it gone
    removed: Dict[Tuple[int, int], int] = {}
    #: (flight id, sent message ids) -> flight id with those added
    added: Dict[Tuple[int, Tuple[int, ...]], int] = {}
    #: (position, core id) -> [(action, core id, sent message ids), ...]
    moves: Dict[Tuple[int, int], list] = {}
    #: home id -> [(action, home id)], empty while the L2 holds no copy
    drops: Dict[int, list] = {}
    #: core ids -> (SWMR violation or None, whether every core is quiet)
    core_facts: Dict[Ids, Tuple[Optional[str], bool]] = {}

    def flight_id(flight: tuple) -> int:
        number = flights(flight)
        if number == len(offered):
            offered.append(
                tuple((messages(m), _position(m[2])) for m, _n in flight)
            )
        return number

    def deliver(m: int, receiver: int):
        msg = messages.values[m]
        dst = msg[2]
        try:
            if dst == HOME:
                new_home, out = _home_deliver(
                    homes.values[receiver], msg, dir_table
                )
                receiver = homes(new_home)
            elif dst == MEM:
                out = _mem_deliver(msg, mem_table)
            else:
                new_core, out = _core_deliver(
                    cores.values[receiver], dst, msg, cch_table
                )
                receiver = cores(new_core)
        except _CheckError as err:
            # without its traceback, whose frames would tie the tables to
            # this call in a cycle that outlives it
            return -1, (), err.with_traceback(None)
        return receiver, tuple(messages(o) for o in out), None

    def add(flight: int, sent: Tuple[int, ...]) -> int:
        new = [messages.values[m] for m in sent]
        return flight_id(_msgs_add(flights.values[flight], new))

    def core_moves(pos: int, core: int) -> list:
        return [
            (action, cores(after), tuple(messages(s) for s in sends))
            for action, after, sends in _core_moves(pos - 1, cores.values[core])
        ]

    def facts(ids: Ids) -> Tuple[Optional[str], bool]:
        states = [cores.values[c] for c in ids]
        quiet = all(mshr is None and ev == EV_NONE for _b, mshr, ev in states)
        return _swmr_violation(states), quiet

    def decode(state: Ids) -> State:
        return (
            homes.values[state[0]],
            tuple(cores.values[c] for c in state[1:-1]),
            flights.values[state[-1]],
        )

    home0, cores0, msgs0 = _initial_state(num_cores)
    init: Ids = (homes(home0), *(cores(c) for c in cores0), flight_id(msgs0))
    empty = init[-1]
    parents: Dict[Ids, Optional[Tuple[Ids, Action]]] = {init: None}
    queue: deque = deque([init])
    #: reverse delivery-only adjacency, for the drain check
    rev_delivery: Dict[Ids, List[Ids]] = {}
    quiescent: List[Ids] = [init]
    seen_findings: Set[Tuple[str, str]] = set()
    truncated = False

    def add_finding(
        check: str, summary: str, state: Ids, action: Optional[Action]
    ) -> None:
        key = (check, summary)
        if key in seen_findings or len(report.findings) >= max_findings:
            return
        seen_findings.add(key)
        details = _trace(parents, state, decode)
        if action is not None:
            details = f"after: {_action_text(action)}\n{details}"
        report.findings.append(Finding(check=check, summary=summary, details=details))

    core_positions = range(1, num_cores + 1)
    message_values = messages.values
    while queue:
        state = queue.popleft()
        flight = state[-1]

        successors: List[Tuple[Action, Ids, bool]] = []
        for m, pos in offered[flight]:
            receiver = -1 if pos is None else state[pos]
            result = delivered.get((m, receiver))
            if result is None:
                result = delivered[(m, receiver)] = deliver(m, receiver)
            receiver, sent, refusal = result
            if refusal is not None:
                add_finding(
                    refusal.check, refusal.summary, state, message_values[m]
                )
                continue
            rest = removed.get((flight, m))
            if rest is None:
                rest = removed[(flight, m)] = flight_id(
                    _msgs_remove(flights.values[flight], message_values[m])
                )
            if sent:
                key = (rest, sent)
                rest = added.get(key)
                if rest is None:
                    rest = added[key] = add(*key)
            if pos is None:
                succ = state[:-1] + (rest,)
            else:
                succ = state[:pos] + (receiver,) + state[pos + 1 : -1] + (rest,)
            successors.append((message_values[m], succ, True))
        for pos in core_positions:
            key = (pos, state[pos])
            options = moves.get(key)
            if options is None:
                options = moves[key] = core_moves(*key)
            for action, core, sent in options:
                after = flight
                if sent:
                    after = added.get((flight, sent))
                    if after is None:
                        after = added[(flight, sent)] = add(flight, sent)
                succ = state[:pos] + (core,) + state[pos + 1 : -1] + (after,)
                successors.append((action, succ, False))
        options = drops.get(state[0])
        if options is None:
            options = drops[state[0]] = [
                (action, homes(home))
                for action, home in _l2_drop(homes.values[state[0]])
            ]
        for action, home in options:
            successors.append((action, (home,) + state[1:], False))

        for action, succ, is_delivery in successors:
            if is_delivery:
                rev_delivery.setdefault(succ, []).append(state)
            if succ in parents:
                continue
            if len(parents) >= max_states:
                truncated = True
                continue
            parents[succ] = (state, action)
            ids = succ[1:-1]
            fact = core_facts.get(ids)
            if fact is None:
                fact = core_facts[ids] = facts(ids)
            violation, quiet = fact
            if violation is not None:
                add_finding("swmr", f"SWMR violated: {violation}", succ, None)
            if quiet and succ[-1] == empty:
                home = homes.values[succ[0]]
                if home[0] == IDLE and not home[4]:
                    quiescent.append(succ)
            queue.append(succ)

    explored = len(parents)
    if truncated:
        report.findings.append(
            Finding(
                check="state-space-limit",
                summary=(
                    f"exploration truncated at {max_states} states; results "
                    "are inconclusive (raise max_states)"
                ),
            )
        )

    # Drain: every reachable state must be able to reach quiescence through
    # message deliveries alone (reverse reachability from quiescent states).
    can_drain: Set[Ids] = set(quiescent)
    drain_queue = deque(quiescent)
    while drain_queue:
        s = drain_queue.popleft()
        for pred in rev_delivery.get(s, ()):
            if pred not in can_drain:
                can_drain.add(pred)
                drain_queue.append(pred)
    if not truncated and len(report.findings) == 0:
        stuck = [s for s in parents if s not in can_drain]
        if stuck:
            # Deterministic pick: the shallowest stuck state found first.
            state = stuck[0]
            report.findings.append(
                Finding(
                    check="drain",
                    summary=(
                        "a reachable state cannot drain to quiescence via "
                        "message deliveries alone (protocol deadlock)"
                    ),
                    details=_trace(parents, state, decode),
                )
            )

    dep_report = check_message_dependencies(dir_table)
    report.merge(dep_report)

    if report.ok:
        seen = {c for s in parents for c in s[1:-1]}
        labels = sorted({core_label(cores.values[c]) for c in seen})
        report.certified.insert(
            0,
            f"SWMR holds over all {explored} reachable states "
            f"(cache states seen: {', '.join(labels)})",
        )
        report.certified.insert(
            1, "every reachable (state, message) pair has a transition table row"
        )
        report.certified.insert(
            2,
            "implementation mirror agrees with the tables (emissions and "
            "next-states)",
        )
        report.certified.insert(
            3, "every transient state drains: quiescence reachable from all states"
        )
    return report


def check_message_dependencies(
    directory_table: Optional[Table] = None,
) -> VerifyReport:
    """Acyclicity of the message-generation and blocking-wait graphs."""
    dir_table = DIRECTORY_TABLE if directory_table is None else directory_table
    report = VerifyReport(subject="message dependencies")

    # Same-transaction generation graph over kinds: processing K may emit
    # K' (new-transaction requests excluded — they start a fresh chain and
    # the blocking home consumes them unconditionally).
    gen: Dict[str, Set[str]] = {}
    for table in (dir_table, CACHE_TABLE, MEMORY_TABLE):
        for (_state, kind), spec in table.items():
            targets = set(spec.emits) - _NEW_TRANSACTION_KINDS
            if targets:
                gen.setdefault(kind, set()).update(targets)
    cycle = _find_str_cycle(gen)
    if cycle is not None:
        report.findings.append(
            Finding(
                check="message-cycle",
                summary="message-generation graph over kinds is cyclic",
                details=" -> ".join(cycle + [cycle[0]]),
            )
        )
    else:
        report.certified.append(
            "same-transaction message-generation graph (kinds) is acyclic"
        )

    # Blocking-wait graph over message classes: consuming class X moved the
    # home into a busy state that refuses progress until class Y arrives.
    waits: Dict[str, Set[str]] = {}
    names = MessageClass.NAMES
    for (state, kind), spec in dir_table.items():
        for nxt in spec.next_states:
            if nxt in BLOCKING_WAITS and nxt != state:
                src_cls = names[message_profile(kind)[0]]
                for waited in BLOCKING_WAITS[nxt]:
                    waits.setdefault(src_cls, set()).add(
                        names[message_profile(waited)[0]]
                    )
    cycle = _find_str_cycle(waits)
    if cycle is not None:
        report.findings.append(
            Finding(
                check="class-cycle",
                summary=(
                    "blocking-wait graph over message classes is cyclic "
                    "(protocol-level deadlock)"
                ),
                details=" -> ".join(cycle + [cycle[0]]),
            )
        )
    else:
        edges = ", ".join(
            f"{a}->{b}" for a in sorted(waits) for b in sorted(waits[a])
        )
        report.certified.append(
            f"blocking-wait graph over message classes is acyclic ({edges})"
        )
    return report


def _find_str_cycle(graph: Dict[str, Set[str]]) -> Optional[List[str]]:
    WHITE, GRAY, BLACK = 0, 1, 2
    color: Dict[str, int] = {}
    parent: Dict[str, str] = {}
    for root in sorted(graph):
        if color.get(root, WHITE) != WHITE:
            continue
        stack: List[str] = [root]
        while stack:
            node = stack[-1]
            if color.get(node, WHITE) == WHITE:
                color[node] = GRAY
                for succ in sorted(graph.get(node, ()), reverse=True):
                    c = color.get(succ, WHITE)
                    if c == GRAY:
                        cycle = [node]
                        cur = node
                        while cur != succ:
                            cur = parent[cur]
                            cycle.append(cur)
                        cycle.reverse()
                        return cycle
                    if c == WHITE:
                        parent[succ] = node
                        stack.append(succ)
            else:
                if color[node] == GRAY:
                    color[node] = BLACK
                stack.pop()
    return None
