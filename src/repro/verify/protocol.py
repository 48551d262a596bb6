"""Coherence-protocol safety: explicit-state model checking.

The checker exhaustively enumerates the reachable state space of the
directory protocol for one line, one home, and a small number of cachers
(the *small-N abstraction*: every documented race is between the home, at
most two requesters, and the messages between them, so N = 2..3 covers the
interesting interleavings while staying a few hundred thousand states).

The checker executes the simulator's own controllers: every delivery is
handed to a real :class:`~repro.fullsys.directory.HomeController`, a real
:class:`~repro.fullsys.core_model.Core` or ``CmpSystem``'s memory
handlers, loaded with the abstract state of the line and read back
afterwards, so the handlers certified are the handlers simulated.  The
declarative tables in :mod:`repro.fullsys.coherence` act as the
specification.  Every message consumption is validated against its table
row: a reachable ``(state, kind)`` pair with no row is an **unhandled
transition** (with the message interleaving that reaches it as the
counterexample), a handler that emits outside its row's ``emits`` or
lands outside ``next_states`` is a **table mismatch**, and a handler that
raises :class:`~repro.errors.ProtocolError` on a pair its table claims is
a **protocol error** carrying the handler's message.  What no message
triggers — a core's loads, stores and evictions and the L2's capacity
drop — stays the model's environment (``_core_moves``, ``_l2_drop``).

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
from operator import attrgetter
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

from ..errors import ConfigError, ProtocolError
from ..fullsys.cache import CacheLineState
from ..fullsys.cmp import CmpSystem
from ..fullsys.coherence import (
    BLOCKING_WAITS,
    CACHE_TABLE,
    DIRECTORY_TABLE,
    IDLE,
    MEMORY_READY,
    MEMORY_TABLE,
    CacheLabel,
    DirectoryEntry,
    Message,
    MessageKind,
    TransitionSpec,
    message_profile,
)
from ..fullsys.config import CmpConfig
from ..fullsys.core_model import Core, Mshr
from ..fullsys.directory import HomeController
from ..fullsys.memory import MemoryController
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


def _row(table: Table, agent: str, label: str, kind: str) -> TransitionSpec:
    spec = table.get((label, kind))
    if spec is None:
        raise _CheckError(
            "unhandled-transition",
            f"{agent} has no transition for {kind} in state {label}",
        )
    return spec


def _validate(
    table: Table,
    agent: str,
    label: str,
    kind: str,
    emitted: Iterable[str],
    after: str,
) -> None:
    spec = _row(table, agent, label, kind)
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
# The simulator's own controllers, run on one line
# ---------------------------------------------------------------------------
_LINE = 0
#: the model's L2 states as the home's L2 bank stores them, and back
_TO_BANK = {L2_VALID: CacheLineState.VALID, L2_DIRTY: CacheLineState.DIRTY}
_FROM_BANK = {None: L2_ABSENT, CacheLineState.VALID: L2_VALID, CacheLineState.DIRTY: L2_DIRTY}
#: a core's ``evicting`` entry for the line (none, or answered a recall?)
_SHADOWS = {None: EV_NONE, False: EV_SHADOW, True: EV_RECALLED}
#: the :class:`Mshr` fields a core state's mshr tuple holds, in order
_MSHR_FIELDS = (
    "requested_write", "wants_write", "deferred",
    "data_received", "acks_expected", "acks_received",
)
_mshr_state = attrgetter(*_MSHR_FIELDS)


def _message(kind: str, src, dst, requester: int, acks: int = 0) -> Message:
    # an explicit mid, so the simulator's message-id counter stays put
    return Message(kind, src, dst, _LINE, requester, 0, 0, 0, acks, 0)


class _Home(HomeController):
    """The simulator's home, noting where each transaction begins."""

    def _start(self, msg: Message, ent: DirectoryEntry) -> None:
        system = self.system
        if msg is not system.delivered:
            system.starts.append((ent.state, msg.kind, len(system.sent)))
        super()._start(msg, ent)


class _Controllers:
    """A real home, one real :class:`Core` per cacher and ``CmpSystem``'s
    memory handlers on one line, and the ``system`` handle they share.

    The handle is also their clock and address map: a send is logged, not
    routed, and an event fires as it is scheduled, since nothing here is
    timed.  Cores keep their ids; the home's tile is :data:`HOME` and the
    memory node :data:`MEM`, so a logged send is already a :data:`Msg`.
    """

    now = 0
    _memctrl = CmpSystem._memctrl
    _memory_ready = CmpSystem._memory_ready
    _send_mem_data = CmpSystem._send_mem_data

    def __init__(self, num_cores: int, tables: Tuple[Table, Table, Table]) -> None:
        self.config = CmpConfig()
        self.events = self.address_map = self
        #: the directory, cache and memory tables
        self.tables = tables
        self.memctrls = {MEM: MemoryController(MEM, 1, 1)}
        #: one delivery: the message delivered, the messages sent, and
        #: (home state, kind, messages sent before it) per request dequeued
        self.delivered: Optional[Message] = None
        self.sent: List[Msg] = []
        self.starts: List[Tuple[str, str, int]] = []
        #: ((kind, src, requester), ...) -> those requests as messages
        self.queues: Dict[tuple, Tuple[Message, ...]] = {}
        self.home = _Home(HOME, self)
        self.cores = [Core(i, self, None) for i in range(num_cores)]

    def home_tile(self, line: int) -> str:
        return HOME

    def memory_node(self, tile) -> str:
        return MEM

    def schedule(self, time: int, callback: Callable[..., None], *args) -> None:
        callback(*args)

    def send_protocol(
        self, kind, src, dst, line, requester, at=None, delay=0, acks_expected=0
    ) -> None:
        self.sent.append((kind, src, dst, requester, acks_expected))

    def record_fill(self, core_id: int, mshr: Mshr) -> None:
        pass

    def handle_message(self, msg: Message) -> None:
        """The memory port: ``CmpSystem``'s handlers for memory kinds."""
        handler = CmpSystem.HANDLERS.get(msg.kind)
        if handler is None:
            raise ProtocolError(f"memory: unexpected {msg!r}")
        handler(self, msg)

    def deliver(self, msg: Msg, state) -> Tuple[object, List[Msg]]:
        """Deliver ``msg`` to its receiver, in ``state`` (None for memory).

        Returns the receiver's state afterwards and the messages it sent,
        once each table row the handlers applied has been validated.
        """
        kind, src, dst, requester, acks = msg
        dir_table, cache_table, mem_table = self.tables
        if dst == HOME:
            agent, table, label, receiver = "home", dir_table, state[0], self.home
            ent = self._load_home(state)
        elif dst == MEM:
            agent, table, label, receiver = "memory", mem_table, MEMORY_READY, self
        else:
            agent, table, label = f"core {dst}", cache_table, core_label(state)
            receiver = self._load_core(dst, state)
        self.delivered = delivered = _message(kind, src, dst, requester, acks)
        self.sent = sent = []
        self.starts = starts = []
        try:
            receiver.handle_message(delivered)
        except ProtocolError as err:
            refusal = str(err)
        else:
            refusal = None
        if refusal is not None:
            # a pair no row claims is unhandled, whatever the handler said
            _row(table, agent, label, kind)
            raise _CheckError("protocol-error", refusal)
        if dst == HOME:
            state = self._read_home(ent)
            final = state[0]
        elif dst == MEM:
            final = MEMORY_READY
        else:
            state = self._read_core(receiver)
            final = core_label(state)
        # One row per transaction: the delivered message's, then a fresh
        # IDLE row per request the home dequeued, each ending where the
        # next begins.
        rows = [(label, kind, 0), *starts]
        ends = starts + [(final, None, len(sent))]
        for (row_label, row_kind, first), (after, _kind, last) in zip(rows, ends):
            emitted = {s[0] for s in sent[first:last]}
            _validate(table, agent, row_label, row_kind, emitted, after)
        return state, sent

    def _queue(self, requests: tuple) -> Tuple[Message, ...]:
        queue = self.queues.get(requests)
        if queue is None:
            queue = tuple(_message(k, s, HOME, r) for k, s, r in requests)
            self.queues[requests] = queue
        return queue

    def _load_home(self, home: HomeState) -> DirectoryEntry:
        dir_state, owner, sharers, active, pending, l2 = home
        if active is not None:  # a GetS or GetX, sent by its requester
            (active,) = self._queue(((active[0], active[1], active[1]),))
        queued = deque(self._queue(pending))
        ent = DirectoryEntry(owner, set(sharers), dir_state, active, queued)
        self.home.entries[_LINE] = ent
        self.home.l2.invalidate(_LINE)
        if l2 != L2_ABSENT:
            self.home.l2.insert(_LINE, _TO_BANK[l2])
        return ent

    def _read_home(self, ent: DirectoryEntry) -> HomeState:
        active = ent.active
        return (
            ent.state,
            ent.owner,
            frozenset(ent.sharers),
            None if active is None else (active.kind, active.requester),
            tuple((m.kind, m.src, m.requester) for m in ent.pending),
            _FROM_BANK[self.home.l2.peek(_LINE)],
        )

    def _load_core(self, i: int, state: CoreState) -> Core:
        base, mshr, evict = state
        core = self.cores[i]
        core.l1.invalidate(_LINE)
        if base != CacheLabel.I:
            core.l1.insert(_LINE, base)
        core.mshrs.clear()
        if mshr is not None:
            fields = dict(zip(_MSHR_FIELDS, mshr))
            core.mshrs[_LINE] = Mshr(line=_LINE, issued_at=0, **fields)
        core.evicting.clear()
        if evict != EV_NONE:
            core.evicting[_LINE] = evict == EV_RECALLED
        return core

    @staticmethod
    def _read_core(core: Core) -> CoreState:
        mshr = core.mshrs.get(_LINE)
        return (
            core.l1.peek(_LINE) or CacheLabel.I,
            None if mshr is None else _mshr_state(mshr),
            _SHADOWS[core.evicting.get(_LINE)],
        )


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
    deliberately-broken fixtures); the handlers are always the simulator's
    own, as the classes define them when the check runs.

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
    controllers = _Controllers(num_cores, (dir_table, cch_table, mem_table))
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
        numbering = {HOME: homes, MEM: None}.get(msg[2], cores)
        try:
            after, out = controllers.deliver(
                msg, None if numbering is None else numbering.values[receiver]
            )
        except _CheckError as err:
            # without its traceback, whose frames would tie the tables to
            # this call in a cycle that outlives it
            return -1, (), err.with_traceback(None)
        if numbering is not None:
            receiver = numbering(after)
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
        # worded when the checker ran a mirror of the handlers; the recorded
        # report digests pin the line byte for byte
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
