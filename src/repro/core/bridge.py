"""Message ↔ packet translation between the two abstraction levels.

The full-system simulator thinks in protocol :class:`Message` s; the
cycle-level network thinks in :class:`Packet` s of flits.  The bridge maps
one to the other and back, carrying the message as the packet payload so no
lookup table is needed on ejection.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..errors import SimulationError
from ..fullsys.coherence import Message
from ..noc.packet import Packet

__all__ = ["MessageBridge", "ResilientBridge", "OutstandingSend"]


class MessageBridge:
    """Stateless translator (kept as a class for counting and symmetry)."""

    def __init__(self) -> None:
        self.packets_created = 0
        self.messages_recovered = 0

    def to_packet(self, msg: Message, inject_cycle: int) -> Packet:
        """Wrap a protocol message as a network packet."""
        if msg.src == msg.dst:
            raise SimulationError(
                f"message {msg!r} is tile-local; it must not reach the network"
            )
        self.packets_created += 1
        return Packet(
            msg.src, msg.dst, msg.size_flits, msg.msg_class, inject_cycle, msg
        )

    def to_message(self, packet: Packet) -> Message:
        """Recover the protocol message carried by an ejected packet."""
        msg = packet.payload
        if not isinstance(msg, Message):
            raise SimulationError(
                f"packet {packet!r} does not carry a protocol message"
            )
        self.messages_recovered += 1
        return msg


@dataclass
class OutstandingSend:
    """Bookkeeping for one message sent but not yet confirmed delivered."""

    msg: Message
    #: times this message has been handed to the network (1 = original only)
    attempts: int
    #: simulated cycle after which the current attempt is presumed lost
    deadline: int
    #: cycle a retransmission is already scheduled for, if any
    resend_at: Optional[int] = None
    #: True once the retry budget is exhausted (or the send was refused);
    #: the entry is kept so message accounting still balances.
    abandoned: bool = False


class ResilientBridge(MessageBridge):
    """Message ↔ packet bridge with end-to-end retransmission bookkeeping.

    Tracks every network-bound message from send to confirmed delivery:
    the outstanding table (keyed by message id) is the single source of
    truth for duplicate suppression, retry budgets, and the per-fault
    drop/retry accounting the fault experiments report.  The *timing* of
    retransmissions (timeouts, backoff) lives in
    :class:`repro.resilience.transport.ResilientNetworkAdapter`, which
    drives this bridge; keeping the state here means the translation layer
    and the recovery ledger can never disagree about which messages exist.
    """

    def __init__(self) -> None:
        super().__init__()
        self.outstanding: Dict[int, OutstandingSend] = {}
        self.retransmits = 0
        self.duplicates = 0
        self.corrupt_drops = 0
        self.abandoned = 0
        self.refused = 0

    def register(self, msg: Message, deadline: int) -> OutstandingSend:
        """Track a freshly sent message until its delivery is confirmed."""
        if msg.mid in self.outstanding:
            raise SimulationError(
                f"message mid={msg.mid} sent twice without delivery"
            )
        entry = OutstandingSend(msg=msg, attempts=1, deadline=deadline)
        self.outstanding[msg.mid] = entry
        return entry

    def refuse(self, msg: Message) -> None:
        """Record a send refused at injection (destination fail-stopped).

        The entry stays in the table, abandoned, so conservation
        (sent == delivered + outstanding) holds and the stall diagnostics
        can name the undeliverable messages.
        """
        self.refused += 1
        self.outstanding[msg.mid] = OutstandingSend(
            msg=msg, attempts=0, deadline=-1, abandoned=True
        )

    def complete(self, msg: Message) -> Optional[OutstandingSend]:
        """Confirm delivery; returns ``None`` for a duplicate (suppress it)."""
        entry = self.outstanding.pop(msg.mid, None)
        if entry is None:
            self.duplicates += 1
        return entry

    def counters(self) -> Dict[str, int]:
        return {
            "retransmits": self.retransmits,
            "duplicates": self.duplicates,
            "corrupt_drops": self.corrupt_drops,
            "abandoned": self.abandoned,
            "refused": self.refused,
            "outstanding": len(self.outstanding),
        }
