"""Adapters presenting concrete simulators/models as
:class:`~repro.core.interfaces.NetworkModel`.

* :class:`DetailedNetworkAdapter` — wraps a flit-level simulator (the OO
  :class:`~repro.noc.network.CycleNetwork` or a lane of the GPU-style
  :class:`~repro.engine.network.SimdBatch`; they share the same
  inject/step/drain surface).
* :class:`AbstractModelAdapter` — wraps any
  :class:`~repro.abstractnet.base.AbstractNetworkModel`; latency is computed
  at send time, so the adapter is *inline* (no quantum skew).
"""

from __future__ import annotations

from typing import List

from ..abstractnet.base import AbstractNetworkModel
from ..errors import InvariantError, SimulationError, StallError
from ..fullsys.coherence import Message
from .bridge import MessageBridge
from .interfaces import Delivery

__all__ = ["DetailedNetworkAdapter", "AbstractModelAdapter"]


class DetailedNetworkAdapter:
    """Quantum-coupled adapter over a flit-level network simulator."""

    inline = False

    def __init__(self, network, bridge: MessageBridge | None = None) -> None:
        self.network = network
        self.bridge = bridge or MessageBridge()
        self.messages_sent = 0

    @property
    def cycle(self) -> int:
        return self.network.cycle

    @property
    def in_flight(self) -> int:
        return self.network.in_flight

    def send(self, msg: Message, now: int) -> None:
        if now < self.network.cycle:
            raise SimulationError(
                f"message created at {now} but network already at "
                f"{self.network.cycle}; quantum coupling is broken"
            )
        self.network.inject(self.bridge.to_packet(msg, now), cycle=now)
        self.messages_sent += 1

    def advance(self, to_cycle: int) -> None:
        while self.network.cycle < to_cycle:
            self.network.step()

    def pop_deliveries(self) -> List[Delivery]:
        out: List[Delivery] = []
        for packet in self.network.pop_delivered():
            msg = self.bridge.to_message(packet)
            out.append((msg, packet.eject_cycle, packet.latency))
        return out

    def drain(self, max_cycles: int = 1_000_000) -> None:
        """Step until empty; a hit cycle cap is a *stall*, never silent.

        The cap exists so a wedged network cannot spin forever, but hitting
        it is always a bug or an injected fault — so it raises a structured
        :class:`~repro.errors.StallError` with the full diagnostic dump
        (VC occupancy, oldest packets) rather than a bare message.
        """
        try:
            self.network.drain(max_cycles)
        except (StallError, InvariantError):
            raise  # already structured / a different failure class
        except SimulationError as exc:
            from ..resilience.watchdog import network_diagnostics

            diag = network_diagnostics(self.network)
            raise StallError(
                f"network failed to drain: {exc}\n" + diag.render(),
                diagnostics=diag,
            ) from exc

    def describe(self) -> dict:
        return {
            "network": type(self.network).__name__,
            "topology": repr(self.network.topo),
            "config": repr(self.network.config),
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"DetailedNetworkAdapter({self.network!r})"


class AbstractModelAdapter:
    """Inline adapter over a message-level latency model."""

    inline = True

    def __init__(self, model: AbstractNetworkModel) -> None:
        self.model = model
        self.cycle = 0
        self._pending: List[Delivery] = []
        self.messages_sent = 0

    @property
    def in_flight(self) -> int:
        return len(self._pending)

    def send(self, msg: Message, now: int) -> None:
        latency = self.model.latency(
            msg.src, msg.dst, msg.size_flits, msg.msg_class, now
        )
        if latency < 1:
            raise SimulationError(
                f"{self.model!r} produced non-positive latency {latency}"
            )
        self._pending.append((msg, now + latency, latency))
        self.messages_sent += 1

    def advance(self, to_cycle: int) -> None:
        self.model.on_quantum(to_cycle, to_cycle - self.cycle)
        self.cycle = to_cycle

    def pop_deliveries(self) -> List[Delivery]:
        out = self._pending
        self._pending = []
        return out

    def drain(self, max_cycles: int = 1_000_000) -> None:
        """Nothing buffered beyond :meth:`pop_deliveries`; a no-op."""

    def describe(self) -> dict:
        return self.model.describe()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"AbstractModelAdapter({self.model!r})"
