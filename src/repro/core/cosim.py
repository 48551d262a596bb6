"""The reciprocal-abstraction co-simulator — the paper's contribution.

:class:`CoSimulator` couples a coarse-grain full-system simulator
(:class:`~repro.fullsys.cmp.CmpSystem`) with any network model implementing
:class:`~repro.core.interfaces.NetworkModel`:

* **context** direction: every network-bound protocol message the system
  creates is handed to the network model at its creation cycle, so the
  detailed component always sees real, closed-loop traffic;
* **feedback** direction: the latency the network model reports for each
  message is the latency the system experiences, and is additionally
  aggregated into a :class:`~repro.core.feedback.LatencyFeedback` table that
  can retune abstract models online.

Detailed (non-inline) models advance in *synchronization quanta*: the system
runs ``[t, t+Q)``, its messages are injected at their creation cycles, the
network advances the same window, and deliveries landing inside the window
are clamped to the boundary (at Q=1 this clamping is at most one cycle — the
configuration used as ground truth throughout the experiments).  Inline
(abstract) models are evaluated synchronously inside the event loop, exactly
as a built-in analytical network would be.

That window loop is written once, in :func:`run_lanes`, over a list of
co-simulations: :meth:`CoSimulator.run` is its one-lane case, and
:func:`repro.engine.run_cosim_batch` hands it the lanes of one shared
kernel batch.  Every lane is windowed by its own clock and quantum.

A *shadow* detailed network can be attached for the hybrid modes of
experiment E8: it receives the same traffic (context) but its deliveries are
discarded except for feeding the feedback table, while an inline model
supplies the latencies the system actually uses.
"""

from __future__ import annotations

import time
from collections import defaultdict
from dataclasses import dataclass, field
from heapq import heappop, heappush
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import ConfigError, SimulationError
from ..fullsys.cmp import CmpSystem
from ..fullsys.coherence import Message
from .feedback import LatencyFeedback
from .interfaces import NetworkModel
from .quantum import FixedQuantum

__all__ = ["CoSimulator", "CoSimResult", "run_lanes"]


@dataclass
class CoSimResult:
    """Everything an experiment needs from one co-simulation run."""

    finish_cycle: Optional[int]
    cycles: int
    windows: int
    messages_sent: int
    deliveries: int
    clamped_deliveries: int
    #: latency each delivered message *experienced* (incl. quantum clamping),
    #: keyed by message class; key -1 aggregates all classes.
    applied_latencies: Dict[int, List[int]] = field(default_factory=dict)
    wall_system: float = 0.0
    wall_network: float = 0.0
    wall_total: float = 0.0
    system_summary: Dict[str, float] = field(default_factory=dict)
    network_description: Dict[str, object] = field(default_factory=dict)
    feedback_snapshot: Dict = field(default_factory=dict)

    def mean_latency(self, msg_class: int = -1) -> float:
        """Mean applied message latency (all classes by default)."""
        lats = self.applied_latencies.get(msg_class, [])
        return sum(lats) / len(lats) if lats else 0.0

    def latency_count(self, msg_class: int = -1) -> int:
        return len(self.applied_latencies.get(msg_class, []))

    @property
    def completed(self) -> bool:
        return self.finish_cycle is not None


class CoSimulator:
    """Couple a full-system simulator with a network model."""

    def __init__(
        self,
        system: CmpSystem,
        network: NetworkModel,
        quantum: int | FixedQuantum | object = 4,
        feedback: Optional[LatencyFeedback] = None,
        shadow: Optional[NetworkModel] = None,
        invariants: Optional[object] = None,
        watchdog: Optional[object] = None,
        checkpointer: Optional[object] = None,
    ) -> None:
        self.system = system
        self.network = network
        self.quantum = (
            FixedQuantum(quantum) if isinstance(quantum, int) else quantum
        )
        self.feedback = feedback if feedback is not None else LatencyFeedback(
            system.topo
        )
        self.shadow = shadow
        #: optional runtime checker (see repro.analysis.invariants); it is
        #: duck-typed so the core stays import-independent of analysis.
        self.invariants = invariants
        #: optional progress monitor (see repro.resilience.watchdog) and
        #: checkpoint writer (see repro.resilience.checkpoint); duck-typed
        #: for the same reason — core never imports resilience.
        self.watchdog = watchdog
        self.checkpointer = checkpointer
        if shadow is not None and shadow.inline:
            raise ConfigError("a shadow network must be a detailed (non-inline) model")
        if shadow is not None and not network.inline:
            raise ConfigError(
                "shadow mode pairs an inline delivery model with a detailed "
                "shadow; the main network is already detailed"
            )

        self._outbox: List[Message] = []
        self._shadow_outbox: List[Message] = []
        self._applied: Dict[int, List[int]] = defaultdict(list)
        self.messages_sent = 0
        self.deliveries = 0
        self.clamped = 0
        self.windows = 0
        self._wall_system = 0.0
        self._wall_network = 0.0
        #: execution provenance (repro.engine.api.EngineDecision), set by
        #: build_cosim / run_cosim_batch; duck-typed so the core
        #: never imports the engine package at module level.
        self.engine_decision: Optional[object] = None
        #: False until the first run() call has started the system; lets a
        #: checkpoint-restored CoSimulator resume run() without re-running
        #: system start-up (which would double-schedule core wake-ups).
        self._started = False
        #: tail-drain progress guard: the (sent, delivered) counts last seen
        #: to move, and the cycle by which they must move again
        self._tail_progress: Optional[Tuple[int, int]] = None
        self._tail_deadline = 0
        system.transport = self._on_message

    # ------------------------------------------------------------------
    # Transport hook (called by the system at message-creation time)
    # ------------------------------------------------------------------
    def _on_message(self, msg: Message) -> None:
        self.messages_sent += 1
        network = self.network
        if network.inline:
            network.send(msg, self.system.events.now)
            for delivered, when, _ in network.pop_deliveries():
                self._schedule_delivery(delivered, when, False)
        else:
            self._outbox.append(msg)
        if self.shadow is not None:
            self._shadow_outbox.append(msg)

    def _schedule_delivery(
        self, msg: Message, when: int, record_feedback: bool
    ) -> None:
        events = self.system.events
        deliver_at = events.now
        if when < deliver_at:
            self.clamped += 1
        else:
            deliver_at = when
        latency = deliver_at - msg.created_cycle
        applied = self._applied
        applied[msg.msg_class].append(latency)
        applied[-1].append(latency)
        self.deliveries += 1
        if record_feedback:
            self.feedback.record(msg, latency)
        # A bound method plus its argument (not a lambda) so the pending
        # event heap stays picklable for checkpoint/restore.
        events.schedule(deliver_at, self.system.deliver, msg)

    # ------------------------------------------------------------------
    # Window phases
    #
    # One synchronization window decomposes into: (system) run the event
    # loop to the boundary, (flush) hand buffered messages to the network
    # at their creation cycles, (advance) step the network to the
    # boundary, (collect) schedule its deliveries back into the event
    # loop, (finish) invariants / quantum observation / monitors.
    # run_lanes() opens a window (system, flush) per lane at that lane's
    # own boundary, then advances and collects only the lanes whose
    # boundary is the earliest open one, so lanes sharing one batched
    # kernel step it together while each keeps its own quantum.
    # ------------------------------------------------------------------
    def _begin(self) -> None:
        """Start the system exactly once (checkpoint-restore safe)."""
        if not self._started:
            if self.invariants is not None:
                self.invariants.on_run_start(self)
            self.system.start()
            self._started = True

    def _check_wedge(self) -> None:
        if (
            self.system.events.pending == 0
            and not self._outbox
            and getattr(self.network, "in_flight", 0) == 0
        ):
            raise SimulationError(
                "co-simulation wedged: no events, no traffic in flight, "
                f"but only {self.system._finished_cores} of "
                f"{len(self.system.cores)} cores finished"
            )

    def _phase_system(self, target: int) -> None:
        t0 = time.perf_counter()  # simlint: allow[wall-clock]
        self.system.run_until(target)
        self._wall_system += time.perf_counter() - t0  # simlint: allow[wall-clock, nondeterminism-taint]

    def _phase_flush(self) -> None:
        t0 = time.perf_counter()  # simlint: allow[wall-clock]
        if not self.network.inline:
            for msg in self._outbox:
                self.network.send(msg, msg.created_cycle)
            self._outbox.clear()
        if self.shadow is not None:
            for msg in self._shadow_outbox:
                self.shadow.send(msg, msg.created_cycle)
            self._shadow_outbox.clear()
        self._wall_network += time.perf_counter() - t0  # simlint: allow[wall-clock, nondeterminism-taint]

    def _phase_advance(self, target: int) -> None:
        t0 = time.perf_counter()  # simlint: allow[wall-clock]
        self.network.advance(target)
        if self.shadow is not None:
            self.shadow.advance(target)
        self._wall_network += time.perf_counter() - t0  # simlint: allow[wall-clock, nondeterminism-taint]

    def _phase_collect(self) -> None:
        t0 = time.perf_counter()  # simlint: allow[wall-clock]
        if not self.network.inline:
            for msg, when, latency in self.network.pop_deliveries():
                self._schedule_delivery(msg, when, True)
        if self.shadow is not None:
            for msg, when, latency in self.shadow.pop_deliveries():
                # Shadow deliveries feed the reciprocal table only; the
                # system already received this message from the inline model.
                self.feedback.record(msg, latency)
        self._wall_network += time.perf_counter() - t0  # simlint: allow[wall-clock, nondeterminism-taint]

    def _phase_finish(self, target: int, sent_before: int) -> None:
        """Post-window bookkeeping for a main-loop window."""
        if self.invariants is not None:
            self.invariants.after_window(self, target)
        self.quantum.observe_window(
            self.messages_sent - sent_before, self.deliveries
        )
        self.windows += 1
        if self.watchdog is not None:
            self.watchdog.after_window(self, target)
        if self.checkpointer is not None:
            self.checkpointer.after_window(self, target)

    def _tail_pending(self) -> bool:
        """Anything left that a drain window must still deliver?"""
        return bool(
            self.system.events.pending
            or self._outbox
            or self._shadow_outbox
            or getattr(self.network, "in_flight", 0)
            or (self.shadow is not None and self.shadow.in_flight)
        )

    def _tail_stalled(self) -> bool:
        """Progress guard of the tail drain: a non-empty tail is a wedge
        once a whole guard interval passes with no message sent or
        delivered.  Counting messages, not events, means a self-rescheduling
        event cannot hold a stuck tail open, while a long tail that keeps
        delivering (misses serialised at a hot line's directory) drains.

        A retransmitting network model may legitimately go far longer
        between deliveries than the default interval (bounded exponential
        backoff between attempts); it advertises its worst case via
        ``drain_guard_cycles``.
        """
        progress = (self.messages_sent, self.deliveries)
        if progress != self._tail_progress:
            self._tail_progress = progress
            self._tail_deadline = self.system.now + max(
                10_000,
                100 * self.quantum.next_quantum(),
                getattr(self.network, "drain_guard_cycles", 0),
            )
        return self.system.now > self._tail_deadline

    def _tail_error(self, where: str = "") -> SimulationError:
        return SimulationError(
            "co-simulation tail failed to drain "
            f"({self.system.events.pending} events, "
            f"{getattr(self.network, 'in_flight', 0)} packets left{where})"
        )

    # ------------------------------------------------------------------
    def run(self, max_cycles: int = 5_000_000) -> CoSimResult:
        """Run until every core finishes (or ``max_cycles``)."""
        return run_lanes([self], max_cycles)[0]

    # ------------------------------------------------------------------
    def _result(self, wall_total: float) -> CoSimResult:
        description = dict(self.network.describe())
        description["quantum"] = self.quantum.describe()
        if self.shadow is not None:
            description["shadow"] = self.shadow.describe()
        # Execution provenance, set by build_cosim / the batch driver (see
        # repro.engine): which engine ran the NoC.  Engines are
        # bit-identical, so this never affects the metrics themselves.
        engine = getattr(self, "engine_decision", None)
        if engine is not None:
            description["engine"] = {
                "name": engine.name,
                "kernel_version": engine.kernel_version,
            }
        return CoSimResult(
            finish_cycle=self.system.finish_cycle,
            cycles=self.system.now,
            windows=self.windows,
            messages_sent=self.messages_sent,
            deliveries=self.deliveries,
            clamped_deliveries=self.clamped,
            applied_latencies=dict(self._applied),
            wall_system=self._wall_system,
            wall_network=self._wall_network,
            wall_total=wall_total,
            system_summary=self.system.summary(),
            network_description=description,
            feedback_snapshot=self.feedback.snapshot(),
        )


def run_lanes(cosims: Sequence[CoSimulator], max_cycles: int) -> List[CoSimResult]:
    """Run every co-simulation until its cores finish (or ``max_cycles``).

    Each lane opens its window ``[now, now + Q)`` from its own clock and
    its own ``quantum.next_quantum()``: a main window, cut at
    ``max_cycles``, while cores run; then, once its last core finishes,
    drain windows (never cut) until the protocol's trailing messages are
    delivered under the tail progress guard.  Opening runs the system
    phase and the flush.  The network clock then advances to the earliest
    open boundary, and only the lanes whose boundary that is advance,
    collect and do their bookkeeping — so lanes of one shared kernel
    batch step it together, and a lane's result does not depend on the
    lanes beside it.  Drain windows call only ``invariants.after_window``.
    """
    wall_start = time.perf_counter()  # simlint: allow[wall-clock]
    lanes = len(cosims)
    results: List[Optional[CoSimResult]] = [None] * lanes
    # open windows as (boundary, lane): lanes due together pop in lane order
    open_windows: List[Tuple[int, int]] = []
    # messages sent before each lane's main window (None: a drain window)
    sent_before: List[Optional[int]] = [None] * lanes
    for cosim in cosims:
        cosim._begin()
    due: Sequence[int] = range(lanes)
    while True:
        for i in due:
            cosim = cosims[i]
            system = cosim.system
            now = system.now
            finished = system.all_finished
            if not finished and now < max_cycles:
                cosim._check_wedge()
                target = min(now + cosim.quantum.next_quantum(), max_cycles)
                sent_before[i] = cosim.messages_sent
                cosim._phase_system(target)
            elif finished and cosim._tail_pending():
                if cosim._tail_stalled():
                    raise cosim._tail_error(f" in lane {i}" if lanes > 1 else "")
                target = now + cosim.quantum.next_quantum()
                sent_before[i] = None
                system.run_until(target)
            else:
                wall = time.perf_counter() - wall_start  # simlint: allow[wall-clock]
                results[i] = cosim._result(wall)
                continue
            cosim._phase_flush()
            heappush(open_windows, (target, i))
        if not open_windows:
            return [r for r in results if r is not None]
        target = open_windows[0][0]
        due = []
        while open_windows and open_windows[0][0] == target:
            due.append(heappop(open_windows)[1])
        for i in due:
            # The first due lane of a shared batch steps it to the
            # boundary; the others find its clock already there.
            cosim = cosims[i]
            cosim._phase_advance(target)
            cosim._phase_collect()
            sent = sent_before[i]
            if sent is not None:
                cosim._phase_finish(target, sent)
            elif cosim.invariants is not None:
                cosim.invariants.after_window(cosim, target)
