"""Discrete-event kernel for the coarse-grain full-system simulator.

A deliberately small engine: a binary heap of ``(time, sequence, callback,
args)`` entries.  The sequence number makes simultaneous events fire in
scheduling order, which keeps whole-system runs deterministic.  Events carry
their arguments, so callers schedule a bound method plus its operands —
nothing is allocated per event beyond the heap entry, and the pending heap
pickles for checkpoint/restore (never schedule a lambda or closure).

The co-simulation layer drives the kernel in bounded slices
(:meth:`run_until`) — one slice per synchronization quantum.
"""

from __future__ import annotations

import heapq
from typing import Callable, List, Optional, Tuple

from ..errors import SimulationError

__all__ = ["EventQueue"]


class EventQueue:
    """Time-ordered callback queue."""

    def __init__(self) -> None:
        self.now = 0
        self._heap: List[Tuple[int, int, Callable[..., None], tuple]] = []
        self._seq = 0
        self.events_processed = 0

    def schedule(self, time: int, callback: Callable[..., None], *args) -> None:
        """Run ``callback(*args)`` at ``time`` (>= now)."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule event at {time}; simulator is at {self.now}"
            )
        heapq.heappush(self._heap, (time, self._seq, callback, args))
        self._seq += 1

    def schedule_in(self, delay: int, callback: Callable[..., None], *args) -> None:
        """Run ``callback(*args)`` ``delay`` cycles from now."""
        self.schedule(self.now + delay, callback, *args)

    # ------------------------------------------------------------------
    def run_until(self, time: int) -> None:
        """Process every event with timestamp <= ``time``; leave now=time.

        Events may schedule further events; newly scheduled events inside
        the window are processed in the same call.
        """
        if time < self.now:
            raise SimulationError(f"run_until({time}) but simulator is at {self.now}")
        self._run(time)
        self.now = time

    def run_all(self, max_time: Optional[int] = None) -> None:
        """Drain the queue completely (or up to ``max_time``)."""
        if max_time is None:
            self._run(float("inf"))
        else:
            self._run(max_time)
            if self._heap:
                self.now = max_time

    def _run(self, limit: float) -> None:
        """Pop and fire events up to ``limit``; an event whose callback
        raises is not counted and leaves ``now`` at its timestamp."""
        heap, pop = self._heap, heapq.heappop
        fired = 0
        try:
            while heap and heap[0][0] <= limit:
                self.now, _, callback, args = pop(heap)
                callback(*args)
                fired += 1
        finally:
            self.events_processed += fired

    # ------------------------------------------------------------------
    @property
    def pending(self) -> int:
        return len(self._heap)

    def next_event_time(self) -> Optional[int]:
        return self._heap[0][0] if self._heap else None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"EventQueue(now={self.now}, pending={self.pending})"
