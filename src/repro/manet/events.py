"""Minimal discrete-event simulation core.

A binary-heap event queue with stable tie-breaking (events scheduled at
identical timestamps fire in insertion order), which keeps runs bit-for-bit
reproducible.  Callbacks receive the firing time; cancellation is handled
with tombstones so it is O(1).
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable

__all__ = ["EventQueue", "EventHandle"]


class EventHandle:
    """Opaque handle returned by :meth:`EventQueue.schedule`; supports
    cancellation."""

    __slots__ = ("cancelled",)

    def __init__(self) -> None:
        self.cancelled = False

    def cancel(self) -> None:
        """Prevent the event from firing (no-op if already fired)."""
        self.cancelled = True


#: Shared handle for :meth:`EventQueue.post` events — never cancelled.
_NEVER_CANCELLED = EventHandle()


class EventQueue:
    """Time-ordered callback queue.

    ``schedule(t, fn)`` enqueues ``fn`` to run at simulated time ``t``;
    ``run_until(horizon)`` pops and executes events in time order until the
    queue drains or the next event lies beyond the horizon.  Scheduling in
    the past (before the most recently fired event) or at NaN is rejected
    — that always indicates a protocol-logic bug (a NaN entry would sit at
    the heap top, comparing False against everything, and block every
    later event).
    """

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, EventHandle, Callable[[float], None]]] = []
        self._counter = itertools.count()
        self._now = 0.0
        self._fired = 0

    @property
    def now(self) -> float:
        """Timestamp of the most recently fired event (0 before any)."""
        return self._now

    @property
    def pending(self) -> int:
        """Number of not-yet-fired, not-cancelled events."""
        return sum(1 for _, _, h, _ in self._heap if not h.cancelled)

    @property
    def fired(self) -> int:
        """Total number of events executed so far."""
        return self._fired

    def schedule(self, time_s: float, callback: Callable[[float], None]) -> EventHandle:
        """Enqueue ``callback`` to fire at ``time_s``; returns a handle."""
        if not time_s >= self._now:
            raise ValueError(
                f"cannot schedule at {time_s} (current time {self._now})"
            )
        handle = EventHandle()
        heapq.heappush(self._heap, (time_s, next(self._counter), handle, callback))
        return handle

    def post(self, time_s: float, callback: Callable[[float], None]) -> None:
        """Fire-and-forget :meth:`schedule`: no cancellation handle.

        Identical ordering and causality semantics; the event shares one
        immortal never-cancelled handle, which spares the per-event
        allocation on paths that never cancel (frame starts/ends, beacon
        rounds — the bulk of a simulation's events).
        """
        if not time_s >= self._now:
            raise ValueError(
                f"cannot schedule at {time_s} (current time {self._now})"
            )
        heapq.heappush(
            self._heap, (time_s, next(self._counter), _NEVER_CANCELLED, callback)
        )

    def run_until(self, horizon_s: float) -> int:
        """Fire events with timestamp <= horizon; return how many fired."""
        fired_here = 0
        heap = self._heap
        pop = heapq.heappop
        while heap and heap[0][0] <= horizon_s:
            time_s, _, handle, callback = pop(heap)
            if handle.cancelled:
                continue
            self._now = time_s
            callback(time_s)
            self._fired += 1
            fired_here += 1
        # Advance the clock to the horizon unconditionally: the caller has
        # observed time ``horizon_s``, so a later ``schedule()`` before it
        # would violate causality even when the heap still holds events
        # (or cancelled tombstones) beyond the horizon.
        self._now = max(self._now, horizon_s)
        return fired_here

    def run_all(self, hard_limit: int = 10_000_000) -> int:
        """Fire every pending event (guarded against runaway schedules)."""
        fired_here = 0
        while self._heap:
            if fired_here >= hard_limit:
                raise RuntimeError("event limit exceeded; runaway schedule?")
            time_s, _, handle, callback = heapq.heappop(self._heap)
            if handle.cancelled:
                continue
            self._now = time_s
            callback(time_s)
            self._fired += 1
            fired_here += 1
        return fired_here
