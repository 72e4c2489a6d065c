"""Deterministic discrete-event simulation kernel.

The design follows the classic event-list pattern: callbacks are scheduled at
absolute virtual times, a binary heap orders them, and ties are broken by a
monotonically increasing sequence number so that two events scheduled for the
same instant always fire in scheduling order.  Determinism matters here
because every PRESTO experiment (energy sweeps, architecture comparisons)
must be exactly reproducible from a seed.

Typical usage::

    sim = Simulator()
    sim.schedule(10.0, lambda: print("at t=10"))
    sim.run_until(100.0)
"""

from __future__ import annotations

import heapq
import itertools
from collections.abc import Callable
from dataclasses import dataclass, field


class SimulationError(RuntimeError):
    """Raised for invalid kernel operations (e.g. scheduling in the past)."""


@dataclass
class Event:
    """A scheduled callback.

    The queue orders events by ``(time, seq)``; ``seq`` guarantees FIFO order
    for events at identical times.  ``cancelled`` implements lazy deletion:
    the queue skips cancelled entries when popping.
    """

    time: float
    seq: int
    callback: Callable[[], None] = field(compare=False)
    cancelled: bool = field(default=False, compare=False)

    def cancel(self) -> None:
        """Mark the event so it never fires.  Safe to call repeatedly."""
        self.cancelled = True


class EventQueue:
    """Binary-heap priority queue of :class:`Event` with lazy cancellation.

    Heap entries are ``(time, seq, event)`` tuples: ``seq`` is unique, so the
    heap orders by C tuple comparison and never compares the events.
    """

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, Event]] = []
        self._counter = itertools.count()

    def __len__(self) -> int:
        return sum(1 for _, _, event in self._heap if not event.cancelled)

    def push(self, time: float, callback: Callable[[], None]) -> Event:
        """Add *callback* at absolute *time* and return its handle."""
        seq = next(self._counter)
        event = Event(time=time, seq=seq, callback=callback)
        heapq.heappush(self._heap, (time, seq, event))
        return event

    def pop(self) -> Event | None:
        """Remove and return the earliest live event, or ``None`` if empty."""
        while self._heap:
            event = heapq.heappop(self._heap)[2]
            if not event.cancelled:
                return event
        return None

    def peek_time(self) -> float | None:
        """Return the time of the earliest live event without removing it."""
        while self._heap and self._heap[0][2].cancelled:
            heapq.heappop(self._heap)
        if self._heap:
            return self._heap[0][0]
        return None


class Simulator:
    """Virtual clock plus event queue.

    The clock unit is seconds throughout the repository.  The simulator never
    advances past the time horizon given to :meth:`run_until`, and events may
    freely schedule further events while running.
    """

    def __init__(self, start_time: float = 0.0) -> None:
        self._now = float(start_time)
        self._queue = EventQueue()
        self._events_fired = 0
        self._running = False

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    @property
    def events_fired(self) -> int:
        """Number of callbacks executed so far (for tests and stats)."""
        return self._events_fired

    @property
    def pending(self) -> int:
        """Number of live events still queued."""
        return len(self._queue)

    def schedule(self, time: float, callback: Callable[[], None]) -> Event:
        """Schedule *callback* at absolute virtual *time*.

        Raises :class:`SimulationError` if *time* is in the past or NaN.
        """
        if not time >= self._now:
            raise SimulationError(
                f"cannot schedule at t={time:.6f}, clock already at {self._now:.6f}"
            )
        return self._queue.push(time, callback)

    def schedule_after(self, delay: float, callback: Callable[[], None]) -> Event:
        """Schedule *callback* after *delay* seconds from now."""
        if not delay >= 0:
            raise SimulationError(f"negative or NaN delay {delay!r}")
        return self._queue.push(self._now + delay, callback)

    def run_until(self, horizon: float) -> None:
        """Fire events in order until the queue drains or *horizon* is hit.

        On return the clock equals *horizon* (if reached) or the time of the
        last fired event.  Events scheduled exactly at the horizon fire.
        """
        if horizon < self._now:
            raise SimulationError(
                f"horizon {horizon:.6f} is before current time {self._now:.6f}"
            )
        self._running = True
        try:
            while True:
                next_time = self._queue.peek_time()
                if next_time is None or next_time > horizon:
                    break
                event = self._queue.pop()
                assert event is not None  # peek said there was one
                self._now = event.time
                event.callback()
                self._events_fired += 1
            self._now = max(self._now, horizon)
        finally:
            self._running = False

    def run(self) -> None:
        """Fire every queued event (including ones they schedule) until empty."""
        self._running = True
        try:
            while True:
                event = self._queue.pop()
                if event is None:
                    break
                self._now = event.time
                event.callback()
                self._events_fired += 1
        finally:
            self._running = False

