"""Deterministic discrete-event simulation kernel.

The design follows the classic event-list pattern: callbacks are scheduled at
absolute virtual times, a binary heap orders them, and ties are broken by a
monotonically increasing sequence number so that two events scheduled for the
same instant always fire in scheduling order.  Determinism matters here
because every PRESTO experiment (energy sweeps, architecture comparisons)
must be exactly reproducible from a seed.

Work known in full before a run starts — a workload's queries — need not
enter the heap at all: :meth:`Simulator.stream` hands the kernel one sorted
stream of ``(time, seq, item)`` entries, their sequence numbers taken with
:meth:`Simulator.tickets` where the events would have been scheduled, and
:meth:`Simulator.run_until` fires each entry where its event would have
fired, merged with the heap by ``(time, seq)``.

Typical usage::

    sim = Simulator()
    sim.schedule(10.0, lambda: print("at t=10"))
    sim.run_until(100.0)
"""

from __future__ import annotations

import heapq
import itertools
import math
import operator
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field
from typing import Any, TypeVar

#: what a stream entry carries to its callback
Item = TypeVar("Item")


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

    def peek(self) -> tuple[float, int, Event] | None:
        """The earliest live ``(time, seq, event)`` entry, left queued, or
        ``None`` if empty."""
        heap = self._heap
        while heap and heap[0][2].cancelled:
            heapq.heappop(heap)
        return heap[0] if heap else None


class Simulator:
    """Virtual clock plus event queue, and a stream of pre-sequenced entries.

    The clock unit is seconds throughout the repository.  The simulator never
    advances past the time horizon given to :meth:`run_until`, and events may
    freely schedule further events while running.
    """

    def __init__(self, start_time: float = 0.0) -> None:
        self._now = float(start_time)
        self._queue = EventQueue()
        self._events_fired = 0
        self._running = False
        self._seq: float = math.inf   # the running event's; inf between events
        #: the stream's ``(time, seq, item)`` entries in order, how many
        #: have fired, and what fires one
        self._stream: list[tuple[float, int, Any]] = []
        self._streamed = 0
        self._fire: Callable[[Any], object] = lambda item: None   # no stream yet

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    @property
    def events_fired(self) -> int:
        """Number of callbacks executed so far, stream entries included
        (for tests and stats)."""
        return self._events_fired

    @property
    def position(self) -> tuple[float, float]:
        """``(time, seq)`` of the running event; ``(now, inf)`` between events."""
        return self._now, self._seq

    def tickets(self, count: int) -> list[int]:
        """Take the sequence numbers *count* events scheduled now, one after
        another, would, queueing none: work kept outside the queue (a
        proxy's inbox) ties as they would."""
        return list(itertools.islice(self._queue._counter, count))

    @property
    def pending(self) -> int:
        """Number of live events still queued, and stream entries not fired."""
        return len(self._queue) + len(self._stream) - self._streamed

    def stream(
        self, entries: Iterable[tuple[float, int, Item]], fire: Callable[[Item], object]
    ) -> None:
        """Fire ``fire(item)`` for each ``(time, seq, item)`` of *entries* at
        ``(time, seq)``, as an event scheduled there would fire, without
        queueing one.

        Each ``seq`` must be a ticket (:meth:`tickets`), so entries and
        events never tie.  :meth:`run_until` merges the stream with the
        queue by ``(time, seq)`` — an event a callback schedules before the
        next entry fires first — and an entry counts in :attr:`events_fired`
        and :attr:`pending`.  One stream at a time: a new one may be given
        between runs once the previous has fired.  Raises
        :class:`SimulationError` for an entry in the past or at NaN.
        """
        if self._running or self._streamed < len(self._stream):
            raise SimulationError("the kernel already holds an unfinished stream")
        ordered = sorted(entries)
        if not all(map(self._now.__le__, map(operator.itemgetter(0), ordered))):
            raise SimulationError(
                f"cannot stream an entry before t={self._now:.6f} or at NaN"
            )
        self._stream = ordered
        self._streamed = 0
        self._fire = fire

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
        """Fire events and stream entries in ``(time, seq)`` order until
        both run out or *horizon* is hit.

        On return the clock equals *horizon* (if reached) or the time of the
        last fired event.  Events scheduled exactly at the horizon fire.
        """
        if horizon < self._now:
            raise SimulationError(
                f"horizon {horizon:.6f} is before current time {self._now:.6f}"
            )
        queue = self._queue
        stream, fire, streamed = self._stream, self._fire, self._streamed
        self._running = True
        try:
            while True:
                # The live top is read afresh for every entry, so an event
                # the last callback scheduled before the next entry fires
                # first; entries and events never tie (distinct tickets).
                top = queue.peek()
                if streamed < len(stream) and (top is None or stream[streamed] < top):
                    time, seq, item = stream[streamed]
                    if time > horizon:
                        break
                    streamed += 1
                    self._streamed = streamed
                    self._now = time
                    self._seq = seq
                    fire(item)
                else:
                    if top is None or top[0] > horizon:
                        break
                    event = queue.pop()
                    assert event is not None  # peek said there was one
                    self._now = event.time
                    self._seq = event.seq
                    event.callback()
                self._events_fired += 1
            self._now = max(self._now, horizon)
        finally:
            self._running = False
            self._seq = math.inf


