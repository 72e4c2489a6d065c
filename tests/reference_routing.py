"""Queries as they were routed: one kernel event per query.

A workload's queries used to enter the kernel one by one:
``PrestoSystem.run`` and ``_CellPartition.setup`` scheduled a callback per
query at its arrival (``Simulator.schedule``, taking the query's sequence
number there), ``Simulator.run_until`` popped them off the one heap beside
every other event, and each fired ``route_query``, which re-derived the
query's route on every call: range-checked the sensor against the trace,
looked the owner up in the ownership table and the directory, translated the
sensor into the owner's numbering and found the owner's built cell.

:func:`per_query_event` restores all of that: ``Simulator.stream`` becomes
one heap event per entry, at the very ``(time, seq)`` the entry was given
(the sequence number the query's ``schedule`` call would have taken), the
kernel loop is the old peek-and-pop one, and ``route_query`` is the old
chain.  The kernel stream and the route rows must leave everything the same:
the merged answer log, the failover positions and the report.
"""

from __future__ import annotations

import heapq
import math

from repro.core.federation import HOP_LATENCY_S, _RoutingCore
from repro.core.queries import AnswerSource, QueryAnswer
from repro.simulation.kernel import Event, SimulationError, Simulator
from repro.traces.workload import Query


def per_query_event(patch) -> None:
    """Route every query through its own kernel event and the old chain."""
    patch.setattr(Simulator, "stream", schedule_each)
    patch.setattr(Simulator, "run_until", run_until)
    patch.setattr(_RoutingCore, "route_query", route_query)


def schedule_each(self: Simulator, entries, fire) -> None:
    """One heap event per ``(time, seq, item)`` entry: what ``schedule``
    per query queued, the query's own sequence number included."""
    for time, seq, item in entries:
        if not time >= self._now:
            raise SimulationError(
                f"cannot schedule at t={time:.6f}, clock already at {self._now:.6f}"
            )
        event = Event(time=time, seq=seq, callback=lambda item=item: fire(item))
        heapq.heappush(self._queue._heap, (time, seq, event))


def run_until(self: Simulator, horizon: float) -> None:
    """The kernel loop as it was: peek the earliest live event, pop it, fire it."""
    if horizon < self._now:
        raise SimulationError(
            f"horizon {horizon:.6f} is before current time {self._now:.6f}"
        )
    self._running = True
    try:
        while True:
            top = self._queue.peek()   # what ``EventQueue.peek_time`` read
            next_time = None if top is None else top[0]
            if next_time is None or next_time > horizon:
                break
            event = self._queue.pop()
            assert event is not None
            self._now = event.time
            self._seq = event.seq
            event.callback()
            self._events_fired += 1
        self._now = max(self._now, horizon)
    finally:
        self._running = False
        self._seq = math.inf


def route_query(self: _RoutingCore, query: Query) -> QueryAnswer:
    """``route_query`` as it was: the route worked out again per query."""
    if not 0 <= query.sensor < self.trace.n_sensors:
        self.routing.unroutable += 1
        answer = QueryAnswer(
            query=query, value=None, source=AnswerSource.FAILED, latency_s=0.0
        )
        self._query_log.append(answer)
        return answer
    owner_name, hops = self._route[query.sensor]
    self.routing.cross_proxy_hops += hops
    routing_latency = hops * HOP_LATENCY_S
    owner = self.directory.proxy(owner_name)
    if owner.alive:
        if hops > 0:
            routing_latency += owner.response_latency_s
        answer = self._built[owner_name].proxy.process_query(
            query, self._by_name[owner_name].to_local(query.sensor), routing_latency
        )
    else:
        self.routing.failovers += 1
        self._failover_positions.append(len(self._query_log))
        answer = self._failover_answer(query, owner_name, routing_latency)
    self._query_log.append(answer)
    return answer
