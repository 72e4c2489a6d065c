"""The per-entry standing-query engine, kept as the tests' reference.

Bit-for-bit the engine's rule as it was when every cache write fed it one
:class:`CacheEntry` at a time through ``on_entry``.
``test_continuous.py`` feeds it each run's rows in write order and holds
:meth:`repro.core.continuous.ContinuousQueryEngine.on_run` to what it
leaves: notifications, the latest timestamp and value per sensor, the
firing history, ``evaluations`` and ``stale_entries_skipped``.
"""

from __future__ import annotations

import bisect
import dataclasses

from repro.core.cache import CacheEntry, EntrySource
from repro.core.continuous import ContinuousQuery, Notification, TriggerKind


class PerEntryQueryEngine:
    """Evaluates standing queries one cache entry at a time."""

    def __init__(self) -> None:
        self._queries: dict[int, ContinuousQuery] = {}
        self._next_id = 0
        self._last_value: dict[int, float] = {}
        self._latest_ts: dict[int, float] = {}
        self._fired_times: dict[int, list[float]] = {}  # sorted per query
        self.notifications: list[Notification] = []
        self.evaluations = 0
        self.stale_entries_skipped = 0
        #: the sensors some query watches, a new set whenever queries change
        self.watched: frozenset[int] = frozenset()

    def register(self, query: ContinuousQuery) -> int:
        """Arm a standing query; returns its id (assigned here if it has none)."""
        if query.query_id is None:
            query = dataclasses.replace(query, query_id=self._next_id)
        self._next_id = max(self._next_id, query.query_id + 1)
        self._queries[query.query_id] = query
        self.watched = frozenset(q.sensor for q in self._queries.values())
        return query.query_id

    def cancel(self, query_id: int) -> None:
        """Disarm a standing query."""
        self._queries.pop(query_id, None)
        self.watched = frozenset(q.sensor for q in self._queries.values())

    def on_entry(self, sensor: int, entry: CacheEntry) -> list[Notification]:
        """Feed one cache update; returns the notifications it fired.

        PULLED entries before the latest timestamp and PREDICTED entries
        at or before it are stale; an actual at exactly the latest
        timestamp is a refinement; PUSHED entries are always evaluated
        but never rewind the history.
        """
        latest = self._latest_ts.get(sensor)
        fresh = latest is None or entry.timestamp > latest
        refinement = (
            latest is not None and entry.timestamp == latest and entry.is_actual
        )
        late_push = entry.source is EntrySource.PUSHED
        if not fresh and not refinement and not late_push:
            self.stale_entries_skipped += 1
            return []
        if fresh:
            self._latest_ts[sensor] = entry.timestamp
        fired: list[Notification] = []
        for query in self._queries.values():
            if query.sensor != sensor:
                continue
            self.evaluations += 1
            if not self._matches(query, sensor, entry):
                continue
            if self._rate_limited(query, entry.timestamp):
                continue
            notification = Notification(
                query_id=query.query_id,
                sensor=sensor,
                timestamp=entry.timestamp,
                value=entry.value,
                from_actual=entry.is_actual,
            )
            if query.min_interval_s > 0:
                bisect.insort(
                    self._fired_times.setdefault(query.query_id, []),
                    entry.timestamp,
                )
            self.notifications.append(notification)
            fired.append(notification)
        if fresh or refinement:
            self._last_value[sensor] = entry.value
        return fired

    def _rate_limited(self, query: ContinuousQuery, timestamp: float) -> bool:
        if query.min_interval_s <= 0:
            return False
        times = self._fired_times.get(query.query_id)
        if not times:
            return False
        position = bisect.bisect_left(times, timestamp)
        gaps = (
            abs(timestamp - times[neighbour])
            for neighbour in (position - 1, position)
            if 0 <= neighbour < len(times)
        )
        return min(gaps) < query.min_interval_s

    def _matches(self, query: ContinuousQuery, sensor: int, entry: CacheEntry) -> bool:
        if query.kind is TriggerKind.ABOVE:
            return entry.value > query.threshold
        if query.kind is TriggerKind.BELOW:
            return entry.value < query.threshold
        previous = self._last_value.get(sensor)
        if previous is None:
            return False
        return abs(entry.value - previous) > query.threshold
