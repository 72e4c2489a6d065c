"""Continuous (standing) queries — the extension Section 2 reserves.

"Although the PRESTO architecture does not preclude continual queries, in
this paper, we focus on ... one-time queries."  This module supplies the
missing piece: users register *standing* predicates ("notify me when sensor
3 exceeds 30 °C", "when any reading moves more than 2° in an epoch") and
the proxy evaluates them against every cache update — pushed readings,
batch deliveries and model substitutions alike.

The design exploits the push protocol: a threshold crossing is, almost by
definition, a model failure, so the triggering reading arrives as a push
within one epoch.  Registering a continuous query therefore also *narrows*
the sensor's push delta when the armed threshold sits close to the current
prediction — the query-sensor matching rule the NSDI successor ships.
"""

from __future__ import annotations

import bisect
import dataclasses
import enum
from collections.abc import Sequence
from dataclasses import dataclass

from repro.core.cache import CacheEntry, EntrySource


class TriggerKind(enum.Enum):
    """Predicate families supported by the engine."""

    ABOVE = "above"          # value > threshold
    BELOW = "below"          # value < threshold
    DELTA = "delta"          # |value - previous| > threshold


@dataclass(frozen=True)
class ContinuousQuery:
    """A standing predicate over one sensor.

    ``query_id`` is assigned by the :class:`ContinuousQueryEngine` that
    first registers the query (``None`` until then); a query that already
    carries one — re-armed on a cell's engine by the federation, or given
    one by the caller — keeps it.
    """

    sensor: int
    kind: TriggerKind
    threshold: float
    min_interval_s: float = 0.0     # notification rate limit (0 = every hit)
    query_id: int | None = None

    def __post_init__(self) -> None:
        if self.kind is TriggerKind.DELTA and self.threshold <= 0:
            raise ValueError("delta triggers need a positive threshold")
        if self.min_interval_s < 0:
            raise ValueError("min interval must be >= 0")


@dataclass(frozen=True)
class Notification:
    """One firing of a continuous query."""

    query_id: int
    sensor: int
    timestamp: float
    value: float
    from_actual: bool        # triggered by sensor data vs a model substitution


class ContinuousQueryEngine:
    """Evaluates standing queries against the proxy's cache stream."""

    def __init__(self) -> None:
        self._queries: dict[int, ContinuousQuery] = {}
        self._next_id = 0
        self._last_value: dict[int, float] = {}
        self._latest_ts: dict[int, float] = {}
        self._fired_times: dict[int, list[float]] = {}  # sorted per query
        self.notifications: list[Notification] = []
        self.evaluations = 0
        self.stale_entries_skipped = 0

    def register(self, query: ContinuousQuery) -> int:
        """Arm a standing query; returns its id (assigned here if it has none)."""
        if query.query_id is None:
            query = dataclasses.replace(query, query_id=self._next_id)
        self._next_id = max(self._next_id, query.query_id + 1)
        self._queries[query.query_id] = query
        return query.query_id

    def cancel(self, query_id: int) -> None:
        """Disarm a standing query."""
        self._queries.pop(query_id, None)

    @property
    def active(self) -> list[ContinuousQuery]:
        """Currently armed queries."""
        return list(self._queries.values())

    def armed_for(self, sensor: int) -> bool:
        """Whether any standing query watches *sensor*.

        Cheap guard for batched cache inserts: when nothing is armed the
        proxy may skip per-entry evaluation entirely.
        """
        return any(q.sensor == sensor for q in self._queries.values())

    def note_value(self, sensor: int, timestamp: float, value: float) -> None:
        """Record the sensor's newest value without evaluating queries.

        Keeps delta-trigger history warm across batched inserts that were
        not individually evaluated (no queries were armed at the time).
        Stale values — a pull backfilling history the engine has already
        moved past — are ignored, exactly as :meth:`on_entry` ignores
        them (noted values are always actual readings, so an equal
        timestamp refines the history just as it would in ``on_entry``).
        """
        latest = self._latest_ts.get(sensor)
        if latest is not None and timestamp < latest:
            return
        self._latest_ts[sensor] = timestamp
        self._last_value[sensor] = value

    def note_predictions(
        self, sensor: int, timestamps: Sequence[float], values: Sequence[float]
    ) -> None:
        """Record an ascending run of PREDICTED entries without evaluating.

        The unarmed counterpart of feeding each substitution to
        :meth:`on_entry`: a prediction at or before the latest timestamp is
        stale (counted, never a refinement — only actuals refine), the rest
        advance the history to the run's newest entry.
        """
        latest = self._latest_ts.get(sensor)
        if latest is not None:
            stale = bisect.bisect_right(timestamps, latest)
            self.stale_entries_skipped += stale
            if stale == len(timestamps):
                return
        self._latest_ts[sensor] = float(timestamps[-1])
        self._last_value[sensor] = float(values[-1])

    def on_entry(self, sensor: int, entry: CacheEntry) -> list[Notification]:
        """Feed one cache update; returns the notifications it fired.

        Staleness is decided by provenance, not timestamp alone:

        * **PULLED** entries strictly before the latest evaluated
          timestamp are proxy-initiated backfills of history the engine
          has already moved past — they neither fire (their crossing, if
          any, is stale news) nor clobber the delta-trigger history with
          an old value, both of which the pre-fix engine did (making
          DELTA triggers fire spuriously on the next fresh entry).  A
          pulled *actual* at exactly the latest timestamp is the
          progressive-refinement path (the pull replacing a prediction
          for the same instant) and is evaluated like any refinement.
        * **PREDICTED** entries are proxy-generated and in-order by
          construction; a duplicate at or before the latest timestamp is
          redundant and skipped.
        * **PUSHED** entries are *sensor-initiated* and always evaluated,
          however late they arrive: a push delayed past a query's silent
          advance (or a batched reading up to a batch interval old) is
          fresh information — the event the model failed to predict —
          and the paper's "rare events are never missed" guarantee
          forbids dropping it.  Late entries still never rewind the
          history: ``_last_value`` only advances on monotonically-new
          timestamps.
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
            # Rate limit against the *nearest* prior firing in data time:
            # late pushes land before earlier firings (and between each
            # other), so a single forward anchor would let a delayed batch
            # fire once per entry.  min_interval_s=0 means "every hit".
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
                # Unlimited queries never read the firing history — don't
                # grow it once per notification for nothing.
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
        """Whether a firing at *timestamp* sits within ``min_interval_s``
        of the nearest existing firing of the same query."""
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
