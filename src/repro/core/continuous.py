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
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.core.cache import PREDICTED_CODE, PUSHED_CODE


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
        #: armed queries per sensor (see _index)
        self._watching: dict[int, list[ContinuousQuery]] = {}
        #: the sensors some query watches, a new set whenever queries change
        self.watched: frozenset[int] = frozenset()
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
        self._index()
        return query.query_id

    def cancel(self, query_id: int) -> None:
        """Disarm a standing query."""
        self._queries.pop(query_id, None)
        self._index()

    def _index(self) -> None:
        """Rebuild the per-sensor index; queries fire in ``_queries`` order."""
        self._watching = {}
        for query in self._queries.values():
            self._watching.setdefault(query.sensor, []).append(query)
        self.watched = frozenset(self._watching)

    @property
    def active(self) -> list[ContinuousQuery]:
        """Currently armed queries."""
        return list(self._queries.values())

    def on_run(
        self,
        sensor: int,
        times: np.ndarray,
        values: np.ndarray,
        codes: np.ndarray | int,
    ) -> list[Notification]:
        """Feed one cache write; returns the notifications it fired.

        The run is what :meth:`SummaryCache.insert_batch` just landed —
        strictly ascending timestamps, the cache's one write shape — with
        its rows' source codes (*codes* one per row, or one for all).  Each
        row, in order, follows one rule, decided by provenance:

        * **PULLED** rows strictly before the latest timestamp backfill
          history the engine has moved past: they neither fire (stale
          news) nor clobber the delta-trigger history.  A pulled actual at
          exactly the latest timestamp refines it and is evaluated.
        * **PREDICTED** rows at or before the latest timestamp are
          redundant and skipped.
        * **PUSHED** rows are sensor-initiated and always evaluated,
          however late: a push overtaken by a query's silent advance, or
          a batched reading, is the event the model failed to predict, and
          "rare events are never missed" forbids dropping it.  A late row
          still never rewinds the history.

        Skipped rows count in ``stale_entries_skipped``.  A run newer than
        everything seen, on a sensor no query watches, moves straight to
        its last row: every row of it is fresh.
        """
        queries = self._watching.get(sensor, ())
        if not queries and times[0] > self._latest_ts.get(sensor, -math.inf):
            self._latest_ts[sensor] = float(times[-1])
            self._last_value[sensor] = float(values[-1])
            return []
        first_new = len(self.notifications)
        rows = zip(times.tolist(), values.tolist(), np.broadcast_to(codes, len(times)).tolist())
        for timestamp, value, code in rows:
            self._on_row(sensor, queries, timestamp, value, code)
        return self.notifications[first_new:]

    def _on_row(
        self,
        sensor: int,
        queries: Sequence[ContinuousQuery],
        timestamp: float,
        value: float,
        code: int,
    ) -> None:
        """One row under :meth:`on_run`'s rule, evaluated against *queries*."""
        latest = self._latest_ts.get(sensor)
        actual = code != PREDICTED_CODE
        fresh = latest is None or timestamp > latest
        refinement = actual and timestamp == latest
        if not fresh and not refinement and code != PUSHED_CODE:
            self.stale_entries_skipped += 1
            return
        if fresh:
            self._latest_ts[sensor] = timestamp
        for query in queries:
            self.evaluations += 1
            if not self._matches(query, sensor, value):
                continue
            # Rate limit against the *nearest* prior firing in data time:
            # late pushes land before earlier firings (and between each
            # other), so a single forward anchor would let a delayed batch
            # fire once per row.  min_interval_s=0 means "every hit".
            if self._rate_limited(query, timestamp):
                continue
            if query.min_interval_s > 0:
                # Unlimited queries never read the firing history — don't
                # grow it once per notification for nothing.
                bisect.insort(self._fired_times.setdefault(query.query_id, []), timestamp)
            self.notifications.append(
                Notification(
                    query_id=query.query_id,
                    sensor=sensor,
                    timestamp=timestamp,
                    value=value,
                    from_actual=actual,
                )
            )
        if fresh or refinement:
            self._last_value[sensor] = value

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

    def _matches(self, query: ContinuousQuery, sensor: int, value: float) -> bool:
        if query.kind is TriggerKind.ABOVE:
            return value > query.threshold
        if query.kind is TriggerKind.BELOW:
            return value < query.threshold
        previous = self._last_value.get(sensor)
        if previous is None:
            return False
        return abs(value - previous) > query.threshold
