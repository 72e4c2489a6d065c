"""The list-of-entries summary cache, kept as the tests' reference.

Bit-for-bit the pre-columnar ``SummaryCache`` (plus the same coverage
rounding fix).  ``test_cache_equivalence.py`` drives it and the columnar
:class:`repro.core.cache.SummaryCache` through identical operation
streams.
"""

from __future__ import annotations

import bisect

from repro.core.cache import CacheEntry


class ListSummaryCache:
    """One sorted ``list`` of :class:`CacheEntry` per sensor."""

    def __init__(self, max_entries_per_sensor: int = 20_000) -> None:
        if max_entries_per_sensor < 16:
            raise ValueError(
                f"cache too small to be useful: {max_entries_per_sensor}"
            )
        self.max_entries_per_sensor = int(max_entries_per_sensor)
        self._times: dict[int, list[float]] = {}
        self._entries: dict[int, list[CacheEntry]] = {}
        self.insertions = 0
        self.refinements = 0
        self.evictions = 0

    # -- writes ---------------------------------------------------------------

    def insert(self, sensor: int, entry: CacheEntry) -> None:
        """Insert or refine the cell at ``entry.timestamp``."""
        times = self._times.setdefault(sensor, [])
        entries = self._entries.setdefault(sensor, [])
        position = bisect.bisect_left(times, entry.timestamp)
        if position < len(times) and times[position] == entry.timestamp:
            existing = entries[position]
            if existing.is_actual and not entry.is_actual:
                return  # never degrade actual data to a guess
            if not existing.is_actual and entry.is_actual:
                self.refinements += 1
            entries[position] = entry
            return
        times.insert(position, entry.timestamp)
        entries.insert(position, entry)
        self.insertions += 1
        if len(times) > self.max_entries_per_sensor:
            del times[0]
            del entries[0]
            self.evictions += 1

    # -- reads ------------------------------------------------------------------

    def entry_at(
        self, sensor: int, timestamp: float, tolerance_s: float
    ) -> CacheEntry | None:
        """Entry nearest *timestamp* within ±*tolerance_s*, or None."""
        times = self._times.get(sensor)
        if not times:
            return None
        position = bisect.bisect_left(times, timestamp)
        best: CacheEntry | None = None
        best_gap = tolerance_s
        for candidate in (position - 1, position):
            if 0 <= candidate < len(times):
                gap = abs(times[candidate] - timestamp)
                if gap <= best_gap:
                    best_gap = gap
                    best = self._entries[sensor][candidate]
        return best

    def entries_in(
        self, sensor: int, start: float, end: float
    ) -> list[CacheEntry]:
        """All entries with timestamps in ``[start, end]``, time order."""
        times = self._times.get(sensor)
        if not times:
            return []
        lo = bisect.bisect_left(times, start)
        hi = bisect.bisect_right(times, end)
        return self._entries[sensor][lo:hi]

    def tail(self, sensor: int, count: int) -> list[CacheEntry]:
        """The newest *count* entries for *sensor*."""
        if count < 1:
            raise ValueError(f"need a positive tail size, got {count}")
        return list(self._entries.get(sensor, [])[-count:])

    def latest(self, sensor: int) -> CacheEntry | None:
        """Most recent entry for *sensor*."""
        entries = self._entries.get(sensor)
        return entries[-1] if entries else None

    def latest_actual(self, sensor: int) -> CacheEntry | None:
        """Most recent entry holding sensor ground truth."""
        entries = self._entries.get(sensor)
        if not entries:
            return None
        for entry in reversed(entries):
            if entry.is_actual:
                return entry
        return None

    def coverage_fraction(
        self, sensor: int, start: float, end: float, sample_period_s: float
    ) -> float:
        """Fraction of expected epochs in ``[start, end]`` present."""
        if end < start:
            raise ValueError(f"empty window [{start}, {end}]")
        expected = max(int((end - start) / sample_period_s + 1e-9) + 1, 1)
        return min(len(self.entries_in(sensor, start, end)) / expected, 1.0)

    def size(self, sensor: int | None = None) -> int:
        """Entry count for one sensor, or total."""
        if sensor is not None:
            return len(self._entries.get(sensor, []))
        return sum(len(v) for v in self._entries.values())

    @property
    def sensors(self) -> list[int]:
        """Sensors with at least one cached entry."""
        return [s for s, v in self._entries.items() if v]
