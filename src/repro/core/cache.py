"""The proxy's summary cache.

"A central component of the sensor proxy is a summary cache of the data
from remote sensors ... the cached data is either a lossy view or a
higher-level semantic event-based view" (Section 3).  Entries carry their
*provenance* — an actual pushed reading, a model substitution, data pulled
from the archive — and a standard deviation quantifying how lossy the view
is at that instant.  The cache refines progressively: a pulled actual value
replaces the predicted entry that masked it.

Storage layout: the cache is *columnar*.  Each sensor's series lives in
four parallel NumPy arrays (timestamps / values / stds / source codes)
kept sorted by timestamp, with a lazy start offset so appends and
evictions are amortized O(1) and window reads are contiguous array views.
The row-oriented :class:`CacheEntry` remains the public unit of exchange.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np


class EntrySource(enum.Enum):
    """Provenance of one cached value."""

    PUSHED = "pushed"          # sensor-reported (model failure or batch)
    PREDICTED = "predicted"    # model substitution (sensor stayed silent)
    PULLED = "pulled"          # fetched from the sensor archive on a miss


#: integer codes used in the columnar source array
PUSHED_CODE = 0
PREDICTED_CODE = 1
PULLED_CODE = 2

_CODE_OF_SOURCE = {
    EntrySource.PUSHED: PUSHED_CODE,
    EntrySource.PREDICTED: PREDICTED_CODE,
    EntrySource.PULLED: PULLED_CODE,
}
_SOURCE_OF_CODE = (EntrySource.PUSHED, EntrySource.PREDICTED, EntrySource.PULLED)


@dataclass(frozen=True)
class CacheEntry:
    """One (sensor, epoch) cache cell."""

    timestamp: float
    value: float
    std: float
    source: EntrySource

    @property
    def is_actual(self) -> bool:
        """Whether the value is sensor ground truth (vs a model guess)."""
        return self.source in (EntrySource.PUSHED, EntrySource.PULLED)


# -- read rules -----------------------------------------------------------------
#
# The live cache, a replica's CacheSnapshot and the failover answer path all
# read a sorted timestamp column through these: one window, one nearest-entry
# rule (a scalar and a grid shape), one CacheEntry view and one aggregate.


def _window(times: np.ndarray, start: float, end: float) -> slice:
    """Index slice of the sorted *times* that fall in ``[start, end]``."""
    return slice(
        int(np.searchsorted(times, start, side="left")),
        int(np.searchsorted(times, end, side="right")),
    )


def _nearest_position(times: np.ndarray, timestamp: float, tolerance_s: float) -> int | None:
    """Index of the entry nearest *timestamp* within ±*tolerance_s*.

    Ties between the left and right neighbour resolve to the right one,
    matching the original bisect implementation.  :func:`_nearest_positions`
    is the same rule over a whole grid.
    """
    n = times.size
    position = int(np.searchsorted(times, timestamp, side="left"))
    best: int | None = None
    best_gap = tolerance_s
    for candidate in (position - 1, position):
        if 0 <= candidate < n:
            gap = abs(float(times[candidate]) - timestamp)
            if gap <= best_gap:
                best_gap = gap
                best = candidate
    return best


def _nearest_positions(
    times: np.ndarray, grid: np.ndarray, tolerance_s: float
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_nearest_position` at every grid instant: ``(positions, valid)``.

    One searchsorted over the grid instead of a bisect per point;
    ``positions`` is meaningful only where ``valid``.
    """
    n = times.size
    if n == 0:
        return np.zeros(grid.size, dtype=np.intp), np.zeros(grid.size, dtype=bool)
    positions = np.searchsorted(times, grid, side="left")
    left = np.clip(positions - 1, 0, n - 1)
    right = np.clip(positions, 0, n - 1)
    gap_left = np.abs(grid - times[left])
    gap_right = np.abs(grid - times[right])
    take_right = gap_right <= gap_left
    chosen = np.where(take_right, right, left)
    gap = np.where(take_right, gap_right, gap_left)
    return chosen, gap <= tolerance_s


def _entry(
    times: np.ndarray, values: np.ndarray, stds: np.ndarray, codes: np.ndarray, i: int
) -> CacheEntry:
    """The :class:`CacheEntry` view of row *i* of four parallel columns."""
    return CacheEntry(
        timestamp=float(times[i]),
        value=float(values[i]),
        std=float(stds[i]),
        source=_SOURCE_OF_CODE[int(codes[i])],
    )


_REDUCERS = {"mean": np.mean, "min": np.min, "max": np.max}


def aggregate(values: np.ndarray, kind: str) -> float:
    """The ``mean`` / ``min`` / ``max`` of a non-empty window of *values*."""
    if values.size == 0:
        raise ValueError("aggregate of empty window")
    reducer = _REDUCERS.get(kind)
    if reducer is None:
        raise ValueError(f"unknown aggregate {kind!r}")
    return float(reducer(values))


@dataclass(frozen=True)
class CacheSnapshot:
    """An immutable columnar snapshot of one sensor's series.

    Produced by :meth:`SummaryCache.tail_snapshot` for replication: the
    arrays are owned copies, safe to ship to another proxy and to query
    repeatedly with identical answers.  Supports ``len``/indexing/iteration
    over :class:`CacheEntry` views for row-oriented consumers.
    """

    timestamps: np.ndarray
    values: np.ndarray
    stds: np.ndarray
    codes: np.ndarray

    def __len__(self) -> int:
        return int(self.timestamps.size)

    def __bool__(self) -> bool:
        return self.timestamps.size > 0

    def __getitem__(self, index: int) -> CacheEntry:
        return _entry(self.timestamps, self.values, self.stds, self.codes, index)

    def __iter__(self):
        for i in range(len(self)):
            yield self[i]

    def actual_mask(self) -> np.ndarray:
        """Boolean mask of entries holding sensor ground truth."""
        return self.codes != PREDICTED_CODE

    def window_slice(self, start: float, end: float) -> slice:
        """Index slice covering timestamps in ``[start, end]``."""
        return _window(self.timestamps, start, end)

    def nearest(self, timestamp: float, tolerance_s: float) -> int | None:
        """Index of the entry nearest *timestamp* within tolerance, or None."""
        return _nearest_position(self.timestamps, timestamp, tolerance_s)


#: initial per-sensor array capacity (doubles as needed)
_MIN_CAPACITY = 64

# insert outcomes (internal)
_SKIPPED = 0     # degrade attempt: actual kept, prediction dropped
_REPLACED = 1    # same-instant overwrite, no provenance upgrade
_REFINED = 2     # prediction upgraded to an actual
_INSERTED = 3    # new timestamp


class _Column:
    """One sensor's sorted columnar store.

    Live data occupies ``[start, start + length)`` of four parallel arrays.
    Appends go at the physical end; evictions advance ``start`` without
    copying; the live region is compacted to the front (or the arrays
    doubled) only when the physical tail runs out — amortized O(1) per
    append.
    """

    __slots__ = ("times", "values", "stds", "codes", "start", "length")

    def __init__(self, capacity: int = _MIN_CAPACITY) -> None:
        self.times = np.empty(capacity, dtype=np.float64)
        self.values = np.empty(capacity, dtype=np.float64)
        self.stds = np.empty(capacity, dtype=np.float64)
        self.codes = np.empty(capacity, dtype=np.int8)
        self.start = 0
        self.length = 0

    @property
    def end(self) -> int:
        return self.start + self.length

    def _arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        return self.times, self.values, self.stds, self.codes

    def views(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Live-region views (invalidated by the next write)."""
        live = slice(self.start, self.end)
        return self.times[live], self.values[live], self.stds[live], self.codes[live]

    def reserve(self, extra: int) -> None:
        """Guarantee room for *extra* more entries at the physical end."""
        if self.end + extra <= self.times.size:
            return
        need = self.length + extra
        if need <= self.times.size:
            # Compact: move the live region back to the front.
            live = slice(self.start, self.end)
            for array in self._arrays():
                array[: self.length] = array[live].copy()
        else:
            capacity = max(2 * self.times.size, need)
            old = self._arrays()
            live = slice(self.start, self.end)
            self.times = np.empty(capacity, dtype=np.float64)
            self.values = np.empty(capacity, dtype=np.float64)
            self.stds = np.empty(capacity, dtype=np.float64)
            self.codes = np.empty(capacity, dtype=np.int8)
            for new, previous in zip(self._arrays(), old):
                new[: self.length] = previous[live]
        self.start = 0

    def insert_one(self, timestamp: float, value: float, std: float, code: int) -> int:
        """Insert or refine one cell; returns the outcome code."""
        times = self.times
        lo, hi = self.start, self.end
        if hi == lo or timestamp > times[hi - 1]:
            relative = hi - lo  # the common case: strictly newer than the tail
        else:
            relative = int(np.searchsorted(times[lo:hi], timestamp, side="left"))
        position = lo + relative
        if position < hi and times[position] == timestamp:
            existing_actual = self.codes[position] != PREDICTED_CODE
            new_actual = code != PREDICTED_CODE
            if existing_actual and not new_actual:
                return _SKIPPED  # never degrade actual data to a guess
            self.values[position] = value
            self.stds[position] = std
            self.codes[position] = code
            return _REFINED if not existing_actual and new_actual else _REPLACED
        self.reserve(1)
        position = self.start + relative
        hi = self.end
        if position < hi:  # backfill: shift the tail right by one
            for array in self._arrays():
                array[position + 1 : hi + 1] = array[position:hi]
        self.times[position] = timestamp
        self.values[position] = value
        self.stds[position] = std
        self.codes[position] = code
        self.length += 1
        return _INSERTED

    def evict_front(self, count: int) -> None:
        """Drop the *count* oldest entries (lazy — no copying)."""
        self.start += count
        self.length -= count

    def merge_batch(
        self,
        timestamps: np.ndarray,
        values: np.ndarray,
        stds: np.ndarray,
        code: int,
    ) -> tuple[int, int]:
        """Merge a sorted, deduplicated batch; returns (inserted, refined).

        A batch strictly newer than the tail — the common case — is
        appended by slice assignment.  Otherwise exact-timestamp collisions
        follow the single-insert refinement policy and new timestamps are
        merged in one vectorized pass.
        """
        if self.length == 0 or timestamps[0] > self.times[self.end - 1]:
            count = timestamps.size
            self.reserve(count)
            tail = slice(self.end, self.end + count)
            self.times[tail] = timestamps
            self.values[tail] = values
            self.stds[tail] = stds
            self.codes[tail] = code
            self.length += count
            return count, 0
        times, vals, sds, codes = self.views()
        n = times.size
        positions = np.searchsorted(times, timestamps, side="left")
        in_range = positions < n
        matched = np.zeros(timestamps.size, dtype=bool)
        matched[in_range] = (
            times[positions[in_range]] == timestamps[in_range]
        )
        refined = 0
        if matched.any():
            hit = positions[matched]
            new_actual = code != PREDICTED_CODE
            existing_actual = codes[hit] != PREDICTED_CODE
            writable = ~(existing_actual & (not new_actual))
            target = hit[writable]
            vals[target] = values[matched][writable]
            sds[target] = stds[matched][writable]
            refined = int((~existing_actual[writable]).sum()) if new_actual else 0
            codes[target] = code
        fresh = ~matched
        inserted = int(fresh.sum())
        if inserted:
            new_times = timestamps[fresh]
            self.reserve(inserted)
            times, vals, sds, codes = self.views()
            merged = self.length + inserted
            place = np.searchsorted(times, new_times, side="left") + np.arange(
                inserted
            )
            keep = np.ones(merged, dtype=bool)
            keep[place] = False
            new_codes = np.full(inserted, code, dtype=np.int8)
            lo = self.start
            for array, column, batch in (
                (self.times, times, new_times),
                (self.values, vals, values[fresh]),
                (self.stds, sds, stds[fresh]),
                (self.codes, codes, new_codes),
            ):
                merged_column = np.empty(merged, dtype=array.dtype)
                merged_column[keep] = column
                merged_column[place] = batch
                array[lo : lo + merged] = merged_column
            self.length = merged
        return inserted, refined


#: what every read sees for a sensor with nothing cached (never written)
_EMPTY = _Column(0)


class SummaryCache:
    """Per-sensor time-ordered cache with bounded footprint.

    Entries are appended mostly in time order (pushes/predictions advance
    monotonically); pulls may backfill, handled by searchsorted insertion.
    When a sensor's series exceeds ``max_entries_per_sensor``, the oldest
    entries are evicted — the archive at the sensor remains the system of
    record for deep history.
    """

    def __init__(self, max_entries_per_sensor: int = 20_000) -> None:
        if max_entries_per_sensor < 16:
            raise ValueError(
                f"cache too small to be useful: {max_entries_per_sensor}"
            )
        self.max_entries_per_sensor = int(max_entries_per_sensor)
        self._columns: dict[int, _Column] = {}
        self.insertions = 0
        self.refinements = 0
        self.evictions = 0

    # -- writes ---------------------------------------------------------------

    def insert(self, sensor: int, entry: CacheEntry) -> None:
        """Insert or refine the cell at ``entry.timestamp``.

        An actual value always replaces a predicted one at the same instant
        (progressive refinement); a prediction never overwrites an actual.
        """
        column = self._columns.get(sensor)
        if column is None:
            column = self._columns[sensor] = _Column()
        outcome = column.insert_one(
            entry.timestamp,
            entry.value,
            entry.std,
            _CODE_OF_SOURCE[entry.source],
        )
        if outcome == _REFINED:
            self.refinements += 1
        elif outcome == _INSERTED:
            self.insertions += 1
            if column.length > self.max_entries_per_sensor:
                column.evict_front(1)
                self.evictions += 1

    def insert_batch(
        self,
        sensor: int,
        timestamps: np.ndarray,
        values: np.ndarray,
        stds: np.ndarray | float,
        source: EntrySource,
    ) -> int:
        """Insert many same-provenance cells in one vectorized merge.

        Equivalent to inserting each cell individually (duplicates within
        the batch keep the last value; collisions with cached cells follow
        the refinement policy; overflow evicts the oldest cells), but with
        one searchsorted merge instead of per-entry bisect — and no sort or
        merge at all for an ascending batch newer than everything cached.
        Returns the number of genuinely new timestamps.
        """
        timestamps = np.ascontiguousarray(timestamps, dtype=np.float64)
        values = np.ascontiguousarray(values, dtype=np.float64)
        if timestamps.size == 0:
            return 0
        if np.isscalar(stds) or getattr(stds, "ndim", 1) == 0:
            stds = np.full(timestamps.size, float(stds), dtype=np.float64)
        else:
            stds = np.ascontiguousarray(stds, dtype=np.float64)
        if timestamps.size > 1 and not (timestamps[1:] > timestamps[:-1]).all():
            order = np.argsort(timestamps, kind="stable")
            timestamps = timestamps[order]
            values = values[order]
            stds = stds[order]
            # Deduplicate within the batch: the last occurrence wins, exactly
            # as sequential same-source inserts would resolve it.
            last = np.ones(timestamps.size, dtype=bool)
            last[:-1] = timestamps[1:] != timestamps[:-1]
            timestamps, values, stds = timestamps[last], values[last], stds[last]
        column = self._columns.get(sensor)
        if column is None:
            column = self._columns[sensor] = _Column(
                max(_MIN_CAPACITY, 2 * timestamps.size)
            )
        inserted, refined = column.merge_batch(
            timestamps, values, stds, _CODE_OF_SOURCE[source]
        )
        self.insertions += inserted
        self.refinements += refined
        overflow = column.length - self.max_entries_per_sensor
        if overflow > 0:
            column.evict_front(overflow)
            self.evictions += overflow
        return inserted

    # -- reads ------------------------------------------------------------------
    #
    # A sensor with nothing cached reads as the empty column, so every read
    # below falls through the same code for it.

    def entry_at(
        self, sensor: int, timestamp: float, tolerance_s: float
    ) -> CacheEntry | None:
        """Entry nearest *timestamp* within ±*tolerance_s*, or None."""
        column = self._columns.get(sensor, _EMPTY)
        start = column.start
        position = _nearest_position(column.times[start : column.end], timestamp, tolerance_s)
        if position is None:
            return None
        return _entry(column.times, column.values, column.stds, column.codes, start + position)

    def actual_value_at(
        self, sensor: int, timestamp: float, tolerance_s: float
    ) -> float | None:
        """Value of the nearest entry within tolerance, if it is actual.

        Same candidate selection as :meth:`entry_at` — the nearest entry of
        *any* provenance is picked first, then discarded unless it holds
        ground truth — without materializing a :class:`CacheEntry`.
        """
        times, values, _, codes = self._columns.get(sensor, _EMPTY).views()
        position = _nearest_position(times, timestamp, tolerance_s)
        if position is None or codes[position] == PREDICTED_CODE:
            return None
        return float(values[position])

    def arrays_in(
        self, sensor: int, start: float, end: float
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Columnar views of ``[start, end]``: (times, values, stds, codes).

        The views alias cache storage and are invalidated by the next
        write to this sensor — consume (or copy) them immediately.
        """
        times, values, stds, codes = self._columns.get(sensor, _EMPTY).views()
        window = _window(times, start, end)
        return times[window], values[window], stds[window], codes[window]

    def entries_in(
        self, sensor: int, start: float, end: float
    ) -> list[CacheEntry]:
        """All entries with timestamps in ``[start, end]``, time order."""
        times, values, stds, codes = self.arrays_in(sensor, start, end)
        return [_entry(times, values, stds, codes, i) for i in range(times.size)]

    def values_on_grid(
        self, sensor: int, grid_times: np.ndarray, tolerance_s: float
    ) -> tuple[np.ndarray, np.ndarray]:
        """Nearest-entry values at each grid instant, in one pass.

        Returns ``(values, valid)`` where ``valid[i]`` marks grid points
        with an entry within ±*tolerance_s*; invalid points hold NaN.
        Candidate selection is :meth:`entry_at`'s, over the whole grid.
        """
        grid_times = np.asarray(grid_times, dtype=np.float64)
        times, values, _, _ = self._columns.get(sensor, _EMPTY).views()
        chosen, valid = _nearest_positions(times, grid_times, tolerance_s)
        out = np.full(grid_times.size, np.nan)
        out[valid] = values[chosen[valid]]
        return out, valid

    def tail_snapshot(self, sensor: int, count: int) -> CacheSnapshot:
        """Columnar copy of the newest *count* entries (for replication)."""
        if count < 1:
            raise ValueError(f"need a positive tail size, got {count}")
        times, values, stds, codes = self._columns.get(sensor, _EMPTY).views()
        tail = slice(max(times.size - count, 0), times.size)
        return CacheSnapshot(
            timestamps=times[tail].copy(),
            values=values[tail].copy(),
            stds=stds[tail].copy(),
            codes=codes[tail].copy(),
        )

    def latest(self, sensor: int) -> CacheEntry | None:
        """Most recent entry for *sensor*."""
        column = self._columns.get(sensor, _EMPTY)
        if column.length == 0:
            return None
        return _entry(column.times, column.values, column.stds, column.codes, column.end - 1)

    def latest_actual(self, sensor: int) -> CacheEntry | None:
        """Most recent entry holding sensor ground truth."""
        times, values, stds, codes = self._columns.get(sensor, _EMPTY).views()
        actual = np.flatnonzero(codes != PREDICTED_CODE)
        if actual.size == 0:
            return None
        return _entry(times, values, stds, codes, int(actual[-1]))

    def coverage_fraction(
        self, sensor: int, start: float, end: float, sample_period_s: float
    ) -> float:
        """Fraction of expected epochs in ``[start, end]`` present.

        The expected count truncates with an epsilon, not bare ``int()``: a
        window spanning an exact multiple of the period whose float ratio
        lands at ``k - ε`` must still expect ``k + 1`` epochs, or full
        coverage with one cell genuinely missing silently reads as 100%.
        (Plain rounding would instead over-expect on genuinely fractional
        windows — e.g. 6.6 periods can only ever hold 7 grid epochs.)
        """
        if end < start:
            raise ValueError(f"empty window [{start}, {end}]")
        expected = max(int((end - start) / sample_period_s + 1e-9) + 1, 1)
        column = self._columns.get(sensor, _EMPTY)
        window = _window(column.times[column.start : column.end], start, end)
        return min((window.stop - window.start) / expected, 1.0)

    def size(self, sensor: int | None = None) -> int:
        """Entry count for one sensor, or total."""
        if sensor is not None:
            column = self._columns.get(sensor)
            return column.length if column is not None else 0
        return sum(column.length for column in self._columns.values())

    @property
    def sensors(self) -> list[int]:
        """Sensors with at least one cached entry."""
        return [s for s, column in self._columns.items() if column.length]
