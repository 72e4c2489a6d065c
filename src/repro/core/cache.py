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
Every write is one strictly ascending run of cells
(:meth:`SummaryCache.insert_batch`): a tracker's silent epochs with the
pushed readings among them, a pull reply, a detection.  A run newer than
the cached tail is appended by slice assignment; any other run merges,
cell by cell under the refinement rule.  The row-oriented
:class:`CacheEntry` remains the public unit of exchange; the point read
:meth:`SummaryCache.entry_at` hands back the bare :class:`CacheRow`
instead, since it runs once per answered query.
"""

from __future__ import annotations

import bisect
import enum
import math
from dataclasses import dataclass
from typing import NamedTuple

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


class CacheRow(NamedTuple):
    """One cached cell as :meth:`SummaryCache.entry_at` reads it: the raw
    columns' row, with the provenance left as its integer code."""

    timestamp: float
    value: float
    std: float
    code: int

    @property
    def is_actual(self) -> bool:
        """Whether the value is sensor ground truth (vs a model guess)."""
        return self.code != PREDICTED_CODE


# -- read rules -----------------------------------------------------------------
#
# The live cache, a replica's CacheSnapshot and the failover answer path all
# read a sorted timestamp column through these: one window, one coverage
# rule, one nearest-entry rule (a scalar and a grid shape), one CacheEntry
# view and one aggregate.  The scalar reads call ``ndarray.searchsorted``
# directly: ``np.searchsorted``'s dispatch wrapper costs more than the search
# on a query's short column.


def _window(times: np.ndarray, start: float, end: float) -> slice:
    """Index slice of the sorted *times* that fall in ``[start, end]``."""
    return slice(
        int(times.searchsorted(start, side="left")),
        int(times.searchsorted(end, side="right")),
    )


def coverage_fraction(
    present: int, start: float, end: float, sample_period_s: float
) -> float:
    """Fraction of the expected epochs in ``[start, end]`` that *present*
    cached entries (the window's count) cover.

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
    return min(present / expected, 1.0)


def _nearest_position(times: np.ndarray, timestamp: float, tolerance_s: float) -> int | None:
    """Index of the entry nearest *timestamp* within ±*tolerance_s*.

    Ties between the left and right neighbour resolve to the right one,
    matching the original bisect implementation.  :func:`_nearest_positions`
    is the same rule over a whole grid.
    """
    n = times.size
    position = int(times.searchsorted(timestamp, side="left"))
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
    """A columnar read view of one sensor's series.

    It reads four columns it does not own: a replica's
    (:class:`~repro.core.federation.SensorReplica`, over a folded wire
    record whose columns nothing writes again) or the copies
    :meth:`SummaryCache.tail_snapshot` takes.  Over columns nothing writes,
    every query repeats with identical answers.  Supports
    ``len``/indexing/iteration over :class:`CacheEntry` views for
    row-oriented consumers.
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


class _Column:
    """One sensor's sorted columnar store.

    Live data occupies ``[start, start + length)`` of four parallel arrays.
    Appends go at the physical end; evictions advance ``start`` without
    copying; the live region is compacted to the front (or the arrays
    doubled) only when the physical tail runs out — amortized O(1) per
    append.  ``written_from`` is the oldest timestamp any write touched
    since the last replica export: every entry before it is unchanged.
    """

    __slots__ = ("times", "values", "stds", "codes", "start", "length", "written_from")

    def __init__(self, capacity: int = _MIN_CAPACITY) -> None:
        self.times = np.empty(capacity, dtype=np.float64)
        self.values = np.empty(capacity, dtype=np.float64)
        self.stds = np.empty(capacity, dtype=np.float64)
        self.codes = np.empty(capacity, dtype=np.int8)
        self.start = 0
        self.length = 0
        # the oldest timestamp written since the last replica export
        self.written_from = math.inf

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

    def evict_front(self, count: int) -> None:
        """Drop the *count* oldest entries (lazy — no copying)."""
        self.start += count
        self.length -= count

    def write(
        self,
        timestamps: np.ndarray,
        values: np.ndarray,
        stds: np.ndarray,
        codes: np.ndarray,
    ) -> tuple[int, int]:
        """Write a strictly ascending run (*stds* and *codes* one per row,
        or 0-d for all); returns (inserted, refined).

        A run newer than the tail is appended by slice assignment.  Any
        other run merges in one vectorized pass: a row at a cached instant
        refines it unless it would degrade an actual to a prediction, and
        new instants are interleaved.  Either way the run's first instant
        marks ``written_from``, even where the refinement rule drops it.
        """
        if timestamps[0] < self.written_from:
            self.written_from = float(timestamps[0])
        count = timestamps.size
        if self.length == 0 or timestamps[0] > self.times[self.end - 1]:
            self.reserve(count)
            tail = slice(self.end, self.end + count)
            self.times[tail] = timestamps
            self.values[tail] = values
            self.stds[tail] = stds
            self.codes[tail] = codes
            self.length += count
            return count, 0
        stds = np.full(timestamps.shape, stds)
        codes = np.full(timestamps.shape, codes)
        times, vals, sds, cached_codes = self.views()
        positions = times.searchsorted(timestamps, side="left")
        matched = times[np.minimum(positions, times.size - 1)] == timestamps
        refined = 0
        inserted = count - np.count_nonzero(matched)
        if inserted < count:
            hit = positions[matched]
            new_actual = codes[matched] != PREDICTED_CODE
            existing_actual = cached_codes[hit] != PREDICTED_CODE
            writable = new_actual | ~existing_actual  # never degrade an actual
            target = hit[writable]
            vals[target] = values[matched][writable]
            sds[target] = stds[matched][writable]
            cached_codes[target] = codes[matched][writable]
            refined = np.count_nonzero(new_actual & ~existing_actual)
        if inserted:
            fresh = ~matched
            new_times = timestamps[fresh]
            self.reserve(inserted)
            times, vals, sds, cached_codes = self.views()
            merged = self.length + inserted
            place = times.searchsorted(new_times, side="left") + np.arange(inserted)
            keep = np.ones(merged, dtype=bool)
            keep[place] = False
            lo = self.start
            for array, column, batch in (
                (self.times, times, new_times),
                (self.values, vals, values[fresh]),
                (self.stds, sds, stds[fresh]),
                (self.codes, cached_codes, codes[fresh]),
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

    Every write is one strictly ascending run (:meth:`insert_batch`):
    pushes and predictions advance monotonically and append; pull replies
    may backfill and merge.  When a sensor's series exceeds
    ``max_entries_per_sensor``, the oldest entries are evicted — the
    archive at the sensor remains the system of record for deep history.
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
        """Write the one cell *entry*: a one-row :meth:`insert_batch`."""
        self.insert_batch(
            sensor,
            np.array([entry.timestamp]),
            np.array([entry.value]),
            entry.std,
            _CODE_OF_SOURCE[entry.source],
        )

    def insert_batch(
        self,
        sensor: int,
        timestamps: np.ndarray,
        values: np.ndarray,
        stds: np.ndarray | float,
        codes: np.ndarray | int,
    ) -> int:
        """Write one run of cells, each with its std and source code
        (*stds* and *codes* one per row, or one for every row); returns the
        number of genuinely new timestamps.

        The run's timestamps must strictly ascend and every per-row column
        must match them in length; anything else raises ``ValueError``
        before any state changes.  The run equals inserting its cells one
        by one: an actual value replaces a predicted one at the same
        instant (progressive refinement), a prediction never overwrites an
        actual, and overflow evicts the oldest cells.
        """
        timestamps = np.ascontiguousarray(timestamps, dtype=np.float64)
        values = np.ascontiguousarray(values, dtype=np.float64)
        stds = np.asarray(stds, dtype=np.float64)   # 0-d: one for all rows
        codes = np.asarray(codes, dtype=np.int8)
        shape = timestamps.shape
        if values.shape != shape or {stds.shape, codes.shape} - {(), shape}:
            raise ValueError(
                f"run of {shape} timestamps with values {values.shape}, "
                f"stds {stds.shape} and codes {codes.shape}"
            )
        count = timestamps.size
        if count == 0:
            return 0
        if count > 1 and not (timestamps[1:] > timestamps[:-1]).all():
            raise ValueError("a cache write must be a strictly ascending run")
        column = self._columns.get(sensor)
        if column is None:
            column = self._columns[sensor] = _Column(max(_MIN_CAPACITY, 2 * count))
        inserted, refined = column.write(timestamps, values, stds, codes)
        self.insertions += inserted
        self.refinements += refined
        self._evict_overflow(column)
        return inserted

    def _evict_overflow(self, column: _Column) -> None:
        """Evict *column*'s oldest entries beyond the per-sensor bound."""
        overflow = column.length - self.max_entries_per_sensor
        if overflow > 0:
            column.evict_front(overflow)
            self.evictions += overflow

    # -- reads ------------------------------------------------------------------
    #
    # A sensor with nothing cached reads as the empty column, so every read
    # below falls through the same code for it.

    def entry_at(
        self, sensor: int, timestamp: float, tolerance_s: float
    ) -> CacheRow | None:
        """Row nearest *timestamp* within ±*tolerance_s*, or None."""
        column = self._columns.get(sensor, _EMPTY)
        start = column.start
        position = _nearest_position(column.times[start : column.end], timestamp, tolerance_s)
        if position is None:
            return None
        position += start
        return CacheRow(
            float(column.times[position]),
            float(column.values[position]),
            float(column.stds[position]),
            int(column.codes[position]),
        )

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
        """Columnar copy of the newest *count* entries.

        A replica export hands out views instead (:meth:`export_tail`), so
        nothing in ``src`` calls this; ``benchmarks/perf/layers.py`` traces
        it as a ``core.cache.read`` entry point, which keeps it here.
        """
        if count < 0:
            raise ValueError(f"need a non-negative tail size, got {count}")
        times, values, stds, codes = self._columns.get(sensor, _EMPTY).views()
        tail = slice(max(times.size - count, 0), times.size)
        return CacheSnapshot(
            timestamps=times[tail].copy(),
            values=values[tail].copy(),
            stds=stds[tail].copy(),
            codes=codes[tail].copy(),
        )

    def export_tail(
        self, sensor: int, count: int, keyframe: bool
    ) -> tuple[float, int, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The newest *count* entries, as a delta against the previous export.

        Returns ``(first_s, kept, timestamps, values, stds, codes)``: the
        tail is the previous export's entries from ``first_s`` on — ``kept``
        of them — followed by the rows in the four columns.  Entries before
        the oldest timestamp written since the previous export are
        unchanged since then, so that export's tail holds them too and only
        the entries from there on are handed out.  A *keyframe* hands out
        the whole tail (``kept == 0``).  Either way the next export is
        against this one.

        The columns are views of the live rows, not copies: they hold until
        the next write to this cache, so the caller copies them out first.
        """
        if count < 1:
            raise ValueError(f"need a positive tail size, got {count}")
        column = self._columns.get(sensor)
        if column is None:
            return 0.0, 0, *_EMPTY.views()
        times = column.times
        start = column.start
        end = start + column.length
        if column.length > count:
            start = end - count
        kept = 0 if keyframe else bisect.bisect_left(times, column.written_from, start, end) - start
        column.written_from = math.inf
        rows = slice(start + kept, end)
        return (
            float(times[start]), kept, times[rows], column.values[rows], column.stds[rows],
            column.codes[rows],
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
