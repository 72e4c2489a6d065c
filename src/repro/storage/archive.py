"""Log-structured sensor archive.

The PRESTO sensor's local store: readings accumulate in a RAM buffer and are
flushed to flash as fixed-duration *segments*, each indexed by its time
span.  Reads service the proxy's cache-miss pulls ("PRESTO reverts to direct
querying of data archives at remote sensors").  When flash fills, the
archive invokes its aging policy, which replaces the oldest full-resolution
segments with wavelet summaries (:mod:`repro.storage.aging`).
"""

from __future__ import annotations

import itertools
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.signal.multires import MultiResolutionSummary, reconstruct
from repro.storage.flash import FlashDevice
from repro.storage.time_index import IndexEntry, TimeIndex

if TYPE_CHECKING:  # offload imports archive; annotate lazily to avoid the cycle
    from repro.storage.offload import OffloadCoordinator

#: bytes per stored reading: 4-byte timestamp delta + 4-byte value
BYTES_PER_READING = 8


def peak_deviation(values) -> float:
    """``max |x - mean x|`` of a stored payload (0.0 when empty).

    The event-proximity input of the offload value model: it depends on the
    payload alone, so a record computes it once per payload it stores.
    """
    stored = np.asarray(values, dtype=np.float64)
    if not stored.size:
        return 0.0
    return float(np.max(np.abs(stored - float(np.mean(stored)))))


def _nearest(times: np.ndarray, timestamp: float) -> int:
    """Index of the instant in ascending *times* nearest *timestamp*; a
    tie goes to the even index, as ``round`` of evenly spaced offsets."""
    after = int(np.searchsorted(times, timestamp))
    if after == 0:
        return 0
    if after == times.size:
        return after - 1
    below, above = timestamp - times[after - 1], times[after] - timestamp
    if below < above or (below == above and after % 2 == 1):
        return after - 1
    return after


@dataclass
class ArchiveRecord:
    """One stored segment: raw readings or an aged summary."""

    record_id: int
    start_time: float
    end_time: float
    #: each reading's own sampling instant (a missed epoch leaves a gap)
    times: np.ndarray
    n_readings: int
    raw: np.ndarray | None            # None once aged
    summary: MultiResolutionSummary | None = None
    pages: int = 0
    hosted_by: int | None = None      # offload host's cell-local index, None = local
    #: :func:`peak_deviation` of the stored payload, refreshed by :meth:`age_to`
    activity: float = field(init=False, repr=False, compare=False)
    #: set by an offload host when coarsening this guest gains no page;
    #: cleared by :meth:`age_to`, the one place the payload changes
    unshrinkable: bool = field(default=False, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.raw is not None:
            self.activity = peak_deviation(self.raw)
        else:
            assert self.summary is not None
            self.activity = peak_deviation(self.summary.approx)

    def age_to(self, summary: MultiResolutionSummary) -> None:
        """Replace the stored payload with *summary* (the raw readings go)."""
        self.raw = None
        self.summary = summary
        self.activity = peak_deviation(summary.approx)
        self.unshrinkable = False

    @property
    def aged(self) -> bool:
        """Whether the raw data has been replaced by a summary."""
        return self.raw is None

    @property
    def level(self) -> int:
        """Resolution level (0 = full resolution)."""
        return 0 if self.summary is None else self.summary.level

    def values(self) -> np.ndarray:
        """Reconstructed readings (exact when raw, approximate when aged)."""
        if self.raw is not None:
            return self.raw
        assert self.summary is not None
        return reconstruct(self.summary)

    def timestamps(self) -> np.ndarray:
        """The sampling instants matching :meth:`values`."""
        return self.times

    def stored_bytes(self) -> int:
        """Bytes this record occupies on flash."""
        if self.raw is not None:
            return self.n_readings * BYTES_PER_READING
        assert self.summary is not None
        return self.summary.size_values * BYTES_PER_READING


class SensorArchive:
    """Append-only archival store with time-indexed reads and aging.

    Parameters
    ----------
    flash:
        The device to persist into (charges energy on every operation).
    segment_readings:
        Readings per flushed segment.  128 readings ≈ one hour at 30 s.
    aging_policy:
        Invoked when a flush cannot fit; see :class:`~repro.storage.aging.AgingPolicy`.
    """

    def __init__(
        self,
        flash: FlashDevice,
        segment_readings: int = 128,
        aging_policy: "AgingPolicy | None" = None,
    ) -> None:
        if segment_readings < 2:
            raise ValueError(f"segment must hold >= 2 readings, got {segment_readings}")
        self.flash = flash
        self.segment_readings = int(segment_readings)
        self.index = TimeIndex()
        self.records: dict[int, ArchiveRecord] = {}
        #: bumped whenever the local record set changes (a flush, an aging
        #: step, an eviction, an offload move); keys the offload planner's
        #: memo of this archive's lowest-value segments
        self.version = 0
        self._ids = itertools.count()
        self._buffer_times: list[float] = []
        self._buffer_values: list[float] = []
        self.readings_archived = 0
        self.readings_dropped = 0
        if aging_policy is None:
            from repro.storage.aging import AgingPolicy

            aging_policy = AgingPolicy()
        self.aging_policy = aging_policy
        # Set by OffloadCoordinator.register(); when present, full flushes
        # try collaborative offload before degrading data with aging.
        self.offload: "OffloadCoordinator | None" = None
        #: set by the sensor fleet, which holds readings until a segment
        #: fills: hands them over before anything reads the RAM buffer
        self.pending: Callable[[], None] | None = None

    # -- writes -----------------------------------------------------------

    def append(self, timestamp: float, value: float) -> None:
        """Buffer one reading; flushes a segment when the buffer fills."""
        self.extend([float(timestamp)], [float(value)])

    def extend(self, timestamps: list[float], values: list[float]) -> None:
        """Buffer readings (floats, in order), flushing a segment each time
        the buffer fills."""
        start = 0
        while start < len(values):
            stop = start + self.segment_room
            self._buffer_times.extend(timestamps[start:stop])
            self._buffer_values.extend(values[start:stop])
            start = stop
            if len(self._buffer_values) >= self.segment_readings:
                self.flush()

    def flush(self) -> ArchiveRecord | None:
        """Write the buffered readings to flash as one segment."""
        if self.pending is not None:
            self.pending()
        if not self._buffer_values:
            return None
        values = np.asarray(self._buffer_values, dtype=np.float64)
        times = np.asarray(self._buffer_times, dtype=np.float64)
        start, end = float(times[0]), float(times[-1])
        n_bytes = values.size * BYTES_PER_READING
        self._buffer_times, self._buffer_values = [], []

        pages = self._write_with_aging(n_bytes)
        if pages is None:
            # Even aggressive aging could not make room; drop the segment
            # (counted — tests assert this never happens in sized configs).
            self.readings_dropped += values.size
            return None

        record = ArchiveRecord(
            record_id=next(self._ids),
            start_time=start,
            end_time=end,
            times=times,
            n_readings=values.size,
            raw=values,
            pages=pages,
        )
        self.records[record.record_id] = record
        self.version += 1
        self.index.append(
            IndexEntry(start_time=start, end_time=end, record_id=record.record_id)
        )
        self.readings_archived += values.size
        return record

    def _write_with_aging(self, n_bytes: int) -> int | None:
        """Write, offloading then aging until the bytes fit."""
        for _ in range(len(self.records) + 2):
            try:
                return self.flash.write(n_bytes)
            except IOError:
                # Collaborative offload first — it frees local pages without
                # degrading data; aging is the purely local fallback.
                if self.offload is not None and self.offload.make_room(self):
                    continue
                if not self.aging_policy.make_room(self):
                    return None
        return None

    # -- reads ------------------------------------------------------------

    def read_point(self, timestamp: float) -> tuple[float, int] | None:
        """Reading nearest *timestamp* within its segment.

        Returns ``(value, resolution_level)`` or None if unarchived.
        Charges flash read energy for the segment access.
        """
        entry = self.index.lookup(timestamp)
        if entry is None:
            return None
        record = self.records[entry.record_id]
        self._charge_read(record)
        return float(record.values()[_nearest(record.times, timestamp)]), record.level

    def read_range(
        self, start: float, end: float
    ) -> tuple[np.ndarray, np.ndarray, int]:
        """All readings in ``[start, end]``.

        Returns ``(timestamps, values, worst_resolution_level)``; arrays are
        empty when nothing is archived for the span.
        """
        entries = self.index.range(start, end)
        all_times: list[np.ndarray] = []
        all_values: list[np.ndarray] = []
        worst_level = 0
        for entry in entries:
            record = self.records[entry.record_id]
            self._charge_read(record)
            times = record.timestamps()
            values = record.values()
            mask = (times >= start) & (times <= end)
            all_times.append(times[mask])
            all_values.append(values[mask])
            worst_level = max(worst_level, record.level)
        if not all_times:
            return np.zeros(0), np.zeros(0), 0
        return np.concatenate(all_times), np.concatenate(all_values), worst_level

    def _charge_read(self, record: ArchiveRecord) -> None:
        """Charge one segment access on whichever device holds it."""
        if record.hosted_by is not None and self.offload is not None:
            self.offload.remote_read(self, record)
        else:
            self.flash.read(record.stored_bytes())

    def release_record(self, record: ArchiveRecord) -> None:
        """Free a record's pages on whichever device holds them."""
        if record.hosted_by is not None and self.offload is not None:
            self.offload.release(self, record)
        else:
            self.flash.free(record.pages)

    # -- introspection ------------------------------------------------------

    @property
    def n_segments(self) -> int:
        """Number of stored segments."""
        return len(self.records)

    @property
    def buffered_readings(self) -> int:
        """Readings accumulated in RAM but not yet flushed."""
        if self.pending is not None:
            self.pending()
        return len(self._buffer_values)

    @property
    def segment_room(self) -> int:
        """Readings the RAM buffer takes before the segment is flushed."""
        return self.segment_readings - len(self._buffer_values)

    @property
    def coverage(self) -> tuple[float, float] | None:
        """Archived time span, or None when empty."""
        return self.index.span

    def resolution_profile(self) -> dict[int, int]:
        """Histogram: resolution level -> segment count (aging visibility)."""
        profile: dict[int, int] = {}
        for record in self.records.values():
            profile[record.level] = profile.get(record.level, 0) + 1
        return profile
