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


@dataclass
class ArchiveRecord:
    """One stored segment: raw readings or an aged summary."""

    record_id: int
    start_time: float
    end_time: float
    sample_period_s: float
    n_readings: int
    raw: np.ndarray | None            # None once aged
    summary: MultiResolutionSummary | None = None
    pages: int = 0
    hosted_by: int | None = None      # offload host's cell-local index, None = local
    #: :func:`peak_deviation` of the stored payload, refreshed by :meth:`age_to`
    activity: float = field(init=False, repr=False, compare=False)

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
        """Evenly spaced timestamps matching :meth:`values`."""
        return self.start_time + np.arange(self.n_readings) * self.sample_period_s

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
        sample_period_s: float = 30.0,
    ) -> None:
        if segment_readings < 2:
            raise ValueError(f"segment must hold >= 2 readings, got {segment_readings}")
        self.flash = flash
        self.segment_readings = int(segment_readings)
        self.sample_period_s = float(sample_period_s)
        self.index = TimeIndex()
        self.records: dict[int, ArchiveRecord] = {}
        self._ids = itertools.count()
        self._buffer_values: list[float] = []
        self._buffer_start: float | None = None
        self.readings_archived = 0
        self.readings_dropped = 0
        if aging_policy is None:
            from repro.storage.aging import AgingPolicy

            aging_policy = AgingPolicy()
        self.aging_policy = aging_policy
        # Set by OffloadCoordinator.register(); when present, full flushes
        # try collaborative offload before degrading data with aging.
        self.offload: "OffloadCoordinator | None" = None

    # -- writes -----------------------------------------------------------

    def append(self, timestamp: float, value: float) -> None:
        """Buffer one reading; flushes a segment when the buffer fills."""
        if self._buffer_start is None:
            self._buffer_start = float(timestamp)
        self._buffer_values.append(float(value))
        if len(self._buffer_values) >= self.segment_readings:
            self.flush()

    def flush(self) -> ArchiveRecord | None:
        """Write the buffered readings to flash as one segment."""
        if not self._buffer_values or self._buffer_start is None:
            return None
        values = np.asarray(self._buffer_values, dtype=np.float64)
        start = self._buffer_start
        end = start + (values.size - 1) * self.sample_period_s
        n_bytes = values.size * BYTES_PER_READING

        pages = self._write_with_aging(n_bytes)
        if pages is None:
            # Even aggressive aging could not make room; drop the segment
            # (counted — tests assert this never happens in sized configs).
            self.readings_dropped += values.size
            self._buffer_values = []
            self._buffer_start = None
            return None

        record = ArchiveRecord(
            record_id=next(self._ids),
            start_time=start,
            end_time=end,
            sample_period_s=self.sample_period_s,
            n_readings=values.size,
            raw=values,
            pages=pages,
        )
        self.records[record.record_id] = record
        self.index.append(
            IndexEntry(start_time=start, end_time=end, record_id=record.record_id)
        )
        self.readings_archived += values.size
        self._buffer_values = []
        self._buffer_start = None
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
        values = record.values()
        offset = int(round((timestamp - record.start_time) / record.sample_period_s))
        offset = min(max(offset, 0), values.size - 1)
        return float(values[offset]), record.level

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
        return len(self._buffer_values)

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
