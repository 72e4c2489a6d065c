"""Graceful aging of archived data.

Implements Section 4's storage-pressure response: "If storage is constrained
on each sensor, graceful aging of archived data can be enabled using
wavelet-based multi-resolution techniques [10]".  The policy walks segments
oldest-first; each aging step replaces a segment's payload with the next
coarser wavelet approximation, freeing half of its flash pages while keeping
its full time coverage — resolution degrades, history never disappears
(until the floor level, after which segments may finally be evicted).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.signal.multires import age_once, summarize

if TYPE_CHECKING:  # imported lazily at runtime to avoid a module cycle
    from repro.storage.archive import SensorArchive


@dataclass(frozen=True)
class AgedSegment:
    """Bookkeeping for one aging action (for tests and benchmarks)."""

    record_id: int
    old_level: int
    new_level: int
    pages_freed: int


class AgingPolicy:
    """Oldest-first multi-resolution aging with an eviction floor.

    ``max_level`` bounds how coarse a summary may become before the segment
    is evicted outright; each level halves the footprint, so level 4 keeps
    1/16 of the original bytes.
    """

    def __init__(self, max_level: int = 4) -> None:
        if max_level < 1:
            raise ValueError(f"max_level must be >= 1, got {max_level}")
        self.max_level = int(max_level)
        self.history: list[AgedSegment] = []
        self.evictions = 0

    def make_room(self, archive: "SensorArchive") -> bool:
        """Free at least one flash page; returns False when nothing helps.

        Strategy: find the oldest segment below ``max_level`` and coarsen it
        one step.  If every segment is already at the floor, evict the
        oldest entirely.
        """
        target = self._oldest_coarsenable(archive)
        if target is not None:
            return self._coarsen(archive, target)
        return self._evict_oldest(archive)

    def _oldest_coarsenable(self, archive: "SensorArchive"):
        for entry in archive.index.entries():
            record = archive.records[entry.record_id]
            if record.hosted_by is not None:
                continue  # offloaded segments live on another node's flash
            if record.level < self.max_level and record.n_readings >= 2:
                if record.stored_bytes() >= 2 * archive.flash.constants.page_bytes or \
                        record.level == 0:
                    return record
        return None

    def _coarsen(self, archive: "SensorArchive", record) -> bool:
        old_pages = record.pages
        if record.raw is not None:
            summary = summarize(record.raw, level=1)
        else:
            summary = age_once(record.summary)
            if summary.level == record.summary.level:
                return self._evict_oldest(archive)
        new_bytes = summary.size_values * 8
        new_pages = archive.flash.pages_for(new_bytes)
        if new_pages >= old_pages:
            # Page rounding ate the gain; treat as floor reached.
            return self._evict_oldest(archive)
        old_level = record.level
        record.age_to(summary)
        archive.version += 1
        # Re-programming the summary is a real flash write: release the whole
        # old allocation, then program the new one so pages_written /
        # bytes_written and write energy cover every aging step.  The write
        # cannot fail — new_pages < old_pages just freed.
        archive.flash.free(old_pages)
        record.pages = archive.flash.write(new_bytes)
        self.history.append(
            AgedSegment(
                record_id=record.record_id,
                old_level=old_level,
                new_level=summary.level,
                pages_freed=old_pages - record.pages,
            )
        )
        return True

    def _evict_oldest(self, archive: "SensorArchive") -> bool:
        # Prefer evicting the oldest *locally stored* segment — evicting an
        # offloaded one frees another node's flash, not ours.
        entry = None
        for candidate in archive.index.entries():
            if archive.records[candidate.record_id].hosted_by is None:
                entry = candidate
                break
        if entry is None:
            entry = archive.index.oldest()
        if entry is None:
            return False
        record = archive.records.pop(entry.record_id)
        archive.version += 1
        archive.index.remove(entry.record_id)
        archive.release_record(record)
        self.evictions += 1
        return True

