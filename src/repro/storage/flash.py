"""Page-oriented flash device model with energy accounting.

Models the dataflash part on a PRESTO sensor: writes and reads happen in
whole pages, erases in blocks, and every operation charges the node's
:class:`~repro.energy.meter.EnergyMeter`.  The paper's storage-vs-radio
trade-off (storage is ~two orders of magnitude cheaper than communication
[8]) emerges directly from these constants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.energy.constants import FlashConstants
from repro.energy.meter import EnergyMeter


@dataclass
class FlashStats:
    """Operation counters for one device."""

    pages_written: int = 0
    pages_read: int = 0
    blocks_erased: int = 0
    bytes_written: int = 0
    bytes_read: int = 0


class FlashDevice:
    """A bounded flash store charged against an energy meter.

    The device tracks *used pages* only — the archive layer above decides
    placement.  Freeing happens in whole blocks (erase), as on real parts.
    """

    def __init__(
        self,
        constants: FlashConstants,
        meter: EnergyMeter,
        capacity_bytes: int | None = None,
    ) -> None:
        self.constants = constants
        self.meter = meter
        self.capacity_bytes = int(capacity_bytes or constants.capacity_bytes)
        if self.capacity_bytes < constants.page_bytes:
            raise ValueError(
                f"capacity {self.capacity_bytes} smaller than one page "
                f"({constants.page_bytes})"
            )
        self.stats = FlashStats()
        self._used_pages = 0

    @property
    def total_pages(self) -> int:
        """Device capacity in pages."""
        return self.capacity_bytes // self.constants.page_bytes

    @property
    def used_pages(self) -> int:
        """Pages currently allocated."""
        return self._used_pages

    @property
    def free_pages(self) -> int:
        """Pages available for allocation."""
        return self.total_pages - self._used_pages

    @property
    def utilization(self) -> float:
        """Fraction of pages in use."""
        return self._used_pages / self.total_pages

    def pages_for(self, n_bytes: int) -> int:
        """Pages needed to store *n_bytes*."""
        if n_bytes < 0:
            raise ValueError(f"negative byte count {n_bytes!r}")
        if n_bytes == 0:
            return 0
        return math.ceil(n_bytes / self.constants.page_bytes)

    def write(self, n_bytes: int) -> int:
        """Allocate + program pages for *n_bytes*; returns pages written.

        Raises :class:`IOError` when the device is full — the archive layer
        catches this to trigger aging.
        """
        pages = self.pages_for(n_bytes)
        if pages > self.free_pages:
            raise IOError(
                f"flash full: need {pages} pages, {self.free_pages} free"
            )
        self._used_pages += pages
        self.stats.pages_written += pages
        self.stats.bytes_written += n_bytes
        self.meter.charge("flash.write", pages * self.constants.write_page_energy_j)
        return pages

    def read(self, n_bytes: int) -> int:
        """Charge a read of *n_bytes*; returns pages touched."""
        pages = self.pages_for(n_bytes)
        self.stats.pages_read += pages
        self.stats.bytes_read += n_bytes
        self.meter.charge("flash.read", pages * self.constants.read_page_energy_j)
        return pages

    def free(self, pages: int) -> None:
        """Release *pages*, charging block-erase energy."""
        if pages < 0:
            raise ValueError(f"negative page count {pages!r}")
        if pages > self._used_pages:
            raise ValueError(
                f"freeing {pages} pages but only {self._used_pages} in use"
            )
        self._used_pages -= pages
        blocks = math.ceil(pages / self.constants.pages_per_block)
        self.stats.blocks_erased += blocks
        self.meter.charge("flash.erase", blocks * self.constants.erase_block_energy_j)
