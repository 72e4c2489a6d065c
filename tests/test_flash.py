"""Unit tests for the flash device model."""

import pytest

from repro.energy.constants import MICA2_FLASH
from repro.storage.flash import FlashDevice


@pytest.fixture
def flash(meter):
    return FlashDevice(MICA2_FLASH, meter, capacity_bytes=MICA2_FLASH.page_bytes * 16)


class TestFlashDevice:
    def test_pages_for(self, flash):
        assert flash.pages_for(0) == 0
        assert flash.pages_for(1) == 1
        assert flash.pages_for(MICA2_FLASH.page_bytes) == 1
        assert flash.pages_for(MICA2_FLASH.page_bytes + 1) == 2

    def test_pages_for_negative_rejected(self, flash):
        with pytest.raises(ValueError):
            flash.pages_for(-1)

    def test_write_allocates_and_charges(self, flash, meter):
        pages = flash.write(600)
        assert pages == 3
        assert flash.used_pages == 3
        assert meter.category_j("flash.write") == pytest.approx(
            3 * MICA2_FLASH.write_page_energy_j
        )

    def test_write_full_raises(self, flash):
        flash.write(16 * MICA2_FLASH.page_bytes)
        with pytest.raises(IOError):
            flash.write(1)

    def test_read_charges_but_does_not_allocate(self, flash, meter):
        flash.write(600)
        flash.read(600)
        assert flash.used_pages == 3
        assert meter.category_j("flash.read") > 0

    def test_free_releases_and_charges_erase(self, flash, meter):
        flash.write(8 * MICA2_FLASH.page_bytes)
        flash.free(8)
        assert flash.used_pages == 0
        assert meter.category_j("flash.erase") > 0

    def test_free_more_than_used_rejected(self, flash):
        flash.write(100)
        with pytest.raises(ValueError):
            flash.free(5)

    def test_utilization(self, flash):
        assert flash.utilization == 0.0
        flash.write(8 * MICA2_FLASH.page_bytes)
        assert flash.utilization == pytest.approx(0.5)

    def test_stats_counters(self, flash):
        flash.write(600)
        flash.read(300)
        flash.free(1)
        assert flash.stats.pages_written == 3
        assert flash.stats.bytes_written == 600
        assert flash.stats.pages_read == 2
        assert flash.stats.blocks_erased == 1

    def test_free_rounds_partial_blocks_up_to_whole_erases(self, flash, meter):
        # pages_per_block = 8: freeing 1 page erases 1 block, freeing 9
        # erases 2 — partial blocks always round up, as on the real part.
        flash.write(10 * MICA2_FLASH.page_bytes)
        flash.free(1)
        assert flash.stats.blocks_erased == 1
        flash.free(9)
        assert flash.stats.blocks_erased == 3
        assert meter.category_j("flash.erase") == pytest.approx(
            3 * MICA2_FLASH.erase_block_energy_j
        )

    def test_capacity_smaller_than_page_rejected(self, meter):
        with pytest.raises(ValueError):
            FlashDevice(MICA2_FLASH, meter, capacity_bytes=10)
