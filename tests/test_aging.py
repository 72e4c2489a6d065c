"""Unit tests for the aging policy."""

import pytest

from repro.energy.constants import MICA2_FLASH
from repro.energy.meter import EnergyMeter
from repro.storage.aging import AgingPolicy
from repro.storage.archive import SensorArchive
from repro.storage.flash import FlashDevice


def tiny_archive(capacity_pages=4, segment_readings=64, max_level=3):
    meter = EnergyMeter("sensor")
    flash = FlashDevice(
        MICA2_FLASH, meter, capacity_bytes=capacity_pages * MICA2_FLASH.page_bytes
    )
    return SensorArchive(
        flash,
        segment_readings=segment_readings,
        aging_policy=AgingPolicy(max_level=max_level),
    )


class TestAgingPolicy:
    def test_make_room_coarsens_oldest_first(self):
        archive = tiny_archive()
        for i in range(4 * 64):
            archive.append(i * 30.0, float(i % 9))
        # device now full; force another segment
        for i in range(4 * 64, 5 * 64):
            archive.append(i * 30.0, float(i % 9))
        aged_ids = [a.record_id for a in archive.aging_policy.history]
        assert aged_ids, "aging must have happened"
        assert aged_ids[0] == 0  # oldest segment aged first

    def test_aging_frees_pages(self):
        archive = tiny_archive()
        for i in range(6 * 64):
            archive.append(i * 30.0, 20.0)
        for action in archive.aging_policy.history:
            assert action.pages_freed > 0

    def test_eviction_after_floor(self):
        archive = tiny_archive(capacity_pages=3, max_level=1)
        for i in range(12 * 64):
            archive.append(i * 30.0, 20.0)
        # with a shallow floor the policy must eventually evict
        assert archive.aging_policy.evictions > 0

    def test_max_level_respected(self):
        archive = tiny_archive(max_level=2)
        for i in range(12 * 64):
            archive.append(i * 30.0, 20.0)
        for record in archive.records.values():
            assert record.level <= 2

    def test_invalid_max_level(self):
        with pytest.raises(ValueError):
            AgingPolicy(max_level=0)

    def test_make_room_on_empty_archive_fails_gracefully(self):
        archive = tiny_archive()
        assert archive.aging_policy.make_room(archive) is False


class TestAgingEnergyAccounting:
    """Aging must charge the summary re-program like any other flash write."""

    def test_cascade_pins_meter_totals_and_stats(self):
        # 4-page device, 2-page segments: two flushes fill it, the third
        # forces two coarsening steps (each frees 2 old pages, programs a
        # 1-page summary) before the segment fits.
        archive = tiny_archive(capacity_pages=4, segment_readings=64)
        for i in range(3 * 64):
            archive.append(i * 30.0, float(i % 9))
        history = archive.aging_policy.history
        assert [a.new_level for a in history] == [1, 1]
        assert [a.pages_freed for a in history] == [1, 1]
        # pages: 2+2 (fills) + 1+1 (re-programmed summaries) + 2 (third flush)
        assert archive.flash.stats.pages_written == 8
        # bytes: 3 x 512 raw + 2 x 256 summary
        assert archive.flash.stats.bytes_written == 2048
        # each coarsen frees its whole 2-page allocation: ceil(2/8) = 1 block
        assert archive.flash.stats.blocks_erased == 2
        meter = archive.flash.meter
        assert meter.category_j("flash.write") == pytest.approx(
            8 * MICA2_FLASH.write_page_energy_j
        )
        assert meter.category_j("flash.erase") == pytest.approx(
            2 * MICA2_FLASH.erase_block_energy_j
        )

    def test_coarsen_write_energy_matches_pages_written(self):
        archive = tiny_archive()
        for i in range(6 * 64):
            archive.append(i * 30.0, 20.0)
        meter = archive.flash.meter
        assert meter.category_j("flash.write") == pytest.approx(
            archive.flash.stats.pages_written * MICA2_FLASH.write_page_energy_j
        )


class TestAgingFloorPaths:
    """The small-raw branch and the rounding-ate-the-gain fallback."""

    def test_small_raw_segment_is_coarsenable(self):
        # 48 readings = 384 B = 2 pages but < 2 page_bytes of payload:
        # only the level == 0 clause of _oldest_coarsenable admits it.
        archive = tiny_archive(capacity_pages=4, segment_readings=48)
        for i in range(2 * 48):
            archive.append(i * 30.0, float(i % 7))
        record = archive.aging_policy._oldest_coarsenable(archive)
        assert record is not None and record.record_id == 0
        assert record.level == 0
        assert record.stored_bytes() < 2 * MICA2_FLASH.page_bytes
        # and coarsening it genuinely frees a page (summary fits in one)
        for i in range(2 * 48, 3 * 48):
            archive.append(i * 30.0, float(i % 7))
        history = archive.aging_policy.history
        assert history and all(a.pages_freed == 1 for a in history)
        assert archive.aging_policy.evictions == 0

    def test_rounding_ate_the_gain_falls_back_to_eviction(self):
        # 16 readings = 128 B = 1 page; its level-1 summary (8 values,
        # 64 B) still needs 1 page, so coarsening gains nothing and the
        # policy must evict instead.
        archive = tiny_archive(capacity_pages=2, segment_readings=16)
        for i in range(2 * 16):
            archive.append(i * 30.0, float(i % 5))
        assert archive.flash.free_pages == 0
        for i in range(2 * 16, 3 * 16):
            archive.append(i * 30.0, float(i % 5))
        assert archive.aging_policy.evictions == 1
        assert archive.aging_policy.history == []
        # the eviction's free(1 page) erased ceil(1/8) = 1 whole block
        assert archive.flash.stats.blocks_erased == 1
        assert archive.flash.meter.category_j("flash.erase") == pytest.approx(
            MICA2_FLASH.erase_block_energy_j
        )

