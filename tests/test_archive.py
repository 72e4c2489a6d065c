"""Unit tests for the log-structured sensor archive."""

import numpy as np
import pytest

from repro.energy.constants import MICA2_FLASH
from repro.energy.meter import EnergyMeter
from repro.storage.archive import SensorArchive
from repro.storage.flash import FlashDevice


def make_archive(capacity_pages=1000, segment_readings=32):
    meter = EnergyMeter("sensor")
    flash = FlashDevice(
        MICA2_FLASH, meter, capacity_bytes=capacity_pages * MICA2_FLASH.page_bytes
    )
    archive = SensorArchive(flash, segment_readings=segment_readings)
    return archive, meter


class TestAppendFlush:
    def test_buffer_flushes_at_segment_size(self):
        archive, _ = make_archive(segment_readings=8)
        for i in range(7):
            archive.append(i * 30.0, float(i))
        assert archive.n_segments == 0
        archive.append(7 * 30.0, 7.0)
        assert archive.n_segments == 1

    def test_flush_charges_flash_write(self):
        archive, meter = make_archive(segment_readings=8)
        for i in range(8):
            archive.append(i * 30.0, float(i))
        assert meter.category_j("flash.write") > 0

    def test_empty_flush_is_noop(self):
        archive, _ = make_archive()
        assert archive.flush() is None

    def test_coverage_spans_all_segments(self):
        archive, _ = make_archive(segment_readings=8)
        for i in range(24):
            archive.append(i * 30.0, float(i))
        start, end = archive.coverage
        assert start == 0.0
        assert end == 23 * 30.0


class TestReads:
    def test_read_point_returns_nearest(self):
        archive, _ = make_archive(segment_readings=16)
        for i in range(32):
            archive.append(i * 30.0, float(i))
        value, level = archive.read_point(10 * 30.0)
        assert value == 10.0
        assert level == 0

    def test_read_point_unarchived_returns_none(self):
        archive, _ = make_archive()
        assert archive.read_point(1e9) is None

    def test_read_range(self):
        archive, _ = make_archive(segment_readings=16)
        for i in range(64):
            archive.append(i * 30.0, float(i))
        times, values, level = archive.read_range(10 * 30.0, 20 * 30.0)
        assert times.shape[0] == 11
        np.testing.assert_array_equal(values, np.arange(10.0, 21.0))

    def test_read_range_includes_unflushed_boundary(self):
        archive, _ = make_archive(segment_readings=16)
        for i in range(40):  # 2 full segments + 8 buffered
            archive.append(i * 30.0, float(i))
        times, values, _ = archive.read_range(0.0, 40 * 30.0)
        assert values.shape[0] == 32  # buffered tail not yet flushed

    def test_read_charges_energy(self):
        archive, meter = make_archive(segment_readings=16)
        for i in range(32):
            archive.append(i * 30.0, float(i))
        before = meter.category_j("flash.read")
        archive.read_range(0.0, 1000.0)
        assert meter.category_j("flash.read") > before


class TestAgingUnderPressure:
    def test_aging_triggers_when_full(self):
        # 8 pages; each 64-reading segment is 512 B ~ 2 pages, so
        # coarsening to one page is possible before eviction
        archive, _ = make_archive(capacity_pages=8, segment_readings=64)
        for i in range(40 * 64):
            archive.append(i * 30.0, 20.0 + (i % 7))
        profile = archive.resolution_profile()
        assert archive.readings_dropped == 0
        assert any(level > 0 for level in profile)

    def test_history_remains_queryable_after_aging(self):
        archive, _ = make_archive(capacity_pages=6, segment_readings=32)
        n = 20 * 32
        for i in range(n):
            archive.append(i * 30.0, 20.0)
        times, values, level = archive.read_range(0.0, n * 30.0)
        evicted = archive.aging_policy.evictions
        if evicted == 0:
            assert times.shape[0] > 0
        # whatever remains reconstructs near the true constant value
        if values.size:
            np.testing.assert_allclose(values, 20.0, atol=0.5)

    def test_aged_reads_report_level(self):
        archive, _ = make_archive(capacity_pages=6, segment_readings=32)
        for i in range(40 * 32):
            archive.append(i * 30.0, 20.0)
        oldest = archive.index.oldest()
        record = archive.records[oldest.record_id]
        if record.level > 0:
            value, level = archive.read_point(record.start_time)
            assert level == record.level > 0

    def test_invalid_segment_size(self):
        with pytest.raises(ValueError):
            make_archive(segment_readings=1)


class TestDropoutTiming:
    """A missed epoch archives nothing; every archived reading must still
    carry its own sampling instant."""

    def test_readings_after_a_dropout_keep_their_epoch(self):
        from repro.core.config import PrestoConfig
        from repro.core.system import PrestoSystem
        from repro.traces.intel_lab import IntelLabConfig, IntelLabGenerator

        period = 31.0
        trace = IntelLabGenerator(
            IntelLabConfig(n_sensors=2, duration_s=20_000.0, epoch_s=period, dropout_rate=0.1),
            seed=3,
        ).generate()
        system = PrestoSystem(trace, PrestoConfig(sample_period_s=period), seed=3)
        system.run()
        archive = system.sensors[0].archive
        archive.flush()
        times, values, _ = archive.read_range(0.0, trace.config.duration_s)
        assert times.size == np.count_nonzero(~np.isnan(trace.values[0]))
        epochs = np.rint(times / period).astype(int)
        assert np.array_equal(values, trace.values[0, epochs])
        for at, value in zip(times[::37].tolist(), values[::37].tolist()):
            assert archive.read_point(at) == (value, 0)
