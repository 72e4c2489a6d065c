"""Unit tests for the proxy summary cache."""

import math

import pytest

from repro.core.cache import (
    PREDICTED_CODE,
    PULLED_CODE,
    PUSHED_CODE,
    CacheEntry,
    CacheSnapshot,
    EntrySource,
    SummaryCache,
    coverage_fraction,
)


def entry(t, value=20.0, std=0.1, source=EntrySource.PREDICTED):
    return CacheEntry(timestamp=t, value=value, std=std, source=source)


def covered(cache, sensor, start, end, period):
    """The proxy's window coverage: the count its window read found, judged
    against the epochs ``[start, end]`` should hold."""
    return coverage_fraction(cache.arrays_in(sensor, start, end)[0].size, start, end, period)


@pytest.fixture
def cache():
    return SummaryCache(max_entries_per_sensor=100)


class TestInsertion:
    def test_insert_and_lookup(self, cache):
        cache.insert(0, entry(10.0, 21.0))
        found = cache.entry_at(0, 10.0, tolerance_s=1.0)
        assert found.value == 21.0

    def test_tolerance_respected(self, cache):
        cache.insert(0, entry(10.0))
        assert cache.entry_at(0, 15.0, tolerance_s=1.0) is None
        assert cache.entry_at(0, 11.0, tolerance_s=2.0) is not None

    def test_nearest_of_two(self, cache):
        cache.insert(0, entry(10.0, 1.0))
        cache.insert(0, entry(20.0, 2.0))
        assert cache.entry_at(0, 14.0, 10.0).value == 1.0
        assert cache.entry_at(0, 16.0, 10.0).value == 2.0

    def test_out_of_order_backfill(self, cache):
        cache.insert(0, entry(30.0))
        cache.insert(0, entry(10.0))
        cache.insert(0, entry(20.0))
        times = [e.timestamp for e in cache.entries_in(0, 0.0, 100.0)]
        assert times == [10.0, 20.0, 30.0]


class TestRefinement:
    def test_actual_replaces_predicted(self, cache):
        cache.insert(0, entry(10.0, 20.0, source=EntrySource.PREDICTED))
        cache.insert(0, entry(10.0, 21.5, source=EntrySource.PULLED))
        found = cache.entry_at(0, 10.0, 1.0)
        assert found.value == 21.5
        assert found.is_actual
        assert cache.refinements == 1

    def test_predicted_never_replaces_actual(self, cache):
        cache.insert(0, entry(10.0, 21.5, source=EntrySource.PUSHED))
        cache.insert(0, entry(10.0, 19.0, source=EntrySource.PREDICTED))
        assert cache.entry_at(0, 10.0, 1.0).value == 21.5

    def test_actual_can_replace_actual(self, cache):
        cache.insert(0, entry(10.0, 21.0, source=EntrySource.PUSHED))
        cache.insert(0, entry(10.0, 21.2, source=EntrySource.PULLED))
        assert cache.entry_at(0, 10.0, 1.0).value == 21.2

    def test_predicted_updates_predicted(self, cache):
        cache.insert(0, entry(10.0, 20.0, source=EntrySource.PREDICTED))
        cache.insert(0, entry(10.0, 20.5, source=EntrySource.PREDICTED))
        assert cache.entry_at(0, 10.0, 1.0).value == 20.5


class TestEviction:
    def test_oldest_evicted_beyond_capacity(self):
        cache = SummaryCache(max_entries_per_sensor=16)
        for i in range(32):
            cache.insert(0, entry(float(i)))
        assert cache.size(0) == 16
        assert cache.entry_at(0, 0.0, 0.5) is None
        assert cache.entry_at(0, 31.0, 0.5) is not None
        assert cache.evictions == 16

    def test_too_small_capacity_rejected(self):
        with pytest.raises(ValueError):
            SummaryCache(max_entries_per_sensor=2)


class TestQueries:
    def test_entries_in_window(self, cache):
        for i in range(10):
            cache.insert(0, entry(float(i * 10)))
        found = cache.entries_in(0, 25.0, 55.0)
        assert [e.timestamp for e in found] == [30.0, 40.0, 50.0]

    def test_latest_and_latest_actual(self, cache):
        cache.insert(0, entry(10.0, source=EntrySource.PUSHED))
        cache.insert(0, entry(20.0, source=EntrySource.PREDICTED))
        assert cache.latest(0).timestamp == 20.0
        assert cache.latest_actual(0).timestamp == 10.0

    def test_latest_on_empty(self, cache):
        assert cache.latest(7) is None
        assert cache.latest_actual(7) is None

    def test_coverage_fraction(self, cache):
        for i in range(5):
            cache.insert(0, entry(float(i * 30)))
        coverage = covered(cache, 0, 0.0, 120.0, 30.0)
        assert coverage == pytest.approx(1.0)
        sparse = covered(cache, 0, 0.0, 300.0, 30.0)
        assert sparse < 0.5

    def test_coverage_invalid_window(self, cache):
        with pytest.raises(ValueError):
            coverage_fraction(0, 10.0, 0.0, 30.0)

    def test_per_sensor_isolation(self, cache):
        cache.insert(0, entry(10.0, 1.0))
        cache.insert(1, entry(10.0, 2.0))
        assert cache.entry_at(0, 10.0, 1.0).value == 1.0
        assert cache.entry_at(1, 10.0, 1.0).value == 2.0
        assert set(cache.sensors) == {0, 1}

    def test_size_total(self, cache):
        cache.insert(0, entry(1.0))
        cache.insert(1, entry(1.0))
        assert cache.size() == 2


class TestCoverageBoundary:
    def test_exact_multiple_with_float_noise(self):
        """(end-start)/period = 6.999999999999999 must still expect 8 epochs.

        With truncation the expected count drops to 7, so a window with one
        cell genuinely missing still reads as 100% covered and the proxy
        skips a pull it should have made.
        """
        period = 0.1
        assert (0.7 - 0.0) / period < 7.0  # the float noise this guards
        full = SummaryCache(100)
        for i in range(7):
            full.insert(0, entry(i * period))
        full.insert(0, entry(0.7))
        assert covered(full, 0, 0.0, 0.7, period) == pytest.approx(1.0)
        partial = SummaryCache(100)
        for i in range(7):
            if i != 3:
                partial.insert(0, entry(i * period))
        partial.insert(0, entry(0.7))
        assert covered(partial, 0, 0.0, 0.7, period) < 1.0

    def test_fractional_window_expects_achievable_count(self):
        """A 6.6-period window can only ever hold 7 grid epochs.

        Full grid coverage must read 1.0 — rounding the ratio up would
        expect 8 epochs and misread it as 0.875, forcing needless pulls.
        """
        period = 31.0
        cache = SummaryCache(100)
        for i in range(7):
            cache.insert(0, entry(i * period))
        assert covered(cache, 0, 0.0, 6.6 * period, period) == pytest.approx(1.0)

    def test_point_window(self):
        cache = SummaryCache(100)
        cache.insert(0, entry(10.0))
        assert covered(cache, 0, 10.0, 10.0, 30.0) == pytest.approx(1.0)

    def test_empty_sensor(self):
        cache = SummaryCache(100)
        assert covered(cache, 3, 0.0, 100.0, 10.0) == 0.0


class TestBatchInsert:
    def test_append_batch_matches_sequential(self):
        import numpy as np

        batched, sequential = SummaryCache(100), SummaryCache(100)
        times = np.arange(20, dtype=float) * 30.0
        values = np.sin(times)
        batched.insert_batch(0, times, values, 0.05, PUSHED_CODE)
        for t, v in zip(times, values):
            sequential.insert(0, entry(float(t), float(v), 0.05, EntrySource.PUSHED))
        assert batched.entries_in(0, -1.0, 1e9) == sequential.entries_in(0, -1.0, 1e9)
        assert batched.insertions == sequential.insertions == 20

    def test_backfill_batch_respects_refinement_policy(self):
        import numpy as np

        cache = SummaryCache(100)
        cache.insert(0, entry(30.0, 1.0, source=EntrySource.PREDICTED))
        cache.insert(0, entry(60.0, 2.0, source=EntrySource.PUSHED))
        cache.insert_batch(
            0,
            np.asarray([30.0, 45.0, 60.0]),
            np.asarray([1.5, 9.0, 2.5]),
            0.0,
            PULLED_CODE,
        )
        found = cache.entries_in(0, 0.0, 100.0)
        assert [e.timestamp for e in found] == [30.0, 45.0, 60.0]
        assert found[0].value == 1.5 and found[0].source is EntrySource.PULLED
        assert found[2].value == 2.5  # actual may replace actual
        assert cache.refinements == 1  # only the predicted 30.0 was refined

    def test_predicted_batch_never_degrades_actuals(self):
        import numpy as np

        cache = SummaryCache(100)
        cache.insert(0, entry(30.0, 1.0, source=EntrySource.PUSHED))
        cache.insert_batch(
            0,
            np.asarray([30.0, 60.0]),
            np.asarray([7.0, 8.0]),
            0.3,
            PREDICTED_CODE,
        )
        assert cache.entry_at(0, 30.0, 1.0).value == 1.0
        assert cache.entry_at(0, 60.0, 1.0).value == 8.0

    @pytest.mark.parametrize(
        "times, values, stds, codes",
        [
            ([90.0, 80.0], [1.0, 2.0], 0.0, PUSHED_CODE),           # descending
            ([90.0, 90.0], [1.0, 2.0], 0.0, PUSHED_CODE),           # a duplicate
            ([90.0, 120.0], [1.0], 0.0, PUSHED_CODE),               # one value for two
            ([90.0, 120.0], [1.0, 2.0], [0.0, 0.1, 0.2], PUSHED_CODE),
            ([90.0, 120.0], [1.0, 2.0], 0.0, [PUSHED_CODE]),
        ],
    )
    def test_malformed_run_is_refused_untouched(self, times, values, stds, codes):
        import numpy as np

        cache = SummaryCache(16)
        cache.insert_batch(0, np.arange(20.0) * 30.0, np.arange(20.0), 0.1, PREDICTED_CODE)
        cache.insert(0, entry(60.0, 5.0, source=EntrySource.PULLED))
        column = cache._columns[0]
        column.written_from = math.inf     # as a replica export leaves it
        before = [array.copy() for array in cache.arrays_in(0, -1.0, 1e9)]
        counters = (cache.insertions, cache.refinements, cache.evictions)
        with pytest.raises(ValueError):
            cache.insert_batch(0, np.asarray(times), np.asarray(values), stds, codes)
        after = cache.arrays_in(0, -1.0, 1e9)
        assert all(np.array_equal(a, b) for a, b in zip(before, after))
        assert (cache.insertions, cache.refinements, cache.evictions) == counters
        assert column.written_from == math.inf

    def test_batch_overflow_evicts_oldest(self):
        import numpy as np

        cache = SummaryCache(16)
        times = np.arange(40, dtype=float)
        cache.insert_batch(0, times, times, 0.0, PUSHED_CODE)
        assert cache.size(0) == 16
        assert cache.evictions == 24
        assert cache.entry_at(0, 23.0, 0.25) is None
        assert cache.entry_at(0, 24.0, 0.25) is not None


class TestSnapshot:
    def test_tail_snapshot_contents_match_tail(self):
        cache = SummaryCache(100)
        for i in range(12):
            source = EntrySource.PUSHED if i % 3 else EntrySource.PREDICTED
            cache.insert(0, entry(float(i * 30), float(i), 0.1, source))
        snapshot = cache.tail_snapshot(0, 5)
        assert list(snapshot) == cache.entries_in(0, -1.0, 1e12)[-5:]
        assert len(snapshot) == 5
        assert snapshot[-1].timestamp == cache.latest(0).timestamp

    def test_snapshot_is_isolated_from_later_writes(self):
        cache = SummaryCache(100)
        cache.insert(0, entry(10.0, 1.0))
        snapshot = cache.tail_snapshot(0, 8)
        cache.insert(0, entry(20.0, 2.0))
        cache.insert(0, entry(10.0, 9.9, source=EntrySource.PULLED))
        assert len(snapshot) == 1
        assert snapshot[0].value == 1.0

    def test_empty_snapshot_is_falsy(self):
        cache = SummaryCache(100)
        snapshot = cache.tail_snapshot(5, 8)
        assert not snapshot
        assert len(snapshot) == 0

    def test_snapshot_window_and_nearest(self):
        cache = SummaryCache(100)
        for i in range(10):
            cache.insert(0, entry(float(i * 10), float(i)))
        snapshot = cache.tail_snapshot(0, 10)
        window = snapshot.window_slice(25.0, 55.0)
        assert list(snapshot.timestamps[window]) == [30.0, 40.0, 50.0]
        assert snapshot.nearest(41.0, tolerance_s=5.0) == 4
        assert snapshot.nearest(45.0, tolerance_s=2.0) is None


class TestExportTail:
    """A replica export hands out the live rows; a keyframe holds the tail."""

    def test_keyframe_holds_the_tail(self):
        cache = SummaryCache(100)
        for i in range(12):
            source = EntrySource.PUSHED if i % 3 else EntrySource.PREDICTED
            cache.insert(0, entry(float(i * 30), float(i), 0.1, source))
        first_s, kept, *rows = cache.export_tail(0, 5, keyframe=True)
        assert (first_s, kept) == (210.0, 0)
        assert list(CacheSnapshot(*rows)) == cache.entries_in(0, -1.0, 1e12)[-5:]

    def test_delta_hands_out_the_rows_from_the_oldest_write(self):
        cache = SummaryCache(100)
        for i in range(10):
            cache.insert(0, entry(float(i * 10), float(i)))
        cache.export_tail(0, 8, keyframe=False)
        cache.insert(0, entry(70.0, 9.9, source=EntrySource.PULLED))
        cache.insert(0, entry(100.0, 10.0))
        first_s, kept, times, values, _, _ = cache.export_tail(0, 8, keyframe=False)
        assert (first_s, kept) == (30.0, 4)       # 30, 40, 50, 60 unchanged
        assert times.tolist() == [70.0, 80.0, 90.0, 100.0]
        assert values.tolist() == [9.9, 8.0, 9.0, 10.0]

    def test_rows_are_live_views_until_the_next_write(self):
        cache = SummaryCache(100)
        cache.insert(0, entry(10.0, 1.0))
        _, _, _, values, _, _ = cache.export_tail(0, 8, keyframe=True)
        cache.insert(0, entry(10.0, 9.9, source=EntrySource.PULLED))
        assert values.tolist() == [9.9]           # the caller copies before writes

    def test_a_sensor_never_written_exports_nothing(self):
        cache = SummaryCache(100)
        first_s, kept, *rows = cache.export_tail(5, 8, keyframe=True)
        assert (first_s, kept) == (0.0, 0)
        assert not CacheSnapshot(*rows)
        with pytest.raises(ValueError, match="positive tail size"):
            cache.export_tail(5, 0, keyframe=True)


class TestValuesOnGrid:
    def test_matches_entry_at(self):
        import numpy as np

        rng = np.random.default_rng(42)
        cache = SummaryCache(200)
        for t in rng.choice(np.arange(100) * 7.0, size=60, replace=False):
            cache.insert(0, entry(float(t), float(rng.normal())))
        grid = np.linspace(-20.0, 750.0, 301)
        values, valid = cache.values_on_grid(0, grid, tolerance_s=3.5)
        for point, value, ok in zip(grid, values, valid):
            reference = cache.entry_at(0, float(point), tolerance_s=3.5)
            assert ok == (reference is not None)
            if reference is not None:
                assert value == reference.value

    def test_empty_sensor_grid(self):
        import numpy as np

        cache = SummaryCache(100)
        values, valid = cache.values_on_grid(9, np.asarray([1.0, 2.0]), 1.0)
        assert not valid.any()
        assert np.isnan(values).all()
