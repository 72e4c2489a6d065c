"""Per-entry clock-frame tags: exact drift correction in the ordered view.

The sync fit for a drifting mote clock is a moving target — it tracks the
last window of exchanges.  Correcting an old detection with *today's* fit
extrapolates backwards through the drift; tagging each cached entry with
the ``(rate, offset)`` frame in effect when it was recorded keeps the
correction contemporary with the detection.
"""

import numpy as np
import pytest
from reference_cache import ListSummaryCache

from repro.core import PrestoConfig, PrestoSystem
from repro.core.cache import CacheEntry, EntrySource, SummaryCache
from repro.core.unified import ProxyCell, ordered_view
from repro.radio.link import LinkConfig
from repro.traces.intel_lab import IntelLabConfig, IntelLabGenerator


def entry(timestamp, value=1.0, std=0.0, source=EntrySource.PUSHED):
    return CacheEntry(timestamp=timestamp, value=value, std=std, source=source)


class TestSummaryCacheFrames:
    def test_untouched_sensor_has_no_frames(self):
        cache = SummaryCache()
        cache.insert(0, entry(10.0))
        assert cache.frames_in(0, 0.0, 100.0) is None
        assert cache.frames_in(1, 0.0, 100.0) is None

    def test_tags_align_with_entries(self):
        cache = SummaryCache()
        cache.insert(0, entry(10.0))
        cache.insert(0, entry(20.0), frame=(1.0001, 5.0))
        cache.insert(0, entry(30.0), frame=(0.9999, -3.0))
        frames = cache.frames_in(0, 0.0, 100.0)
        assert frames.shape == (3, 2)
        assert np.isnan(frames[0]).all()
        assert tuple(frames[1]) == (1.0001, 5.0)
        assert tuple(frames[2]) == (0.9999, -3.0)
        # windowing matches entries_in
        window = cache.frames_in(0, 15.0, 25.0)
        assert window.shape == (1, 2)
        assert tuple(window[0]) == (1.0001, 5.0)

    def test_backfill_keeps_alignment(self):
        cache = SummaryCache()
        cache.insert(0, entry(30.0), frame=(1.0, 7.0))
        cache.insert(0, entry(10.0), frame=(1.0, 3.0))  # shifts the tail
        cache.insert(0, entry(20.0))                    # untagged backfill
        frames = cache.frames_in(0, 0.0, 100.0)
        assert tuple(frames[0]) == (1.0, 3.0)
        assert np.isnan(frames[1]).all()
        assert tuple(frames[2]) == (1.0, 7.0)

    def test_refinement_retags_the_cell(self):
        cache = SummaryCache()
        cache.insert(0, entry(10.0, source=EntrySource.PREDICTED))
        cache.insert(
            0, entry(10.0, source=EntrySource.PULLED), frame=(1.001, 2.0)
        )
        assert tuple(cache.frames_in(0, 0.0, 100.0)[0]) == (1.001, 2.0)
        # a rejected degrade leaves the tag alone
        cache.insert(0, entry(10.0, source=EntrySource.PREDICTED))
        assert tuple(cache.frames_in(0, 0.0, 100.0)[0]) == (1.001, 2.0)
        # an untagged overwrite clears it
        cache.insert(0, entry(10.0, value=2.0))
        assert np.isnan(cache.frames_in(0, 0.0, 100.0)[0]).all()

    def test_tags_survive_growth_and_eviction(self):
        cache = SummaryCache(max_entries_per_sensor=100)
        cache.insert(0, entry(0.0), frame=(1.0, 42.0))
        for i in range(1, 120):  # grows past the initial capacity, then evicts
            cache.insert(0, entry(float(i)))
        assert cache.evictions == 20
        frames = cache.frames_in(0, 0.0, 1000.0)
        assert frames.shape == (100, 2)
        assert np.isnan(frames).all()  # the tagged entry was evicted
        cache.insert(0, entry(120.0), frame=(1.0, 9.0))
        assert tuple(cache.frames_in(0, 119.5, 120.5)[0]) == (1.0, 9.0)

    def test_batch_merge_keeps_existing_tags_aligned(self):
        cache = SummaryCache()
        cache.insert(0, entry(50.0), frame=(1.0, 11.0))
        times = np.array([10.0, 30.0, 70.0, 90.0])
        cache.insert_batch(0, times, np.ones(4), 0.1, EntrySource.PUSHED)
        frames = cache.frames_in(0, 0.0, 100.0)
        assert frames.shape == (5, 2)
        assert tuple(frames[2]) == (1.0, 11.0)  # 50.0 is the third entry now
        nan_rows = [0, 1, 3, 4]
        assert np.isnan(frames[nan_rows]).all()

    def test_batch_collision_clears_the_tag(self):
        cache = SummaryCache()
        cache.insert(
            0, entry(50.0, source=EntrySource.PREDICTED), frame=(1.0, 11.0)
        )
        cache.insert_batch(
            0, np.array([50.0]), np.array([2.0]), 0.1, EntrySource.PUSHED
        )
        assert np.isnan(cache.frames_in(0, 0.0, 100.0)[0]).all()

    def test_degenerate_frames_rejected(self):
        cache = SummaryCache()
        with pytest.raises(ValueError, match="frame"):
            cache.insert(0, entry(1.0), frame=(0.0, 5.0))
        with pytest.raises(ValueError, match="frame"):
            cache.insert(0, entry(1.0), frame=(float("nan"), 0.0))


class TestListCacheParity:
    def test_same_stream_same_frames(self):
        columnar, reference = SummaryCache(), ListSummaryCache()
        stream = [
            (entry(30.0), (1.0, 7.0)),
            (entry(10.0), None),
            (entry(20.0), (0.999, -2.0)),
            (entry(20.0, value=5.0), None),
        ]
        for cell, frame in stream:
            columnar.insert(0, cell, frame=frame)
            reference.insert(0, cell, frame=frame)
        ours = columnar.frames_in(0, 0.0, 100.0)
        theirs = reference.frames_in(0, 0.0, 100.0)
        np.testing.assert_array_equal(ours, theirs)

    def test_list_cache_none_until_tagged(self):
        reference = ListSummaryCache()
        reference.insert(0, entry(1.0))
        assert reference.frames_in(0, 0.0, 10.0) is None
        reference.insert(0, entry(2.0), frame=(1.0, 0.5))
        frames = reference.frames_in(0, 0.0, 10.0)
        assert frames.shape == (2, 2)
        assert np.isnan(frames[0]).all() and tuple(frames[1]) == (1.0, 0.5)


def build_system(seed=1, name="proxy"):
    config = IntelLabConfig(n_sensors=2, duration_s=3600.0, epoch_s=31.0)
    trace = IntelLabGenerator(config, seed=seed).generate()
    presto = PrestoConfig(
        sample_period_s=31.0, link=LinkConfig(loss_probability=0.0)
    )
    return PrestoSystem(trace, presto, seed=seed, proxy_name=name)


def fit_clock(proxy, local, offset, at=(0.0, 600.0, 1200.0)):
    """Feed exchanges so the fitted frame becomes ``local = true + offset``."""
    name = proxy.sensor_name(local)
    for t in at:
        proxy.sync.record_exchange(name, proxy_time=t, sensor_local_time=t + offset)


class TestRecordDetection:
    def test_detection_is_tagged_with_current_fit(self):
        system = build_system()
        proxy = system.proxy
        fit_clock(proxy, 0, offset=5.0)
        recorded = proxy.record_detection(0, raw_timestamp=105.0, value=20.0)
        assert recorded.source is EntrySource.PUSHED
        frames = proxy.cache.frames_in(0, 100.0, 110.0)
        assert frames[0] == pytest.approx([1.0, 5.0])

    def test_detection_tag_is_the_fit_of_the_exchanges_so_far(self):
        """No read happens between the exchanges, so the fit runs inside
        ``record_detection`` — over exactly the window as it stands then,
        not one exchange short and not including later ones."""
        system = build_system()
        proxy = system.proxy
        name = proxy.sensor_name(0)
        exchanges = [(t, 1.0002 * t + 3.0 + 0.01 * (-1) ** i)
                     for i, t in enumerate(np.arange(0.0, 1500.0, 300.0))]
        tags = []
        for i, (t, local) in enumerate(exchanges):
            proxy.sync.record_exchange(name, proxy_time=t, sensor_local_time=local)
            if i >= 2:
                proxy.record_detection(0, raw_timestamp=local + 1.0, value=float(i))
                tags.append(tuple(proxy.cache.frames_in(0, local, local + 2.0)[0]))
        for i, tag in enumerate(tags, start=2):
            seen = np.asarray(exchanges[: i + 1])
            rate, offset = np.polyfit(seen[:, 0], seen[:, 1], deg=1)
            assert tag == (float(rate), float(offset))
        assert len(set(tags)) == len(tags)  # each exchange moved the fit

    def test_pre_sync_detection_untagged(self):
        system = build_system()
        proxy = system.proxy
        proxy.record_detection(0, raw_timestamp=50.0, value=1.0)
        frames = proxy.cache.frames_in(0, 0.0, 100.0)
        assert frames is None or np.isnan(frames[0]).all()

    def test_refit_does_not_move_old_detections(self):
        """The whole point of the tags: a clock re-fit after the detection
        leaves its corrected instant exactly where it was recorded."""
        system = build_system()
        proxy = system.proxy
        cells = [ProxyCell(proxy, 0, sensor_stamped=True)]

        fit_clock(proxy, 0, offset=5.0)
        proxy.record_detection(0, raw_timestamp=105.0, value=20.0)  # true 100
        # the mote's clock jumps; later exchanges re-fit to offset 45
        fit_clock(proxy, 0, offset=45.0, at=(1800.0, 2400.0, 3000.0))

        view = ordered_view(cells, 0.0, 1000.0)
        assert [(round(t), s) for t, s, _ in view] == [(100, 0)]

        # an *untagged* raw insert follows the (now wrong-for-then) new fit
        proxy.cache.insert(1, entry(145.0, value=7.0))
        fit_clock(proxy, 1, offset=45.0)
        view = ordered_view(cells, 0.0, 1000.0)
        assert [(round(t), s) for t, s, _ in view] == [(100, 0), (100, 1)]
