"""Per-detection clock frames: exact drift correction in the ordered view.

The sync fit for a drifting mote clock is a moving target — it tracks the
last window of exchanges.  Correcting an old detection with *today's* fit
extrapolates backwards through the drift; logging each detection with the
fit in effect when it was recorded (``PrestoProxy.record_detection``) keeps
the correction contemporary with the detection, and the ordered view
applies its window to that correction.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import PrestoConfig, PrestoSystem
from repro.core.cache import EntrySource
from repro.core.unified import ProxyCell, ordered_view
from repro.radio.link import LinkConfig
from repro.traces.intel_lab import IntelLabConfig, IntelLabGenerator


def build_system(seed=1, name="proxy", **presto):
    config = IntelLabConfig(n_sensors=2, duration_s=3600.0, epoch_s=31.0)
    trace = IntelLabGenerator(config, seed=seed).generate()
    presto = PrestoConfig(
        sample_period_s=31.0, link=LinkConfig(loss_probability=0.0), **presto
    )
    return PrestoSystem(trace, presto, seed=seed, proxy_name=name)


def fit_clock(proxy, local, offset, at=(0.0, 600.0, 1200.0)):
    """Feed exchanges so the fitted frame becomes ``local = true + offset``."""
    name = proxy.sensor_name(local)
    for t in at:
        proxy.sync.record_exchange(name, proxy_time=t, sensor_local_time=t + offset)


#: enough exchanges to push every earlier one out of the sync window
REFIT_AT = tuple(1800.0 + 600.0 * np.arange(40))


def fit_of(estimate):
    return (estimate.rate, estimate.offset)


class TestSummaryCacheFrames:
    """The frame each logged detection carries, and the log's bounds."""

    def test_untouched_sensor_has_no_frames(self):
        system = build_system()
        system.run()  # pushes, predictions and clock exchanges only
        proxy = system.proxy
        assert proxy.cache.size(0) > 0
        assert proxy.sync.estimate_for(proxy.sensor_name(0)) is not None
        assert proxy.detections == {}
        proxy.record_detection(0, raw_timestamp=105.0, value=1.0)
        assert set(proxy.detections) == {0}

    def test_tags_align_with_entries(self):
        proxy = build_system().proxy
        first = proxy.record_detection(0, raw_timestamp=10.0, value=1.0)
        fit_clock(proxy, 0, offset=5.0)
        second = proxy.record_detection(0, raw_timestamp=25.0, value=2.0)
        fit_clock(proxy, 0, offset=-3.0, at=REFIT_AT)
        third = proxy.record_detection(0, raw_timestamp=27.0, value=3.0)
        log = list(proxy.detections[0])
        assert [(raw, value) for raw, value, _ in log] == [
            (10.0, 1.0), (25.0, 2.0), (27.0, 3.0)
        ]
        assert log[0][2] is None
        assert fit_of(log[1][2]) == pytest.approx((1.0, 5.0))
        assert fit_of(log[2][2]) == pytest.approx((1.0, -3.0))
        # the cache holds the same detections at their raw stamps, untagged
        assert proxy.cache.entries_in(0, 0.0, 100.0) == [first, second, third]

    def test_backfill_keeps_alignment(self):
        """A later detection with an earlier stamp keeps its own fit."""
        proxy = build_system().proxy
        cells = [ProxyCell(proxy, 0, sensor_stamped=True)]
        fit_clock(proxy, 0, offset=7.0)
        proxy.record_detection(0, raw_timestamp=37.0, value=1.0)  # true 30
        fit_clock(proxy, 0, offset=3.0, at=REFIT_AT)
        proxy.record_detection(0, raw_timestamp=13.0, value=2.0)  # true 10
        view = ordered_view(cells, 0.0, 100.0)
        assert [(round(t, 6), value) for t, _, value in view] == [
            (10.0, 2.0), (30.0, 1.0)
        ]

    def test_tags_survive_growth_and_eviction(self):
        """The log is bounded like a cache column: the oldest drop first."""
        proxy = build_system(cache_entries_per_sensor=100).proxy
        proxy.record_detection(0, raw_timestamp=0.0, value=0.0)  # before a fit
        fit_clock(proxy, 0, offset=9.0)
        for i in range(1, 120):
            proxy.record_detection(0, raw_timestamp=float(i), value=float(i))
        log = proxy.detections[0]
        assert len(log) == proxy.cache.max_entries_per_sensor == 100
        assert [raw for raw, _, _ in log] == [float(i) for i in range(20, 120)]
        assert all(fit_of(e) == pytest.approx((1.0, 9.0)) for _, _, e in log)
        assert proxy.cache.evictions == 20

    def test_degenerate_frames_rejected(self):
        proxy = build_system().proxy
        name = proxy.sensor_name(0)
        proxy.sync.record_exchange(name, proxy_time=0.0, sensor_local_time=0.0)
        proxy.sync.record_exchange(
            name, proxy_time=600.0, sensor_local_time=float("nan")
        )
        with pytest.raises(ValueError, match="frame"):
            proxy.record_detection(0, raw_timestamp=1.0, value=1.0)
        # nothing was recorded anywhere
        assert proxy.detections == {}
        assert proxy.cache.size(0) == 0


class TestRecordDetection:
    def test_detection_is_tagged_with_current_fit(self):
        system = build_system()
        proxy = system.proxy
        fit_clock(proxy, 0, offset=5.0)
        recorded = proxy.record_detection(0, raw_timestamp=105.0, value=20.0)
        assert recorded.source is EntrySource.PUSHED
        [(raw, value, estimate)] = proxy.detections[0]
        assert (raw, value) == (105.0, 20.0)
        assert fit_of(estimate) == pytest.approx((1.0, 5.0))

    def test_detection_tag_is_the_fit_of_the_exchanges_so_far(self):
        """No read happens between the exchanges, so the fit runs inside
        ``record_detection`` — over exactly the window as it stands then,
        not one exchange short and not including later ones."""
        system = build_system()
        proxy = system.proxy
        name = proxy.sensor_name(0)
        exchanges = [(t, 1.0002 * t + 3.0 + 0.01 * (-1) ** i)
                     for i, t in enumerate(np.arange(0.0, 1500.0, 300.0))]
        for i, (t, local) in enumerate(exchanges):
            proxy.sync.record_exchange(name, proxy_time=t, sensor_local_time=local)
            if i >= 2:
                proxy.record_detection(0, raw_timestamp=local + 1.0, value=float(i))
        tags = [fit_of(estimate) for _, _, estimate in proxy.detections[0]]
        for i, tag in enumerate(tags, start=2):
            seen = np.asarray(exchanges[: i + 1])
            rate, offset = np.polyfit(seen[:, 0], seen[:, 1], deg=1)
            assert tag == (float(rate), float(offset))
        assert len(set(tags)) == len(tags) == 3  # each exchange moved the fit

    def test_pre_sync_detection_untagged(self):
        system = build_system()
        proxy = system.proxy
        proxy.record_detection(0, raw_timestamp=50.0, value=1.0)
        assert list(proxy.detections[0]) == [(50.0, 1.0, None)]

    def test_refit_does_not_move_old_detections(self):
        """The whole point of the frames: a clock re-fit after the detection
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

        # a detection recorded before any fit follows the current one
        proxy.record_detection(1, raw_timestamp=145.0, value=7.0)
        fit_clock(proxy, 1, offset=45.0)
        view = ordered_view(cells, 0.0, 1000.0)
        assert [(round(t), s) for t, s, _ in view] == [(100, 0), (100, 1)]

    def test_window_is_applied_to_the_recorded_correction(self):
        """After a clock jump the window must select by the correction a
        detection was recorded under, not by the current fit's image."""
        proxy = build_system().proxy
        cells = [ProxyCell(proxy, 0, sensor_stamped=True)]
        fit_clock(proxy, 0, offset=5.0)
        proxy.record_detection(0, raw_timestamp=105.0, value=20.0)  # true 100
        fit_clock(proxy, 0, offset=45.0, at=REFIT_AT)
        current = proxy.sync.estimate_for(proxy.sensor_name(0))
        assert fit_of(current) == pytest.approx((1.0, 45.0))
        view = ordered_view(cells, 90.0, 110.0)
        assert [(round(t, 6), s, v) for t, s, v in view] == [(100.0, 0, 20.0)]
        assert ordered_view(cells, 55.0, 65.0) == []

    @settings(max_examples=60, deadline=None)
    @given(
        script=st.lists(
            st.one_of(
                st.tuples(
                    st.just("fit"),
                    st.floats(0.999, 1.001),
                    st.floats(-60.0, 60.0),
                ),
                st.tuples(st.just("detect"), st.floats(0.0, 4000.0)),
            ),
            min_size=1,
            max_size=12,
        ),
        window=st.tuples(st.floats(-100.0, 4100.0), st.floats(-100.0, 4100.0)),
        refit=st.tuples(st.floats(0.999, 1.001), st.floats(-60.0, 60.0)),
    )
    def test_view_holds_each_detection_at_its_record_time_correction(
        self, script, window, refit
    ):
        """Random fits, re-fits, out-of-order detections and windows: a
        detection is in the view iff its record-time correction lies in the
        window, and no later re-fit moves it.  A detection recorded before
        any fit follows the fit current at read time."""
        proxy = build_system().proxy
        name = proxy.sensor_name(0)
        cells = [ProxyCell(proxy, 0, sensor_stamped=True)]
        start, end = sorted(window)
        clock = [0.0]

        def refit_clock(rate, offset):
            for _ in range(3):
                t = clock[0]
                proxy.sync.record_exchange(name, t, rate * t + offset)
                clock[0] += 600.0

        recorded = []  # (raw stamp, record-time correction or None)
        for step in script:
            if step[0] == "fit":
                refit_clock(step[1], step[2])
                continue
            raw = step[1]
            fit = proxy.sync.estimate_for(name)
            at_record = None if fit is None else (raw - fit.offset) / fit.rate
            proxy.record_detection(0, raw_timestamp=raw, value=float(len(recorded)))
            recorded.append((raw, at_record))

        def expected():
            fit = proxy.sync.estimate_for(name)
            rows = []
            for value, (raw, at_record) in enumerate(recorded):
                if at_record is not None:
                    t = at_record
                elif fit is None:
                    t = raw
                else:
                    t = (raw - fit.offset) / fit.rate
                if start <= t <= end:
                    rows.append((t, 0, float(value)))
            return sorted(rows)

        before = ordered_view(cells, start, end)
        assert before == expected()
        refit_clock(*refit)
        after = ordered_view(cells, start, end)
        assert after == expected()

        def fitted(view):
            return [row for row in view if recorded[int(row[2])][1] is not None]

        assert fitted(after) == fitted(before)
