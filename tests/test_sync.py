"""Unit tests for clock models and time synchronisation."""

import numpy as np
import pytest

from repro.core import PrestoConfig, PrestoSystem
from repro.sync.clock import ClockModel, DriftingClock
from repro.sync.protocol import SyncEstimate, TimeSyncProtocol


class TestDriftingClock:
    def test_read_reflects_offset_and_skew(self, rng):
        clock = DriftingClock(ClockModel(offset_std_s=1.0, skew_ppm_std=100.0), rng)
        local = clock.read(1000.0)
        expected = clock.offset_s + (1.0 + clock.skew) * 1000.0
        assert local == pytest.approx(expected)

    def test_invert_is_exact(self, rng):
        clock = DriftingClock(ClockModel(), rng)
        for t in (0.0, 123.4, 86_400.0):
            assert clock.invert(clock.read(t)) == pytest.approx(t, abs=1e-9)

    def test_skew_accumulates_over_a_day(self, rng):
        clock = DriftingClock(ClockModel(skew_ppm_std=40.0), rng)
        drift = abs(clock.read(86_400.0) - clock.offset_s - 86_400.0)
        assert drift == pytest.approx(abs(clock.skew) * 86_400.0, rel=1e-6)

    def test_population_spread(self):
        rng = np.random.default_rng(0)
        skews = [DriftingClock(ClockModel(), rng).skew for _ in range(200)]
        assert np.std(skews) == pytest.approx(40e-6, rel=0.25)


class TestTimeSyncProtocol:
    def test_two_exchanges_recover_offset_and_skew(self, rng):
        clock = DriftingClock(ClockModel(), rng)
        sync = TimeSyncProtocol()
        for t in (0.0, 3600.0):
            sync.record_exchange("s0", t, clock.read(t))
        estimate = sync.estimate_for("s0")
        assert estimate is not None
        assert estimate.rate == pytest.approx(1.0 + clock.skew, abs=1e-9)
        assert estimate.offset == pytest.approx(clock.offset_s, abs=1e-6)

    def test_correction_accuracy_far_from_exchanges(self, rng):
        clock = DriftingClock(ClockModel(), rng)
        sync = TimeSyncProtocol()
        for t in (0.0, 1800.0, 3600.0):
            sync.record_exchange("s0", t, clock.read(t))
        future = 86_400.0
        corrected = sync.correct("s0", clock.read(future))
        assert corrected == pytest.approx(future, abs=1e-3)

    def test_identity_before_estimate(self):
        sync = TimeSyncProtocol()
        assert sync.correct("s0", 42.0) == 42.0
        sync.record_exchange("s0", 0.0, 0.5)
        assert sync.estimate_for("s0") is None  # single sample: no fit

    def test_no_fit_on_zero_span(self):
        sync = TimeSyncProtocol()
        sync.record_exchange("s0", 10.0, 10.2)
        sync.record_exchange("s0", 10.0, 10.2)
        assert sync.estimate_for("s0") is None

    def test_window_bounds_memory(self):
        sync = TimeSyncProtocol(window=4)
        for t in range(10):
            sync.record_exchange("s0", float(t), float(t) + 0.1)
        assert len(sync._samples["s0"]) == 4

    def test_per_sensor_isolation(self, rng):
        clock_a = DriftingClock(ClockModel(), rng, "a")
        clock_b = DriftingClock(ClockModel(), rng, "b")
        sync = TimeSyncProtocol()
        for t in (0.0, 600.0):
            sync.record_exchange("a", t, clock_a.read(t))
            sync.record_exchange("b", t, clock_b.read(t))
        assert sync.correct("a", clock_a.read(5000.0)) == pytest.approx(5000.0, abs=1e-3)
        assert sync.correct("b", clock_b.read(5000.0)) == pytest.approx(5000.0, abs=1e-3)

    def test_residual_reflects_jitter(self, rng):
        clock = DriftingClock(ClockModel(), rng)
        sync = TimeSyncProtocol()
        jitter = rng.normal(0.0, 0.01, 8)
        for i, t in enumerate(np.linspace(0, 3600, 8)):
            sync.record_exchange("s0", float(t), clock.read(float(t)) + jitter[i])
        assert 0.0 < sync.max_residual_s() < 0.05

    def test_min_samples_validation(self):
        with pytest.raises(ValueError):
            TimeSyncProtocol(min_samples=1)

    def test_window_smaller_than_min_samples_rejected(self):
        with pytest.raises(ValueError, match="window"):
            TimeSyncProtocol(min_samples=4, window=3)
        TimeSyncProtocol(min_samples=4, window=4)  # boundary is fittable

    def test_ordering_corrected_across_sensors(self, rng):
        """Two events 5 s apart must order correctly after correction even
        when raw local stamps disagree — the paper's temporal consistency."""
        model = ClockModel(offset_std_s=5.0, skew_ppm_std=100.0)
        clock_a = DriftingClock(model, rng, "a")
        clock_b = DriftingClock(model, rng, "b")
        sync = TimeSyncProtocol()
        for t in (0.0, 1200.0, 2400.0):
            sync.record_exchange("a", t, clock_a.read(t))
            sync.record_exchange("b", t, clock_b.read(t))
        event_a = 3000.0       # happens first, seen by a
        event_b = 3005.0       # happens 5 s later, seen by b
        raw_a = clock_a.read(event_a)
        raw_b = clock_b.read(event_b)
        corrected_a = sync.correct("a", raw_a)
        corrected_b = sync.correct("b", raw_b)
        assert corrected_a < corrected_b


class EagerReference:
    """The fit-on-every-exchange protocol the lazy one must reproduce."""

    def __init__(self, min_samples=2, window=32):
        self.min_samples = min_samples
        self.window = window
        self.samples = {}
        self.estimates = {}

    def record_exchange(self, sensor, proxy_time, sensor_local_time):
        bucket = self.samples.setdefault(sensor, [])
        bucket.append((float(proxy_time), float(sensor_local_time)))
        if len(bucket) > self.window:
            del bucket[0]
        if len(bucket) < self.min_samples:
            return
        pairs = np.asarray(bucket, dtype=np.float64)
        proxy_times, local_times = pairs[:, 0], pairs[:, 1]
        if np.ptp(proxy_times) <= 0:
            return
        rate, offset = np.polyfit(proxy_times, local_times, deg=1)
        residual = float(np.std(local_times - (rate * proxy_times + offset)))
        self.estimates[sensor] = SyncEstimate(
            float(rate), float(offset), int(pairs.shape[0]), residual
        )

    def estimate_for(self, sensor):
        return self.estimates.get(sensor)

    def correct(self, sensor, local_time):
        estimate = self.estimates.get(sensor)
        return local_time if estimate is None else estimate.correct(local_time)

    def project(self, sensor, proxy_time):
        estimate = self.estimates.get(sensor)
        return proxy_time if estimate is None else estimate.project(proxy_time)

    def max_residual_s(self):
        return max((e.residual_std_s for e in self.estimates.values()), default=0.0)


def count_fits(monkeypatch):
    """Patch ``TimeSyncProtocol._fit`` to count its calls; returns the list."""
    calls = []
    fit = TimeSyncProtocol._fit

    def counting_fit(self, sensor):
        calls.append(sensor)
        fit(self, sensor)

    monkeypatch.setattr(TimeSyncProtocol, "_fit", counting_fit)
    return calls


class TestLazyFitEquivalence:
    """Reads see exactly (``==``) what a fit after every exchange produced."""

    SENSORS = ("s0", "s1", "s2")

    @staticmethod
    def assert_same_read(lazy, eager, sensor, probe):
        # SyncEstimate equality is exact on rate, offset, n_samples, residual_std_s
        assert lazy.estimate_for(sensor) == eager.estimate_for(sensor)
        assert lazy.correct(sensor, probe) == eager.correct(sensor, probe)
        assert lazy.project(sensor, probe) == eager.project(sensor, probe)

    @pytest.mark.parametrize("seed", range(12))
    def test_random_sequences_with_interleaved_reads(self, seed):
        rng = np.random.default_rng(seed)
        min_samples, window = ((2, 32), (2, 2), (3, 4), (2, 5), (4, 32), (3, 3))[seed % 6]
        lazy = TimeSyncProtocol(min_samples=min_samples, window=window)
        eager = EagerReference(min_samples=min_samples, window=window)
        clock = {s: (1.0 + rng.normal(0.0, 1e-4), rng.normal(0.0, 2.0)) for s in self.SENSORS}
        now = dict.fromkeys(self.SENSORS, 0.0)
        stuck = dict.fromkeys(self.SENSORS, 0)  # remaining repeats of `now`
        for _ in range(400):
            sensor = self.SENSORS[rng.integers(len(self.SENSORS))]
            if stuck[sensor]:
                stuck[sensor] -= 1
            elif rng.random() < 0.08:
                # a run of repeated proxy times, sometimes long enough to
                # fill the whole window (fully degenerate: keep the old fit)
                stuck[sensor] = int(rng.integers(1, 2 * window))
            else:
                now[sensor] += float(rng.uniform(1.0, 900.0))
            rate, offset = clock[sensor]
            local = rate * now[sensor] + offset + rng.normal(0.0, 0.01)
            lazy.record_exchange(sensor, now[sensor], local)
            eager.record_exchange(sensor, now[sensor], local)
            if rng.random() < 0.15:
                reader = self.SENSORS[rng.integers(len(self.SENSORS))]
                self.assert_same_read(lazy, eager, reader, float(rng.uniform(0.0, 1e5)))
            if rng.random() < 0.03:
                assert lazy.max_residual_s() == eager.max_residual_s()
        for sensor in self.SENSORS:
            self.assert_same_read(lazy, eager, sensor, 12345.678)
        assert lazy.max_residual_s() == eager.max_residual_s()

    def test_degenerate_window_keeps_the_unflushed_fit(self):
        """A window that rolls over to one repeated proxy time keeps the fit
        of the window as it stood before — even if nobody had read it yet."""
        lazy = TimeSyncProtocol(window=2)
        eager = EagerReference(window=2)
        for t, local in ((0.0, 1.0), (10.0, 11.5), (10.0, 11.7), (10.0, 11.6)):
            lazy.record_exchange("s0", t, local)
            eager.record_exchange("s0", t, local)
        assert eager.estimate_for("s0").rate == pytest.approx(1.05)  # fit of the first two
        self.assert_same_read(lazy, eager, "s0", 50.0)

    def test_exchanges_alone_never_fit(self, monkeypatch):
        calls = count_fits(monkeypatch)
        sync = TimeSyncProtocol()
        for t in range(100):
            sync.record_exchange("s0", float(t), float(t) + 0.25)
        assert calls == []
        assert sync.correct("s0", 50.25) == pytest.approx(50.0)
        sync.project("s0", 50.0)
        sync.estimate_for("s0")
        assert calls == ["s0"]  # one fit serves every read until the next exchange

    def test_system_run_without_reads_never_fits(self, small_trace, monkeypatch):
        calls = count_fits(monkeypatch)
        eager = EagerReference()
        record = TimeSyncProtocol.record_exchange

        def mirrored_record(self, sensor, proxy_time, sensor_local_time):
            eager.record_exchange(sensor, proxy_time, sensor_local_time)
            record(self, sensor, proxy_time, sensor_local_time)

        monkeypatch.setattr(TimeSyncProtocol, "record_exchange", mirrored_record)
        system = PrestoSystem(
            small_trace,
            PrestoConfig(sample_period_s=31.0, min_training_epochs=128),
            seed=6,
            clock_model=ClockModel(offset_std_s=2.0, skew_ppm_std=100.0),
        )
        system.run()
        assert calls == []
        assert eager.estimates, "the run pushed nothing: the test checks nothing"
        for sensor in system.sensors:
            assert system.proxy.sync.estimate_for(sensor.name) == eager.estimate_for(
                sensor.name
            )
