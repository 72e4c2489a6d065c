"""Unit tests for PrestoSensor and PrestoProxy wired through a real network.

These use a miniature two-sensor cell driven by hand (no PrestoSystem) so
each protocol interaction can be asserted in isolation.
"""

import numpy as np
import pytest

from repro.core.cache import PREDICTED_CODE, PUSHED_CODE, EntrySource
from repro.core.config import PrestoConfig
from repro.core.proxy import PrestoProxy
from repro.core.queries import AnswerSource
from repro.core.sensor import PrestoSensor
from repro.energy.constants import MICA2_PROFILE
from repro.energy.duty_cycle import DutyCycleConfig
from repro.energy.meter import EnergyMeter
from repro.radio.link import LinkConfig
from repro.radio.network import Network, NetworkNode
from repro.radio.packet import Packet, PacketKind
from repro.simulation.kernel import Simulator
from repro.storage.archive import SensorArchive
from repro.storage.flash import FlashDevice
from repro.traces.workload import Query, QueryKind


def deliver_batch(proxy, payload):
    """Land a batch as its delivery event does."""
    proxy.on_receive(Packet(PacketKind.BATCH, "sensor0", proxy.name, 0, payload))


@pytest.fixture
def cell():
    """A hand-built two-sensor PRESTO cell with lossless links."""
    config = PrestoConfig(
        sample_period_s=31.0,
        min_training_epochs=64,
        training_epochs=512,
        link=LinkConfig(loss_probability=0.0),
    )
    sim = Simulator()
    proxy_meter = EnergyMeter("proxy")
    network = Network(
        sim,
        config.node_profile.radio,
        config.link,
        DutyCycleConfig(config.default_check_interval_s),
        np.random.default_rng(0),
    )
    proxy = PrestoProxy("proxy", config, sim, network, proxy_meter, n_sensors=2)
    network.register_proxy(NetworkNode("proxy", proxy_meter, proxy.on_receive))
    sensors = []
    for sensor_id in range(2):
        meter = EnergyMeter(f"sensor{sensor_id}")
        node = NetworkNode(f"sensor{sensor_id}", meter)
        mac = network.register_sensor(node)
        flash = FlashDevice(MICA2_PROFILE.flash, meter)
        archive = SensorArchive(flash, segment_readings=32)
        sensor = PrestoSensor(
            sensor_id, f"sensor{sensor_id}", config, network, mac, meter, archive
        )
        node.on_receive = sensor.handle_packet
        sensors.append(sensor)
        proxy.register_sensor(sensor)
    return sim, config, network, proxy, sensors


def feed(sim, sensors, values_by_sensor, start_epoch=0):
    """Feed aligned samples through the cell, epoch by epoch."""
    period = 31.0
    n = len(values_by_sensor[0])
    for i in range(n):
        t = (start_epoch + i) * period
        if sim.now < t:
            sim.run_until(t)
        for sensor, series in zip(sensors, values_by_sensor):
            sensor.on_sample(t, float(series[i]))
    sim.run_until((start_epoch + n) * period + 1.0)


class TestColdStart:
    def test_everything_pushed_before_model(self, cell):
        sim, _, _, proxy, sensors = cell
        values = 20.0 + np.zeros(32)
        feed(sim, sensors, [values, values + 1])
        assert sensors[0].cold_pushes == 32
        assert proxy.cache.size(0) == 32
        for entry in proxy.cache.entries_in(0, 0.0, 1e9):
            assert entry.source is EntrySource.PUSHED

    def test_archive_populated(self, cell):
        sim, _, _, _, sensors = cell
        values = 20.0 + np.zeros(64)
        feed(sim, sensors, [values, values])
        assert sensors[0].archive.readings_archived >= 32


class TestModelLifecycle:
    def test_refit_ships_and_activates(self, cell):
        sim, config, _, proxy, sensors = cell
        rng = np.random.default_rng(1)
        values = 20.0 + np.cumsum(rng.normal(0, 0.05, 100))
        feed(sim, sensors, [values, values])
        assert proxy.refit_sensor(0)
        # keep sampling past the activation epoch
        more = values[-1] + np.cumsum(rng.normal(0, 0.05, 40))
        feed(sim, sensors, [more, more], start_epoch=100)
        assert sensors[0].checker is not None
        # proxy-side activation is lazy: it happens at the next query/advance
        proxy.advance_to_now(0)
        assert proxy._states[0].tracker is not None
        # the silent epochs since activation were substituted into the cache
        assert proxy._states[0].last_epoch >= 130

    def test_pushes_suppressed_after_model(self, cell):
        sim, config, network, proxy, sensors = cell
        rng = np.random.default_rng(2)
        values = 20.0 + np.cumsum(rng.normal(0, 0.02, 100))
        feed(sim, sensors, [values, values])
        proxy.refit_sensor(0)
        proxy.refit_sensor(1)
        before = sensors[0].pushes_sent + sensors[0].cold_pushes
        more = values[-1] + np.cumsum(rng.normal(0, 0.02, 100))
        feed(sim, sensors, [more, more], start_epoch=100)
        after_cold = sensors[0].cold_pushes
        # after activation (epoch 120), drift of 0.02/step never crosses
        # delta=1.0, so pushes nearly stop
        assert sensors[0].pushes_sent <= 3
        assert after_cold <= before + 25  # only pre-activation epochs pushed

    def test_rare_event_detected_end_to_end(self, cell):
        sim, _, _, proxy, sensors = cell
        rng = np.random.default_rng(3)
        values = 20.0 + np.cumsum(rng.normal(0, 0.02, 100))
        feed(sim, sensors, [values, values])
        proxy.refit_sensor(0)
        steady = np.full(40, values[-1])
        feed(sim, sensors, [steady, steady], start_epoch=100)
        # inject an event: +6 degrees
        event_epoch = 140
        event_value = values[-1] + 6.0
        feed(sim, sensors, [[event_value], [values[-1]]], start_epoch=event_epoch)
        entry = proxy.cache.entry_at(0, event_epoch * 31.0, tolerance_s=16.0)
        assert entry is not None
        assert entry.code == PUSHED_CODE
        assert entry.value == pytest.approx(event_value)


class TestQueryPaths:
    def test_now_query_from_cache(self, cell):
        sim, _, _, proxy, sensors = cell
        values = np.linspace(20, 21, 32)
        feed(sim, sensors, [values, values])
        query = Query(0, QueryKind.NOW, 0, sim.now, sim.now, precision=0.5)
        answer = proxy.process_query(query, query.sensor)
        assert answer.source in (AnswerSource.CACHE, AnswerSource.PREDICTION)
        assert answer.value == pytest.approx(values[-1], abs=0.5)
        assert answer.latency_s < 1.0

    def test_past_point_from_cache(self, cell):
        sim, _, _, proxy, sensors = cell
        values = np.linspace(20, 21, 32)
        feed(sim, sensors, [values, values])
        target = 10 * 31.0
        query = Query(1, QueryKind.PAST_POINT, 0, sim.now, target, precision=0.5)
        answer = proxy.process_query(query, query.sensor)
        assert answer.value == pytest.approx(values[10], abs=0.2)

    def test_past_point_pull_on_miss(self, cell):
        """History evicted from cache must be pulled from the archive."""
        sim, _, _, proxy, sensors = cell
        values = np.linspace(20, 24, 64)
        feed(sim, sensors, [values, values])
        # wipe the proxy cache to force a miss
        proxy.cache = type(proxy.cache)(proxy.cache.max_entries_per_sensor)
        target = 10 * 31.0
        query = Query(
            2, QueryKind.PAST_POINT, 0, sim.now, target, precision=0.3
        )
        answer = proxy.process_query(query, query.sensor)
        assert answer.source is AnswerSource.SENSOR_PULL
        assert answer.value == pytest.approx(values[10], abs=0.3)
        assert answer.sensor_energy_j > 0
        assert proxy.pull_stats.requests == 1

    def test_past_range_aggregate(self, cell):
        sim, _, _, proxy, sensors = cell
        values = np.linspace(20, 22, 64)
        feed(sim, sensors, [values, values])
        query = Query(
            3,
            QueryKind.PAST_AGG,
            0,
            sim.now,
            0.0,
            window_s=63 * 31.0,
            precision=0.5,
            aggregate="mean",
        )
        answer = proxy.process_query(query, query.sensor)
        assert answer.value == pytest.approx(float(np.mean(values)), abs=0.3)

    def test_pull_refines_cache(self, cell):
        sim, _, _, proxy, sensors = cell
        values = np.linspace(20, 24, 64)
        feed(sim, sensors, [values, values])
        proxy.cache = type(proxy.cache)(proxy.cache.max_entries_per_sensor)
        target = 10 * 31.0
        proxy.process_query(
            Query(4, QueryKind.PAST_POINT, 0, sim.now, target, precision=0.3), 0
        )
        # second identical query is now a cache hit — no new pull
        pulls_before = proxy.pull_stats.requests
        answer = proxy.process_query(
            Query(5, QueryKind.PAST_POINT, 0, sim.now, target, precision=0.3), 0
        )
        assert proxy.pull_stats.requests == pulls_before
        assert answer.source is AnswerSource.CACHE


class TestOperatingPointControl:
    def test_retune_changes_mac_and_checker(self, cell):
        sim, config, network, proxy, sensors = cell
        values = 20.0 + np.zeros(32)
        feed(sim, sensors, [values, values])
        for _ in range(3):
            proxy.matcher.observe_query(
                Query(9, QueryKind.NOW, 0, sim.now, sim.now,
                      precision=0.4, latency_bound_s=240.0)
            )
        point = proxy.retune_sensor(0)
        assert point is not None
        assert network.mac_for("sensor0").duty_cycle.check_interval_s == \
            point.check_interval_s

    def test_retune_skipped_when_unchanged(self, cell):
        sim, config, network, proxy, sensors = cell
        values = 20.0 + np.zeros(16)
        feed(sim, sensors, [values, values])
        proxy.matcher.observe_query(
            Query(9, QueryKind.NOW, 0, sim.now, sim.now,
                  precision=0.4, latency_bound_s=240.0)
        )
        first = proxy.retune_sensor(0)
        second = proxy.retune_sensor(0)
        assert first is not None
        assert second is None  # identical point not re-shipped


class TestBatchingMode:
    def test_batch_delivery_populates_cache(self, cell):
        from repro.core.matching import SensorOperatingPoint

        sim, config, _, proxy, sensors = cell
        point = SensorOperatingPoint(
            check_interval_s=1.0,
            push_delta=1.0,
            batch_interval_s=8 * 31.0,
            quant_step=0.05,
        )
        sensors[0].apply_operating_point(point)
        values = 20.0 + 0.01 * np.arange(32)
        feed(sim, sensors, [values, values])
        sensors[0].flush_batch()
        sim.run_until(sim.now + 5.0)
        assert sensors[0].batches_sent >= 3
        assert proxy.cache.size(0) >= 24
        entry = proxy.cache.entry_at(0, 31.0 * 5, tolerance_s=16.0)
        assert entry is not None
        assert entry.value == pytest.approx(values[5], abs=0.2)


class TestBatchTrackerSync:
    """A batch must advance the model tracker in lockstep with last_epoch."""

    def _activate(self, cell, seed=5):
        sim, config, _, proxy, sensors = cell
        rng = np.random.default_rng(seed)
        values = 20.0 + np.cumsum(rng.normal(0, 0.05, 100))
        feed(sim, sensors, [values, values])
        assert proxy.refit_sensor(0)
        more = values[-1] + np.cumsum(rng.normal(0, 0.05, 40))
        feed(sim, sensors, [more, more], start_epoch=100)
        proxy.advance_to_now(0)
        state = proxy._states[0]
        assert state.tracker is not None
        return sim, proxy, state

    def test_batch_applies_pushes_to_tracker(self, cell):
        sim, proxy, state = self._activate(cell)
        base = state.last_epoch
        applied = state.tracker.pushes_applied
        substituted = state.tracker.substitutions
        epochs = [base + 1, base + 2, base + 3]
        deliver_batch(
            proxy,
            {
                "sensor": 0,
                "timestamps": np.asarray([e * 31.0 for e in epochs]),
                "values": np.asarray([21.0, 21.1, 21.2]),
                "quant_step": 0.05,
            }
        )
        # last_epoch and the tracker moved together: one apply per epoch,
        # no phantom gap (the pre-fix code jumped last_epoch and left the
        # tracker's stream state behind).
        assert state.last_epoch == base + 3
        assert state.tracker.pushes_applied == applied + 3
        assert state.tracker.substitutions == substituted
        for e in epochs:
            entry = proxy.cache.entry_at(0, e * 31.0, tolerance_s=1.0)
            assert entry is not None
            assert entry.code == PUSHED_CODE

    def test_batch_gap_substitutes_silent_epochs(self, cell):
        sim, proxy, state = self._activate(cell, seed=6)
        base = state.last_epoch
        applied = state.tracker.pushes_applied
        substituted = state.tracker.substitutions
        epochs = [base + 2, base + 5]  # epochs +1, +3, +4 are silent
        deliver_batch(
            proxy,
            {
                "sensor": 0,
                "timestamps": np.asarray([e * 31.0 for e in epochs]),
                "values": np.asarray([21.0, 21.3]),
                "quant_step": 0.05,
            }
        )
        assert state.last_epoch == base + 5
        assert state.tracker.pushes_applied == applied + 2
        assert state.tracker.substitutions == substituted + 3
        # silent epochs were substituted into the cache as predictions
        gap_entry = proxy.cache.entry_at(0, (base + 3) * 31.0, tolerance_s=1.0)
        assert gap_entry is not None
        assert gap_entry.code == PREDICTED_CODE

    def test_armed_continuous_queries_see_time_order(self, cell):
        from repro.core.continuous import ContinuousQuery, TriggerKind

        sim, proxy, state = self._activate(cell, seed=10)
        proxy.continuous.register(
            ContinuousQuery(sensor=0, kind=TriggerKind.DELTA, threshold=1e-6)
        )
        base = state.last_epoch
        epochs = [base + 2, base + 5]  # epochs +1, +3, +4 are substituted
        deliver_batch(
            proxy,
            {
                "sensor": 0,
                "timestamps": np.asarray([e * 31.0 for e in epochs]),
                "values": np.asarray([25.0, 27.0]),
                "quant_step": 0.05,
            }
        )
        fired = [
            n.timestamp
            for n in proxy.continuous.notifications
            if n.timestamp > base * 31.0
        ]
        # substitutions and batched pushes reached the engine interleaved
        # in time order, not predictions-first
        assert fired == sorted(fired)
        assert (base + 2) * 31.0 in fired and (base + 5) * 31.0 in fired

    def test_stale_batch_does_not_rewind_tracker(self, cell):
        sim, proxy, state = self._activate(cell, seed=7)
        base = state.last_epoch
        applied = state.tracker.pushes_applied
        deliver_batch(
            proxy,
            {
                "sensor": 0,
                "timestamps": np.asarray([(base - 2) * 31.0, (base - 1) * 31.0]),
                "values": np.asarray([20.0, 20.1]),
                "quant_step": 0.05,
            }
        )
        assert state.last_epoch == base
        assert state.tracker.pushes_applied == applied


class TestPullPastEmptyWindow:
    """An archive reply with no timestamps inside the window must degrade."""

    def test_aged_reply_outside_window_degrades(self, cell):
        sim, config, _, proxy, sensors = cell
        rng = np.random.default_rng(8)
        values = 20.0 + np.cumsum(rng.normal(0, 0.05, 40))
        feed(sim, sensors, [values, values])
        # Coarsened archive retains only timestamps outside the window.
        sensors[0].serve_pull = lambda start, end: (
            np.asarray([1.0e7]),
            np.asarray([21.0]),
            2,
            8,
        )
        failures_before = proxy.pull_stats.failures
        # Window reaches past cached history: coverage < 0.9 forces a pull.
        query = Query(
            11,
            QueryKind.PAST_AGG,
            0,
            sim.now,
            38 * 31.0,
            window_s=10 * 31.0,
            precision=0.5,
        )
        answer = proxy.process_query(query, query.sensor)
        assert proxy.pull_stats.failures == failures_before + 1
        assert answer.source is AnswerSource.FAILED
        assert answer.value is None

    def test_partial_overlap_still_aggregates(self, cell):
        sim, config, _, proxy, sensors = cell
        rng = np.random.default_rng(9)
        values = 20.0 + np.cumsum(rng.normal(0, 0.05, 40))
        feed(sim, sensors, [values, values])
        window_start = 38 * 31.0
        sensors[0].serve_pull = lambda start, end: (   # in time order, as archived
            np.asarray([window_start + 31.0, 1.0e7]),
            np.asarray([21.5, 99.0]),
            1,
            16,
        )
        query = Query(
            12,
            QueryKind.PAST_AGG,
            0,
            sim.now,
            window_start,
            window_s=10 * 31.0,
            precision=0.5,
        )
        answer = proxy.process_query(query, query.sensor)
        assert answer.source is AnswerSource.SENSOR_PULL
        assert answer.value == pytest.approx(21.5)


class TestMissedSampleAccounting:
    """Sensing dropout must cost the model-check CPU energy, not be free."""

    def _activate_model(self, cell):
        sim, _, _, proxy, sensors = cell
        rng = np.random.default_rng(9)
        values = 20.0 + np.cumsum(rng.normal(0, 0.02, 100))
        feed(sim, sensors, [values, values])
        proxy.refit_sensor(0)
        more = values[-1] + np.cumsum(rng.normal(0, 0.02, 40))
        feed(sim, sensors, [more, more], start_epoch=100)
        assert sensors[0].checker is not None
        return sensors[0]

    def test_missed_sample_charges_model_check_energy(self, cell):
        sensor = self._activate_model(cell)
        before = sensor.meter.snapshot().by_category.get("cpu.model_check", 0.0)
        checks_before = sensor.checker.checks
        epoch_before = sensor.epoch
        sensor.on_missed_sample()
        after = sensor.meter.snapshot().by_category.get("cpu.model_check", 0.0)
        assert after > before
        assert sensor.checker.checks == checks_before + 1
        assert sensor.epoch == epoch_before + 1

    def test_missed_sample_free_before_model(self, cell):
        _, _, _, _, sensors = cell
        sensor = sensors[0]
        assert sensor.checker is None
        before = sensor.meter.total_j
        sensor.on_missed_sample()
        # no model replica to advance yet: no check happens, none is charged
        assert sensor.meter.total_j == before
        assert sensor.epoch == 0

    def test_missed_sample_matches_check_cost_of_a_reading(self, cell):
        """The silent advance runs the same model arithmetic as verifying a
        reading, so one dropout charges exactly one model-check quantum."""
        sensor = self._activate_model(cell)
        base = sensor.meter.snapshot().by_category["cpu.model_check"]
        sensor.on_missed_sample()
        dropout_cost = (
            sensor.meter.snapshot().by_category["cpu.model_check"] - base
        )
        t = (sensor.epoch + 1) * 31.0
        sensor.on_sample(t, 20.0)
        check_cost = (
            sensor.meter.snapshot().by_category["cpu.model_check"]
            - base
            - dropout_cost
        )
        assert dropout_cost == pytest.approx(check_cost)
