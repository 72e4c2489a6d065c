"""The proxy's batched catch-up against the per-entry loop it replaced.

``PrestoProxy._advance_tracker`` advances a sensor's model tracker over a
whole silent run and lands the run in the cache as one batch.  The
reference below is the sequence it replaced — one ``CacheEntry`` →
``SummaryCache.insert`` → ``ContinuousQueryEngine.on_entry`` per silent
epoch.  One seeded cell (drifting clocks, lossy link, a small cache) is
driven twice, once each way, through the cases where a careless batch
diverges: a pulled actual sitting at a future epoch, runs that overflow the
cache, mote-stamped detections among compacted columns, and an armed
standing query.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.core.cache import PULLED_CODE, CacheEntry, EntrySource, SummaryCache
from repro.core.config import PrestoConfig
from repro.core.continuous import ContinuousQuery, TriggerKind
from repro.core.proxy import PrestoProxy
from repro.core.system import PrestoSystem
from repro.sync.clock import ClockModel
from repro.traces.intel_lab import IntelLabConfig, IntelLabGenerator
from repro.traces.workload import QueryWorkloadConfig, QueryWorkloadGenerator

N_SENSORS = 3
UNARMED, ARMED = 0, 2       # sensor 1 is left entirely to the query stream
CACHE_ENTRIES = 300
HORIZON_S = 0.6 * 86_400.0


def per_entry_advance(self, sensor, state, upto_epoch):
    """``_advance_tracker`` as it was: one cache insert per silent epoch."""
    if state.tracker is None:
        return
    std = max(state.tracker.predicted_std(), state.tracker.delta / np.sqrt(3.0))
    while state.last_epoch < upto_epoch:
        state.last_epoch += 1
        predicted = state.tracker.advance_silent()
        self._insert_entry(
            sensor,
            CacheEntry(
                timestamp=self.epoch_time(state.last_epoch),
                value=predicted,
                std=max(std, 1e-6),
                source=EntrySource.PREDICTED,
            ),
        )


class WriteCounter:
    """Counts a cache's write calls and the longest batch it was handed."""

    def __init__(self, cache: SummaryCache) -> None:
        self.calls = 0
        self.longest_batch = 0
        insert, insert_batch = cache.insert, cache.insert_batch

        def counted_insert(*args, **kwargs):
            self.calls += 1
            return insert(*args, **kwargs)

        def counted_batch(sensor, timestamps, *args, **kwargs):
            self.calls += 1
            self.longest_batch = max(self.longest_batch, len(timestamps))
            return insert_batch(sensor, timestamps, *args, **kwargs)

        cache.insert, cache.insert_batch = counted_insert, counted_batch


class Drive:
    """One run of the scripted cell and everything observed about it."""

    def __init__(self, seed: int) -> None:
        trace = IntelLabGenerator(
            IntelLabConfig(n_sensors=N_SENSORS, duration_s=HORIZON_S, epoch_s=31.0),
            seed=seed,
        ).generate()
        config = PrestoConfig(
            sample_period_s=31.0, cache_entries_per_sensor=CACHE_ENTRIES
        )
        self.system = PrestoSystem(trace, config, seed=seed, clock_model=ClockModel())
        self.proxy = self.system.proxy
        self.writes = WriteCounter(self.proxy.cache)
        self.future_actuals: list[tuple[float, float]] = []
        self.proxy.continuous.register(
            ContinuousQuery(
                sensor=ARMED, kind=TriggerKind.ABOVE, threshold=-1e9, query_id=7
            )
        )
        rng = np.random.default_rng(seed + 1)
        queries = QueryWorkloadGenerator(
            N_SENSORS,
            QueryWorkloadConfig(arrival_rate_per_s=1.0 / 400.0, zipf_exponent=0.2),
            rng,
        ).generate(0.0, HORIZON_S)
        sim = self.system.sim
        for at in rng.uniform(9_000.0, HORIZON_S, size=40):
            sim.schedule(float(at), self.record_detection)
        for at in rng.uniform(12_000.0, HORIZON_S - 2_000.0, size=6):
            sim.schedule(float(at), self.backfill_future_actual)
        self.report = self.system.run(queries=queries)

    def record_detection(self) -> None:
        """A mote-stamped detection, logged with the sync fit in effect."""
        now = self.system.sim.now
        local = self.system.sensors[UNARMED].clock.read(now)
        self.proxy.record_detection(UNARMED, raw_timestamp=local, value=now % 7.0)

    def backfill_future_actual(self) -> None:
        """A pulled actual lands three epochs ahead of the tracker."""
        state = self.proxy._states[UNARMED]
        if state.tracker is None:
            return
        timestamp = self.proxy.epoch_time(state.last_epoch + 3)
        value = 40.0 + len(self.future_actuals)
        self.future_actuals.append((timestamp, value))
        self.proxy._insert_entry(
            UNARMED,
            CacheEntry(timestamp=timestamp, value=value, std=0.0, source=EntrySource.PULLED),
        )

    def columns(self, sensor: int):
        return self.proxy.cache.arrays_in(sensor, -1.0, 1e12)

    def detections(self, sensor: int):
        return list(self.proxy.detections.get(sensor, ()))


@pytest.fixture(scope="module")
def drives():
    batched = Drive(seed=5)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(PrestoProxy, "_advance_tracker", per_entry_advance)
        reference = Drive(seed=5)
    return batched, reference


def test_cache_columns_and_counters_match(drives):
    batched, reference = drives
    for sensor in range(N_SENSORS):
        for ours, theirs in zip(batched.columns(sensor), reference.columns(sensor)):
            np.testing.assert_array_equal(ours, theirs)
    for counter in ("insertions", "refinements", "evictions"):
        assert getattr(batched.proxy.cache, counter) == getattr(
            reference.proxy.cache, counter
        )
    assert batched.report.summary() == reference.report.summary()
    # the script reached the regime it is about: full columns, every run
    # evicting, and at least one run longer than a handful of epochs
    assert batched.proxy.cache.evictions > 1000
    assert batched.proxy.cache.size(UNARMED) == CACHE_ENTRIES
    assert batched.writes.longest_batch >= 20


def test_silent_runs_land_as_one_write(drives):
    batched, reference = drives
    substitutions = sum(
        state.tracker.substitutions for state in batched.proxy._states.values()
    )
    assert substitutions > 500
    assert batched.writes.calls < reference.writes.calls - substitutions // 2


def test_trackers_and_answers_match(drives):
    batched, reference = drives
    for sensor in range(N_SENSORS):
        ours, theirs = batched.proxy._states[sensor], reference.proxy._states[sensor]
        assert ours.last_epoch == theirs.last_epoch
        assert ours.push_losses_detected == theirs.push_losses_detected
        assert pickle.dumps(ours.tracker._model) == pickle.dumps(theirs.tracker._model)
    assert [(a.value, a.source) for a in batched.report.answers] == [
        (a.value, a.source) for a in reference.report.answers
    ]


def test_standing_query_bookkeeping_matches(drives):
    """Unarmed sensors: latest timestamp/value and the stale count are what
    per-entry evaluation would have left — a prediction at or before the
    latest timestamp is stale, not a refinement."""
    ours, theirs = drives[0].proxy.continuous, drives[1].proxy.continuous
    assert ours._latest_ts == theirs._latest_ts
    assert ours._last_value == theirs._last_value
    assert ours.stale_entries_skipped == theirs.stale_entries_skipped
    assert ours.evaluations == theirs.evaluations
    # every backfilled future actual staled the predictions up to its epoch
    assert ours.stale_entries_skipped >= 3 * len(drives[0].future_actuals) > 0


def test_prediction_never_overwrites_a_future_actual(drives):
    batched, _ = drives
    assert batched.future_actuals
    oldest_kept = batched.columns(UNARMED)[0][0]
    checked = 0
    for timestamp, value in batched.future_actuals:
        if timestamp < oldest_kept:
            continue  # long since evicted
        entry = batched.proxy.cache.entry_at(UNARMED, timestamp, tolerance_s=0.0)
        assert (entry.value, entry.code) == (value, PULLED_CODE)
        checked += 1
    assert checked
    # and the tracker did run past them
    assert batched.proxy._states[UNARMED].last_epoch * 31.0 > batched.future_actuals[-1][0]


def test_frame_tags_survive_compaction(drives):
    batched, reference = drives
    ours, theirs = batched.detections(UNARMED), reference.detections(UNARMED)
    assert ours == theirs
    # every scheduled detection is logged, each under a fitted clock
    assert len(ours) == 40
    assert all(estimate is not None for _, _, estimate in ours)
    assert batched.detections(ARMED) == []
    # every off-grid cache row is a logged detection; the oldest were evicted
    times, values, _, codes = batched.columns(UNARMED)
    off_grid = np.abs(times / 31.0 - np.rint(times / 31.0)) > 1e-6
    logged = {(raw, value) for raw, value, _ in ours}
    kept = set(zip(times[off_grid], values[off_grid]))
    assert kept and kept < logged
    assert (codes[off_grid] != 1).all()
    # the column has wrapped its physical array many times over
    column = batched.proxy.cache._columns[UNARMED]
    assert batched.proxy.cache.evictions > 4 * column.times.size


def test_armed_sensor_is_notified_once_per_entry_in_time_order(drives):
    batched, reference = drives
    ours = batched.proxy.continuous.notifications
    assert ours == reference.proxy.continuous.notifications
    predicted = [n.timestamp for n in ours if not n.from_actual]
    assert all(n.sensor == ARMED for n in ours)
    assert predicted == sorted(set(predicted))
    assert len(predicted) == batched.proxy._states[ARMED].tracker.substitutions > 100


def test_unarmed_run_is_one_insert_batch_call():
    """Direct check of the shape: one silent run, one ``insert_batch``."""
    system = PrestoSystem(
        IntelLabGenerator(
            IntelLabConfig(n_sensors=1, duration_s=40_000.0, epoch_s=31.0), seed=2
        ).generate(),
        PrestoConfig(sample_period_s=31.0),
        seed=2,
    )
    system.run(duration_s=20_000.0)
    proxy = system.proxy
    state = proxy._states[0]
    assert state.tracker is not None
    writes = WriteCounter(proxy.cache)
    target = proxy.current_epoch() + 50
    behind = target - state.last_epoch
    proxy._advance_tracker(0, state, target)
    assert (writes.calls, writes.longest_batch) == (1, behind)
    assert state.last_epoch == target
    proxy._advance_tracker(0, state, target)  # nothing left: no write at all
    assert writes.calls == 1
