"""The proxy's run writes against the per-entry loop they replaced.

Every cache write of ``PrestoProxy`` — a catch-up run, a drained stretch of
pushes and batched readings with the silent runs between them, a pull
reply, a detection — lands through one seam,
``PrestoProxy._insert_batch``: one ``SummaryCache.insert_batch`` call, then
one ``ContinuousQueryEngine.on_run`` over the same run, rows carrying their
own stds and source codes.  The reference below is
the sequence they replaced — one ``CacheEntry`` → ``SummaryCache.insert``
→ ``on_entry`` of the per-entry engine in ``tests/reference_continuous.py``
per row, and the tracker stepped one silent epoch at a time — patched over
the seam and ``ProxyModelTracker.silent_run``.  One seeded cell (drifting
clocks, lossy link, a small cache) is driven twice, once each way, through
the cases where a careless batch diverges: a pulled actual sitting at a
future epoch, runs that overflow the cache, mote-stamped detections among
compacted columns, an armed standing query, and batch delivery.
"""

from __future__ import annotations

import pickle
from array import array
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from reference_continuous import PerEntryQueryEngine

from repro.core.cache import (
    _SOURCE_OF_CODE,
    PREDICTED_CODE,
    PULLED_CODE,
    PUSHED_CODE,
    CacheEntry,
    EntrySource,
    SummaryCache,
)
from repro.core.config import PrestoConfig
from repro.core.continuous import ContinuousQuery, TriggerKind
from repro.core.proxy import PrestoProxy
from repro.core.push import ProxyModelTracker
from repro.core.system import PrestoSystem
from repro.sync.clock import ClockModel
from repro.traces.intel_lab import IntelLabConfig, IntelLabGenerator
from repro.traces.workload import QueryWorkloadConfig, QueryWorkloadGenerator

N_SENSORS = 3
UNARMED, ARMED = 0, 2       # sensor 1 is left entirely to the query stream
CACHE_ENTRIES = 300
HORIZON_S = 0.6 * 86_400.0
BATCHING_S = (HORIZON_S - 8_000.0, HORIZON_S - 3_000.0)  # the batch drive batches


def per_epoch_silent_run(self, count):
    """``silent_run`` as it was: one ``advance_silent`` per silent epoch."""
    return array("d", [self.advance_silent() for _ in range(count)])


def per_entry_insert(self, sensor, times, values, stds, codes):
    """The seam as a per-entry loop: one cache insert and one engine
    evaluation per row, in write order."""
    rows = zip(times, values, np.broadcast_to(stds, len(times)), np.broadcast_to(codes, len(times)))
    for timestamp, value, std, code in rows:
        entry = CacheEntry(
            timestamp=float(timestamp),
            value=float(value),
            std=float(std),
            source=_SOURCE_OF_CODE[int(code)],
        )
        self.cache.insert(sensor, entry)
        self.continuous.on_entry(sensor, entry)


class WriteCounter:
    """Counts a cache's write calls, the rows they land by provenance, the
    longest batch, which ``insert_batch`` calls land drained readings (the
    only writes with per-row codes) or a catch-up run alone, per sensor,
    the silent epochs those two carry, and the calls and rows of every
    other write.  An ``insert`` is one call: the one-row ``insert_batch``
    it makes is not counted again."""

    def __init__(self, cache: SummaryCache) -> None:
        self.calls = 0
        self.longest_batch = 0
        self.pushes: Counter[int] = Counter()
        self.catch_ups: Counter[int] = Counter()
        self.run_rows = 0
        self.other_calls = self.other_rows = 0
        self.rows: Counter[EntrySource] = Counter()
        self.nested = False
        insert, insert_batch = cache.insert, cache.insert_batch

        def counted_insert(sensor, entry):
            self.calls += 1
            self.rows[entry.source] += 1
            self.nested = True
            try:
                return insert(sensor, entry)
            finally:
                self.nested = False

        def counted_batch(sensor, timestamps, values, stds, codes):
            if self.nested:
                return insert_batch(sensor, timestamps, values, stds, codes)
            rows = np.broadcast_to(codes, len(timestamps))
            self.calls += 1
            self.longest_batch = max(self.longest_batch, len(timestamps))
            for code, count in Counter(rows.tolist()).items():
                self.rows[_SOURCE_OF_CODE[code]] += count
            predicted = int((rows == PREDICTED_CODE).sum())
            if np.ndim(codes) or predicted:
                (self.pushes if np.ndim(codes) else self.catch_ups)[sensor] += 1
                self.run_rows += predicted
            else:
                self.other_calls += 1
                self.other_rows += len(timestamps)
            return insert_batch(sensor, timestamps, values, stds, codes)

        cache.insert, cache.insert_batch = counted_insert, counted_batch


class Drive:
    """One run of the scripted cell and everything observed about it.

    The *reference* drive evaluates standing queries with the per-entry
    engine; with *batching* the armed and one unarmed sensor deliver their
    readings in batches for a while.
    """

    def __init__(self, seed: int, reference: bool = False, batching: bool = False) -> None:
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
        if reference:
            self.proxy.continuous = self.system.continuous = PerEntryQueryEngine()
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
        if batching:
            start, stop = BATCHING_S
            sim.schedule(start, lambda: self.batching(600.0))
            sim.schedule(stop, lambda: self.batching(0.0))
        self.report = self.system.run(queries=queries)

    def batching(self, interval_s: float) -> None:
        for sensor in (UNARMED, ARMED):
            node = self.system.sensors[sensor]
            node.apply_operating_point(
                replace(node.operating_point, batch_interval_s=interval_s)
            )

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
        self.proxy._insert_batch(
            UNARMED, np.array([timestamp]), np.array([value]), 0.0, PULLED_CODE
        )

    def columns(self, sensor: int):
        return self.proxy.cache.arrays_in(sensor, -1.0, 1e12)

    def detections(self, sensor: int):
        return list(self.proxy.detections.get(sensor, ()))


def drive_pair(batching: bool) -> tuple[Drive, Drive]:
    batched = Drive(seed=5, batching=batching)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ProxyModelTracker, "silent_run", per_epoch_silent_run)
        patch.setattr(PrestoProxy, "_insert_batch", per_entry_insert)
        reference = Drive(seed=5, reference=True, batching=batching)
    return batched, reference


@pytest.fixture(scope="module")
def drives():
    return drive_pair(batching=False)


@pytest.fixture(scope="module")
def batch_drives():
    return drive_pair(batching=True)


def assert_same_cell(batched: Drive, reference: Drive) -> None:
    """Cache columns and counters, trackers, answers, standing-query
    bookkeeping and notifications all equal."""
    for sensor in range(N_SENSORS):
        for ours, theirs in zip(batched.columns(sensor), reference.columns(sensor)):
            np.testing.assert_array_equal(ours, theirs)
        ours, theirs = batched.proxy._states[sensor], reference.proxy._states[sensor]
        assert ours.last_epoch == theirs.last_epoch
        assert ours.push_losses_detected == theirs.push_losses_detected
        assert pickle.dumps(ours.tracker._model) == pickle.dumps(theirs.tracker._model)
    for counter in ("insertions", "refinements", "evictions"):
        assert getattr(batched.proxy.cache, counter) == getattr(
            reference.proxy.cache, counter
        )
    assert batched.report.summary() == reference.report.summary()
    assert [(a.value, a.source) for a in batched.report.answers] == [
        (a.value, a.source) for a in reference.report.answers
    ]
    ours, theirs = batched.proxy.continuous, reference.proxy.continuous
    for field in ("_latest_ts", "_last_value", "_fired_times", "notifications"):
        assert getattr(ours, field) == getattr(theirs, field)
    assert ours.stale_entries_skipped == theirs.stale_entries_skipped
    assert ours.evaluations == theirs.evaluations


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
    """One write per drained stretch — its pushes, each with its silent gap
    — or catch-up run."""
    batched, reference = drives
    substitutions = sum(
        state.tracker.substitutions for state in batched.proxy._states.values()
    )
    assert substitutions > 500
    # armed or not, a drain lands many pushes per write ...
    for sensor, state in batched.proxy._states.items():
        assert 0 < 4 * batched.writes.pushes[sensor] < state.pushes_received
    assert batched.writes.catch_ups[ARMED] > 0
    assert not reference.writes.pushes
    # ... the same rows of every provenance land either way ...
    assert batched.writes.rows == reference.writes.rows
    assert reference.writes.calls == sum(reference.writes.rows.values())
    # ... and the reference's one write per row became one per drained
    # stretch or catch-up run, and one per pull reply or detection
    runs = batched.writes.pushes.total() + batched.writes.catch_ups.total()
    assert batched.writes.calls == runs + batched.writes.other_calls
    assert batched.writes.run_rows > 10 * runs
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
    """Armed or not, latest timestamp/value, the firing history and the
    stale count are what per-entry evaluation leaves — a prediction at or
    before the latest timestamp is stale, not a refinement."""
    ours, theirs = drives[0].proxy.continuous, drives[1].proxy.continuous
    assert ours._latest_ts == theirs._latest_ts
    assert ours._last_value == theirs._last_value
    assert ours._fired_times == theirs._fired_times
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
    """Direct check of the shape: one silent run, one ``insert_batch``; one
    push with a gap behind it, one ``insert_batch`` ending in the reading."""
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
    proxy._bring_forward(0, target)
    assert (writes.calls, writes.longest_batch, writes.catch_ups[0]) == (1, behind, 1)
    assert state.last_epoch == target
    proxy._bring_forward(0, target)  # nothing left: no write at all
    assert writes.calls == 1
    epoch = target + 7
    at = proxy.epoch_time(epoch)
    proxy.on_receive((0, epoch, 21.5, at))
    assert (writes.calls, writes.longest_batch, writes.pushes[0]) == (2, behind, 1)
    assert writes.rows == {EntrySource.PREDICTED: behind + 6, EntrySource.PUSHED: 1}
    assert state.last_epoch == epoch
    times, values, stds, codes = proxy.cache.arrays_in(0, proxy.epoch_time(target + 1), at)
    assert times.tolist() == [proxy.epoch_time(e) for e in range(target + 1, epoch + 1)]
    assert codes.tolist() == [PREDICTED_CODE] * 6 + [PUSHED_CODE]
    assert (values[-1], stds[-1]) == (21.5, 0.0)
    assert (stds[:-1] > 0.0).all()


def test_batched_readings_match_per_entry(batch_drives):
    """Batch delivery on an armed and an unarmed sensor: each batched
    reading lands as a push does, its silent gap first, and the cell ends
    where the per-entry loop leaves it."""
    batched, reference = batch_drives
    assert_same_cell(batched, reference)
    for sensor in (UNARMED, ARMED):
        assert batched.proxy._states[sensor].batches_received >= 4
    assert batched.proxy._states[1].batches_received == 0
    # every batched reading was one write ending in the reading, which keeps
    # the batch's quantisation noise as its std
    start, stop = BATCHING_S
    times, values, stds, codes = batched.proxy.cache.arrays_in(ARMED, start, stop)
    pushed = codes == PUSHED_CODE
    quant_step = batched.system.sensors[ARMED].operating_point.quant_step
    quantised = stds == quant_step / np.sqrt(12.0)
    assert quantised.sum() > 100 and (pushed[quantised]).all()
    notified = {n.timestamp for n in batched.proxy.continuous.notifications}
    assert set(times[quantised]) <= notified
