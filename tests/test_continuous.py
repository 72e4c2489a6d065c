"""Unit + integration tests for continuous (standing) queries."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_continuous import PerEntryQueryEngine

from repro.core import PrestoConfig, PrestoSystem
from repro.core.cache import (
    _CODE_OF_SOURCE,
    _SOURCE_OF_CODE,
    PREDICTED_CODE,
    PULLED_CODE,
    PUSHED_CODE,
    CacheEntry,
    EntrySource,
)
from repro.core.continuous import ContinuousQuery, ContinuousQueryEngine, TriggerKind
from repro.traces.events import inject_events
from repro.traces.intel_lab import IntelLabConfig, IntelLabGenerator


def row(engine, sensor, t, value, source=EntrySource.PUSHED):
    """Feed *engine* a one-row run; returns the notifications it fired."""
    return engine.on_run(sensor, np.array([t]), np.array([value]), _CODE_OF_SOURCE[source])


def run(engine, sensor, times, values, codes):
    return engine.on_run(
        sensor, np.asarray(times, dtype=float), np.asarray(values, dtype=float),
        np.asarray(codes, dtype=np.int8),
    )


class TestEngine:
    def test_above_trigger(self):
        engine = ContinuousQueryEngine()
        engine.register(ContinuousQuery(sensor=0, kind=TriggerKind.ABOVE, threshold=25.0))
        assert row(engine, 0, 1.0, 24.0) == []
        fired = row(engine, 0, 2.0, 26.0)
        assert len(fired) == 1
        assert fired[0].value == 26.0

    def test_below_trigger(self):
        engine = ContinuousQueryEngine()
        engine.register(ContinuousQuery(sensor=0, kind=TriggerKind.BELOW, threshold=10.0))
        assert row(engine, 0, 1.0, 15.0) == []
        assert len(row(engine, 0, 2.0, 5.0)) == 1

    def test_delta_trigger_needs_history(self):
        engine = ContinuousQueryEngine()
        engine.register(ContinuousQuery(sensor=0, kind=TriggerKind.DELTA, threshold=2.0))
        assert row(engine, 0, 1.0, 20.0) == []  # no previous value
        assert row(engine, 0, 2.0, 21.0) == []  # delta 1 < 2
        assert len(row(engine, 0, 3.0, 24.0)) == 1

    def test_sensor_isolation(self):
        engine = ContinuousQueryEngine()
        engine.register(ContinuousQuery(sensor=1, kind=TriggerKind.ABOVE, threshold=0.0))
        assert row(engine, 0, 1.0, 100.0) == []

    def test_rate_limiting(self):
        engine = ContinuousQueryEngine()
        engine.register(
            ContinuousQuery(
                sensor=0, kind=TriggerKind.ABOVE, threshold=0.0, min_interval_s=100.0
            )
        )
        assert len(row(engine, 0, 0.0, 1.0)) == 1
        assert row(engine, 0, 50.0, 1.0) == []   # suppressed
        assert len(row(engine, 0, 150.0, 1.0)) == 1

    def test_cancel(self):
        engine = ContinuousQueryEngine()
        qid = engine.register(
            ContinuousQuery(sensor=0, kind=TriggerKind.ABOVE, threshold=0.0)
        )
        engine.cancel(qid)
        assert row(engine, 0, 1.0, 5.0) == []
        assert engine.active == []

    def test_ids_assigned_by_the_registering_engine(self):
        def query():
            return ContinuousQuery(sensor=0, kind=TriggerKind.ABOVE, threshold=0.0)

        assert query().query_id is None
        first, second = ContinuousQueryEngine(), ContinuousQueryEngine()
        # every engine numbers from 0: no process-wide counter behind it
        assert [first.register(query()), first.register(query())] == [0, 1]
        assert second.register(query()) == 0
        # a query that already carries an id keeps it (the federation re-arms
        # coordinator-registered queries on cell engines), and later
        # assignments never collide with it
        carried = first.active[1]
        assert second.register(carried) == carried.query_id == 1
        assert second.register(query()) == 2

    def test_multiple_queries_fire_together(self):
        engine = ContinuousQueryEngine()
        engine.register(ContinuousQuery(sensor=0, kind=TriggerKind.ABOVE, threshold=20.0))
        engine.register(ContinuousQuery(sensor=0, kind=TriggerKind.ABOVE, threshold=25.0))
        fired = row(engine, 0, 1.0, 30.0)
        assert len(fired) == 2

    def test_invalid_queries(self):
        with pytest.raises(ValueError):
            ContinuousQuery(sensor=0, kind=TriggerKind.DELTA, threshold=0.0)
        with pytest.raises(ValueError):
            ContinuousQuery(
                sensor=0, kind=TriggerKind.ABOVE, threshold=1.0, min_interval_s=-1.0
            )


class TestOutOfOrderEntries:
    """Backfilled pull entries must not re-fire or corrupt trigger history."""

    def test_backfilled_pull_not_evaluated(self):
        engine = ContinuousQueryEngine()
        engine.register(ContinuousQuery(sensor=0, kind=TriggerKind.ABOVE, threshold=25.0))
        assert row(engine, 0, 100.0, 20.0) == []
        # a pull backfills history with a crossing value: stale news, no fire
        assert row(engine, 0, 50.0, 30.0, source=EntrySource.PULLED) == []
        assert engine.stale_entries_skipped == 1
        assert engine.notifications == []

    def test_backfill_does_not_clobber_delta_history(self):
        engine = ContinuousQueryEngine()
        engine.register(ContinuousQuery(sensor=0, kind=TriggerKind.DELTA, threshold=2.0))
        row(engine, 0, 100.0, 20.0)
        row(engine, 0, 131.0, 20.5)
        # backfilled pull with a far-off old value...
        row(engine, 0, 50.0, 10.0, source=EntrySource.PULLED)
        # ...must not make the next fresh entry look like a 11-degree jump
        assert row(engine, 0, 162.0, 21.0) == []
        assert engine.notifications == []

    def test_rate_limit_unaffected_by_negative_gaps(self):
        engine = ContinuousQueryEngine()
        engine.register(
            ContinuousQuery(
                sensor=0, kind=TriggerKind.ABOVE, threshold=0.0, min_interval_s=100.0
            )
        )
        assert len(row(engine, 0, 200.0, 1.0)) == 1
        # stale backfill
        assert row(engine, 0, 50.0, 1.0, source=EntrySource.PULLED) == []
        assert len(row(engine, 0, 301.0, 1.0)) == 1

    def test_late_push_still_fires(self):
        """A sensor push delayed past a query's silent advance (or a batched
        reading up to a batch interval old) is fresh information and must
        fire — only proxy-initiated backfills are stale."""
        engine = ContinuousQueryEngine()
        engine.register(ContinuousQuery(sensor=0, kind=TriggerKind.ABOVE, threshold=25.0))
        row(engine, 0, 310.0, 20.0, source=EntrySource.PREDICTED)
        row(engine, 0, 341.0, 20.0, source=EntrySource.PREDICTED)
        fired = row(engine, 0, 310.0, 30.0)  # delayed real push
        assert len(fired) == 1
        assert fired[0].from_actual

    def test_late_push_fires_with_zero_min_interval(self):
        """min_interval_s=0 means 'every hit' — a negative time gap to the
        last firing must not suppress a late push."""
        engine = ContinuousQueryEngine()
        engine.register(ContinuousQuery(sensor=0, kind=TriggerKind.ABOVE, threshold=25.0))
        assert len(row(engine, 0, 500.0, 30.0)) == 1
        assert len(row(engine, 0, 310.0, 30.0)) == 1  # late push

    def test_late_firing_does_not_rewind_rate_limit(self):
        engine = ContinuousQueryEngine()
        engine.register(
            ContinuousQuery(
                sensor=0, kind=TriggerKind.ABOVE, threshold=0.0, min_interval_s=100.0
            )
        )
        assert len(row(engine, 0, 500.0, 1.0)) == 1
        # late push 150s before the last firing: outside the window, fires
        assert len(row(engine, 0, 350.0, 1.0)) == 1
        # ...but the anchor stays at 500, so 560 is still rate-limited
        assert row(engine, 0, 560.0, 1.0) == []
        assert len(row(engine, 0, 601.0, 1.0)) == 1

    def test_late_pushes_rate_limit_each_other(self):
        """A delayed batch of crossing readings must honour the rate limit
        among its own entries, not fire once per reading because each is
        far from the single newest firing."""
        engine = ContinuousQueryEngine()
        engine.register(
            ContinuousQuery(
                sensor=0, kind=TriggerKind.ABOVE, threshold=0.0, min_interval_s=100.0
            )
        )
        assert len(row(engine, 0, 500.0, 1.0)) == 1
        fired = sum(
            len(row(engine, 0, t, 1.0))
            for t in (0.0, 31.0, 62.0, 93.0, 124.0, 155.0, 186.0)
        )
        # one per 100 s of data time: t=0, t=124 (then 186 is within 100
        # of 124) — not one per entry
        assert fired == 2

    def test_late_push_does_not_rewind_history(self):
        engine = ContinuousQueryEngine()
        engine.register(ContinuousQuery(sensor=0, kind=TriggerKind.DELTA, threshold=2.0))
        row(engine, 0, 100.0, 20.0)
        row(engine, 0, 131.0, 20.5)
        row(engine, 0, 110.0, 27.0)  # late push, evaluated (fires)
        # but the delta history still compares against the newest value
        assert row(engine, 0, 162.0, 21.0) == []

    def test_overtaken_push_still_evaluated(self):
        """A real push replacing the prediction for the *same* epoch (the
        query-silent-advance race) carries the event the model missed: it
        must fire, or rare events on that path are silently dropped."""
        engine = ContinuousQueryEngine()
        engine.register(ContinuousQuery(sensor=0, kind=TriggerKind.ABOVE, threshold=25.0))
        assert row(engine, 0, 310.0, 20.0, source=EntrySource.PREDICTED) == []
        fired = row(engine, 0, 310.0, 30.0)  # the overtaken push
        assert len(fired) == 1
        assert fired[0].from_actual

    def test_equal_timestamp_prediction_not_reevaluated(self):
        engine = ContinuousQueryEngine()
        engine.register(ContinuousQuery(sensor=0, kind=TriggerKind.ABOVE, threshold=25.0))
        assert row(engine, 0, 100.0, 24.0) == []
        # a duplicate model substitution at the same instant is stale news
        assert row(engine, 0, 100.0, 26.0, source=EntrySource.PREDICTED) == []
        assert engine.stale_entries_skipped == 1

    def test_unwatched_runs_keep_history_warm(self):
        """Runs no query watches still advance the delta history, and a
        stale pull backfill neither clobbers it nor escapes the count."""
        engine = ContinuousQueryEngine()
        run(engine, 0, [100.0, 131.0], [20.0, 20.5], PREDICTED_CODE)
        run(engine, 0, [40.0, 50.0], [4.0, 5.0], PULLED_CODE)  # backfill
        assert engine.stale_entries_skipped == 2
        delta = ContinuousQuery(sensor=0, kind=TriggerKind.DELTA, threshold=2.0)
        qid = engine.register(delta)
        assert row(engine, 0, 162.0, 21.0) == []  # against 20.5, not 5.0
        engine.cancel(qid)
        run(engine, 0, [193.0, 224.0], [25.0, 30.0], PULLED_CODE)
        engine.register(delta)
        assert row(engine, 0, 255.0, 30.5) == []  # the fresh run's tail counts
        assert engine.notifications == []

    def test_stale_entries_isolated_per_sensor(self):
        engine = ContinuousQueryEngine()
        engine.register(ContinuousQuery(sensor=1, kind=TriggerKind.ABOVE, threshold=25.0))
        row(engine, 0, 100.0, 20.0)
        # sensor 1 has its own monotonic clock: t=50 is fresh for it
        assert len(row(engine, 1, 50.0, 30.0)) == 1


# -- runs against the per-entry oracle ------------------------------------------
#
# on_run must leave exactly what feeding tests/reference_continuous.py each
# row of the run, in write order, leaves — on watched sensors and unwatched
# ones (where a fresh ascending run skips to its last row) alike, across
# register / cancel.

TIME = st.integers(0, 12).map(float)          # a coarse grid: collisions are common
VALUE = st.integers(-4, 4).map(float)


@st.composite
def ascending_run(draw):
    """A tracker's run: silent epochs and the readings among them."""
    first = draw(TIME)
    count = draw(st.integers(1, 6))
    times = [first + offset for offset in range(count)]
    values = draw(st.lists(VALUE, min_size=count, max_size=count))
    codes = draw(st.lists(st.sampled_from([PREDICTED_CODE, PUSHED_CODE]),
                          min_size=count, max_size=count))
    return times, values, codes


@st.composite
def reply_run(draw):
    """A pull reply — distinct instants in time order, anywhere in the seen
    history or past it — or a one-row push or detection."""
    code = draw(st.sampled_from([PULLED_CODE, PUSHED_CODE]))
    size = st.integers(1, 6) if code == PULLED_CODE else st.just(1)
    count = draw(size)
    times = draw(st.lists(TIME, min_size=count, max_size=count, unique=True).map(sorted))
    values = draw(st.lists(VALUE, min_size=count, max_size=count))
    return times, values, [code] * count


QUERY = st.builds(
    lambda sensor, kind, threshold, interval, query_id: ContinuousQuery(
        sensor=sensor,
        kind=kind,
        threshold=abs(threshold) + 0.5 if kind is TriggerKind.DELTA else threshold,
        min_interval_s=interval,
        query_id=query_id,
    ),
    sensor=st.integers(0, 2),
    kind=st.sampled_from(list(TriggerKind)),
    threshold=st.integers(-3, 3).map(float),
    interval=st.sampled_from([0.0, 0.0, 3.0]),
    query_id=st.one_of(st.none(), st.integers(0, 3)),   # an id re-arms in place
)

OPERATION = st.one_of(
    st.tuples(st.just("register"), QUERY),
    st.tuples(st.just("cancel"), st.integers(0, 4)),
    st.tuples(st.just("run"), st.integers(0, 2), st.one_of(ascending_run(), reply_run())),
)


@settings(max_examples=400, deadline=None)
@given(
    queries=st.lists(QUERY, max_size=3),
    operations=st.lists(OPERATION, max_size=30),
)
def test_runs_equal_the_per_entry_oracle(queries, operations):
    engine, oracle = ContinuousQueryEngine(), PerEntryQueryEngine()
    for query in queries:
        assert engine.register(query) == oracle.register(query)
    for operation in operations:
        if operation[0] == "register":
            assert engine.register(operation[1]) == oracle.register(operation[1])
        elif operation[0] == "cancel":
            engine.cancel(operation[1])
            oracle.cancel(operation[1])
        else:
            _, sensor, (times, values, codes) = operation
            fired = run(engine, sensor, times, values, codes)
            expected = []
            for timestamp, value, code in zip(times, values, codes):
                entry = CacheEntry(timestamp, value, 0.1, _SOURCE_OF_CODE[code])
                expected += oracle.on_entry(sensor, entry)
            assert fired == expected
        assert engine.notifications == oracle.notifications
        assert engine._latest_ts == oracle._latest_ts
        assert engine._last_value == oracle._last_value
        assert engine._fired_times == oracle._fired_times
        assert engine.evaluations == oracle.evaluations
        assert engine.stale_entries_skipped == oracle.stale_entries_skipped


def test_pull_reply_counts_stale_rows_armed_or_not():
    """A pull reply's rows older than the newest timestamp are stale on
    every sensor: the same reply counts the same whether or not a standing
    query watches the sensor it lands on."""
    system = PrestoSystem(
        IntelLabGenerator(
            IntelLabConfig(n_sensors=2, duration_s=30_000.0, epoch_s=31.0), seed=3
        ).generate(),
        PrestoConfig(sample_period_s=31.0),
        seed=3,
    )
    system.run(duration_s=20_000.0)
    proxy = system.proxy
    proxy.continuous.register(
        ContinuousQuery(sensor=0, kind=TriggerKind.ABOVE, threshold=1e9)
    )
    epoch = proxy.current_epoch()
    counts = []
    for sensor in (0, 1):
        proxy.advance_to_now(sensor)
        assert proxy._states[sensor].last_epoch == epoch
        times = proxy.epoch_time(np.arange(epoch - 5, epoch + 3))
        before = proxy.continuous.stale_entries_skipped
        proxy._insert_batch(sensor, times, np.full(times.size, 20.0), 0.0, PULLED_CODE)
        counts.append(proxy.continuous.stale_entries_skipped - before)
    # five rows before the latest timestamp; the one at it refines
    assert counts == [5, 5]


class TestEndToEnd:
    def test_event_fires_standing_query_via_push(self):
        """An injected 6-degree event must notify a standing threshold query
        through the push path, within ~an epoch of its onset."""
        trace_config = IntelLabConfig(
            n_sensors=2,
            duration_s=86_400.0,
            epoch_s=31.0,
            spike_rate_per_day=0.0,
        )
        base = IntelLabGenerator(trace_config, seed=80).generate()
        trace, events = inject_events(
            base,
            np.random.default_rng(89),  # seed drawing 4 positive events
            rate_per_sensor_day=1.0,
            magnitude=8.0,
            duration_epochs=20,
        )
        positive = [e for e in events if e.magnitude > 0]
        assert positive, "fixture seed must draw positive events"
        system = PrestoSystem(
            trace,
            PrestoConfig(sample_period_s=31.0, refit_interval_s=4 * 3600.0),
            seed=82,
        )
        # arm: "tell me when any sensor exceeds baseline + 4"
        for sensor in range(trace.n_sensors):
            baseline = float(np.nanmean(base.values[sensor]))
            system.proxy.continuous.register(
                ContinuousQuery(
                    sensor=sensor,
                    kind=TriggerKind.ABOVE,
                    threshold=baseline + 4.0,
                    min_interval_s=600.0,
                )
            )
        system.run()
        notifications = system.proxy.continuous.notifications
        assert notifications, "standing queries never fired"
        # every positive event should have produced a notification near onset
        for event in positive:
            onset = event.start_epoch * 31.0
            nearby = [
                n
                for n in notifications
                if n.sensor == event.sensor
                and onset - 62.0 <= n.timestamp <= onset + 20 * 31.0
            ]
            assert nearby, f"event at {onset}s produced no notification"
