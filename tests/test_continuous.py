"""Unit + integration tests for continuous (standing) queries."""

import numpy as np
import pytest

from repro.core import PrestoConfig, PrestoSystem
from repro.core.cache import CacheEntry, EntrySource
from repro.core.continuous import ContinuousQuery, ContinuousQueryEngine, TriggerKind
from repro.traces.events import inject_events
from repro.traces.intel_lab import IntelLabConfig, IntelLabGenerator


def entry(t, value, source=EntrySource.PUSHED):
    return CacheEntry(timestamp=t, value=value, std=0.0, source=source)


class TestEngine:
    def test_above_trigger(self):
        engine = ContinuousQueryEngine()
        engine.register(ContinuousQuery(sensor=0, kind=TriggerKind.ABOVE, threshold=25.0))
        assert engine.on_entry(0, entry(1.0, 24.0)) == []
        fired = engine.on_entry(0, entry(2.0, 26.0))
        assert len(fired) == 1
        assert fired[0].value == 26.0

    def test_below_trigger(self):
        engine = ContinuousQueryEngine()
        engine.register(ContinuousQuery(sensor=0, kind=TriggerKind.BELOW, threshold=10.0))
        assert engine.on_entry(0, entry(1.0, 15.0)) == []
        assert len(engine.on_entry(0, entry(2.0, 5.0))) == 1

    def test_delta_trigger_needs_history(self):
        engine = ContinuousQueryEngine()
        engine.register(ContinuousQuery(sensor=0, kind=TriggerKind.DELTA, threshold=2.0))
        assert engine.on_entry(0, entry(1.0, 20.0)) == []  # no previous value
        assert engine.on_entry(0, entry(2.0, 21.0)) == []  # delta 1 < 2
        assert len(engine.on_entry(0, entry(3.0, 24.0))) == 1

    def test_sensor_isolation(self):
        engine = ContinuousQueryEngine()
        engine.register(ContinuousQuery(sensor=1, kind=TriggerKind.ABOVE, threshold=0.0))
        assert engine.on_entry(0, entry(1.0, 100.0)) == []

    def test_rate_limiting(self):
        engine = ContinuousQueryEngine()
        engine.register(
            ContinuousQuery(
                sensor=0, kind=TriggerKind.ABOVE, threshold=0.0, min_interval_s=100.0
            )
        )
        assert len(engine.on_entry(0, entry(0.0, 1.0))) == 1
        assert engine.on_entry(0, entry(50.0, 1.0)) == []   # suppressed
        assert len(engine.on_entry(0, entry(150.0, 1.0))) == 1

    def test_cancel(self):
        engine = ContinuousQueryEngine()
        qid = engine.register(
            ContinuousQuery(sensor=0, kind=TriggerKind.ABOVE, threshold=0.0)
        )
        engine.cancel(qid)
        assert engine.on_entry(0, entry(1.0, 5.0)) == []
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
        fired = engine.on_entry(0, entry(1.0, 30.0))
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
        assert engine.on_entry(0, entry(100.0, 20.0)) == []
        # a pull backfills history with a crossing value: stale news, no fire
        assert engine.on_entry(
            0, entry(50.0, 30.0, source=EntrySource.PULLED)
        ) == []
        assert engine.stale_entries_skipped == 1
        assert engine.notifications == []

    def test_backfill_does_not_clobber_delta_history(self):
        engine = ContinuousQueryEngine()
        engine.register(ContinuousQuery(sensor=0, kind=TriggerKind.DELTA, threshold=2.0))
        engine.on_entry(0, entry(100.0, 20.0))
        engine.on_entry(0, entry(131.0, 20.5))
        # backfilled pull with a far-off old value...
        engine.on_entry(0, entry(50.0, 10.0, source=EntrySource.PULLED))
        # ...must not make the next fresh entry look like a 11-degree jump
        assert engine.on_entry(0, entry(162.0, 21.0)) == []
        assert engine.notifications == []

    def test_rate_limit_unaffected_by_negative_gaps(self):
        engine = ContinuousQueryEngine()
        engine.register(
            ContinuousQuery(
                sensor=0, kind=TriggerKind.ABOVE, threshold=0.0, min_interval_s=100.0
            )
        )
        assert len(engine.on_entry(0, entry(200.0, 1.0))) == 1
        assert engine.on_entry(
            0, entry(50.0, 1.0, source=EntrySource.PULLED)
        ) == []                                              # stale backfill
        assert len(engine.on_entry(0, entry(301.0, 1.0))) == 1

    def test_late_push_still_fires(self):
        """A sensor push delayed past a query's silent advance (or a batched
        reading up to a batch interval old) is fresh information and must
        fire — only proxy-initiated backfills are stale."""
        engine = ContinuousQueryEngine()
        engine.register(ContinuousQuery(sensor=0, kind=TriggerKind.ABOVE, threshold=25.0))
        engine.on_entry(0, entry(310.0, 20.0, source=EntrySource.PREDICTED))
        engine.on_entry(0, entry(341.0, 20.0, source=EntrySource.PREDICTED))
        fired = engine.on_entry(0, entry(310.0, 30.0))  # delayed real push
        assert len(fired) == 1
        assert fired[0].from_actual

    def test_late_push_fires_with_zero_min_interval(self):
        """min_interval_s=0 means 'every hit' — a negative time gap to the
        last firing must not suppress a late push."""
        engine = ContinuousQueryEngine()
        engine.register(ContinuousQuery(sensor=0, kind=TriggerKind.ABOVE, threshold=25.0))
        assert len(engine.on_entry(0, entry(500.0, 30.0))) == 1
        assert len(engine.on_entry(0, entry(310.0, 30.0))) == 1  # late push

    def test_late_firing_does_not_rewind_rate_limit(self):
        engine = ContinuousQueryEngine()
        engine.register(
            ContinuousQuery(
                sensor=0, kind=TriggerKind.ABOVE, threshold=0.0, min_interval_s=100.0
            )
        )
        assert len(engine.on_entry(0, entry(500.0, 1.0))) == 1
        # late push 150s before the last firing: outside the window, fires
        assert len(engine.on_entry(0, entry(350.0, 1.0))) == 1
        # ...but the anchor stays at 500, so 560 is still rate-limited
        assert engine.on_entry(0, entry(560.0, 1.0)) == []
        assert len(engine.on_entry(0, entry(601.0, 1.0))) == 1

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
        assert len(engine.on_entry(0, entry(500.0, 1.0))) == 1
        fired = sum(
            len(engine.on_entry(0, entry(t, 1.0)))
            for t in (0.0, 31.0, 62.0, 93.0, 124.0, 155.0, 186.0)
        )
        # one per 100 s of data time: t=0, t=124 (then 186 is within 100
        # of 124) — not one per entry
        assert fired == 2

    def test_late_push_does_not_rewind_history(self):
        engine = ContinuousQueryEngine()
        engine.register(ContinuousQuery(sensor=0, kind=TriggerKind.DELTA, threshold=2.0))
        engine.on_entry(0, entry(100.0, 20.0))
        engine.on_entry(0, entry(131.0, 20.5))
        engine.on_entry(0, entry(110.0, 27.0))  # late push, evaluated (fires)
        # but the delta history still compares against the newest value
        assert engine.on_entry(0, entry(162.0, 21.0)) == []

    def test_overtaken_push_still_evaluated(self):
        """A real push replacing the prediction for the *same* epoch (the
        query-silent-advance race) carries the event the model missed: it
        must fire, or rare events on that path are silently dropped."""
        engine = ContinuousQueryEngine()
        engine.register(ContinuousQuery(sensor=0, kind=TriggerKind.ABOVE, threshold=25.0))
        assert engine.on_entry(
            0, entry(310.0, 20.0, source=EntrySource.PREDICTED)
        ) == []
        fired = engine.on_entry(0, entry(310.0, 30.0))  # the overtaken push
        assert len(fired) == 1
        assert fired[0].from_actual

    def test_equal_timestamp_prediction_not_reevaluated(self):
        engine = ContinuousQueryEngine()
        engine.register(ContinuousQuery(sensor=0, kind=TriggerKind.ABOVE, threshold=25.0))
        assert engine.on_entry(0, entry(100.0, 24.0)) == []
        # a duplicate model substitution at the same instant is stale news
        assert engine.on_entry(
            0, entry(100.0, 26.0, source=EntrySource.PREDICTED)
        ) == []
        assert engine.stale_entries_skipped == 1

    def test_note_value_ignores_stale_batches(self):
        engine = ContinuousQueryEngine()
        engine.register(ContinuousQuery(sensor=0, kind=TriggerKind.DELTA, threshold=2.0))
        engine.on_entry(0, entry(100.0, 20.0))
        engine.note_value(0, 50.0, 5.0)         # pull-backfill batch tail
        assert engine.on_entry(0, entry(131.0, 20.5)) == []
        engine.note_value(0, 162.0, 30.0)       # fresh batch tail counts
        assert engine.on_entry(0, entry(193.0, 30.5)) == []
        assert engine.notifications == []

    def test_stale_entries_isolated_per_sensor(self):
        engine = ContinuousQueryEngine()
        engine.register(ContinuousQuery(sensor=1, kind=TriggerKind.ABOVE, threshold=25.0))
        engine.on_entry(0, entry(100.0, 20.0))
        # sensor 1 has its own monotonic clock: t=50 is fresh for it
        assert len(engine.on_entry(1, entry(50.0, 30.0))) == 1


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
