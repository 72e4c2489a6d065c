"""Unit tests for the discrete-event kernel."""

import pytest

from repro.simulation.kernel import EventQueue, SimulationError, Simulator


class TestEventQueue:
    def test_pop_orders_by_time(self):
        q = EventQueue()
        fired = []
        q.push(5.0, lambda: fired.append(5))
        q.push(1.0, lambda: fired.append(1))
        q.push(3.0, lambda: fired.append(3))
        times = []
        while (event := q.pop()) is not None:
            times.append(event.time)
        assert times == [1.0, 3.0, 5.0]

    def test_fifo_for_equal_times(self):
        q = EventQueue()
        q.push(1.0, lambda: "a")
        q.push(1.0, lambda: "b")
        q.push(1.0, lambda: "c")
        order = [q.pop().callback() for _ in range(3)]
        assert order == ["a", "b", "c"]

    def test_cancelled_events_are_skipped(self):
        q = EventQueue()
        keep = q.push(1.0, lambda: "keep")
        drop = q.push(0.5, lambda: "drop")
        drop.cancel()
        assert q.pop() is keep

    def test_len_ignores_cancelled(self):
        q = EventQueue()
        q.push(1.0, lambda: None)
        handle = q.push(2.0, lambda: None)
        handle.cancel()
        assert len(q) == 1

    def test_peek_time_skips_cancelled(self):
        q = EventQueue()
        early = q.push(1.0, lambda: None)
        q.push(2.0, lambda: None)
        early.cancel()
        assert q.peek_time() == 2.0

    def test_pop_empty_returns_none(self):
        assert EventQueue().pop() is None


class TestSimulator:
    def test_clock_starts_at_zero(self):
        assert Simulator().now == 0.0

    def test_run_until_advances_clock_to_horizon(self):
        sim = Simulator()
        sim.run_until(100.0)
        assert sim.now == 100.0

    def test_events_fire_in_order(self):
        sim = Simulator()
        fired = []
        sim.schedule(10.0, lambda: fired.append("b"))
        sim.schedule(5.0, lambda: fired.append("a"))
        sim.run_until(20.0)
        assert fired == ["a", "b"]

    def test_event_at_horizon_fires(self):
        sim = Simulator()
        fired = []
        sim.schedule(10.0, lambda: fired.append(1))
        sim.run_until(10.0)
        assert fired == [1]

    def test_event_after_horizon_does_not_fire(self):
        sim = Simulator()
        fired = []
        sim.schedule(10.1, lambda: fired.append(1))
        sim.run_until(10.0)
        assert fired == []
        assert sim.pending == 1

    def test_events_can_schedule_events(self):
        sim = Simulator()
        fired = []

        def chain():
            fired.append(sim.now)
            if sim.now < 5:
                sim.schedule_after(1.0, chain)

        sim.schedule(0.0, chain)
        sim.run_until(10.0)
        assert fired == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]

    def test_scheduling_in_past_raises(self):
        sim = Simulator()
        sim.run_until(10.0)
        with pytest.raises(SimulationError):
            sim.schedule(5.0, lambda: None)

    def test_negative_delay_raises(self):
        with pytest.raises(SimulationError):
            Simulator().schedule_after(-1.0, lambda: None)

    def test_nan_time_raises(self):
        with pytest.raises(SimulationError):
            Simulator().schedule(float("nan"), lambda: None)

    def test_nan_delay_raises(self):
        with pytest.raises(SimulationError):
            Simulator().schedule_after(float("nan"), lambda: None)

    def test_horizon_before_now_raises(self):
        sim = Simulator()
        sim.run_until(10.0)
        with pytest.raises(SimulationError):
            sim.run_until(5.0)

    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        fired = []
        handle = sim.schedule(1.0, lambda: fired.append(1))
        handle.cancel()
        sim.run_until(2.0)
        assert fired == []

    def test_events_fired_counter(self):
        sim = Simulator()
        for t in (1.0, 2.0, 3.0):
            sim.schedule(t, lambda: None)
        sim.run_until(2.5)
        assert sim.events_fired == 2

    def test_run_drains_everything(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule(1e9, lambda: fired.append(2))
        sim.run()
        assert fired == [1, 2]
        assert sim.pending == 0

    def test_clock_equals_event_time_during_callback(self):
        sim = Simulator()
        seen = []
        sim.schedule(7.5, lambda: seen.append(sim.now))
        sim.run_until(100.0)
        assert seen == [7.5]
