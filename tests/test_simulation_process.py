"""Unit tests for PeriodicTask."""

import pytest

from repro.simulation.kernel import SimulationError, Simulator
from repro.simulation.process import PeriodicTask


class TestPeriodicTask:
    def test_fires_every_period(self):
        sim = Simulator()
        times = []
        task = PeriodicTask(sim, 10.0, lambda: times.append(sim.now))
        task.start()
        sim.run_until(35.0)
        assert times == [0.0, 10.0, 20.0, 30.0]

    def test_start_offset(self):
        sim = Simulator()
        times = []
        task = PeriodicTask(sim, 10.0, lambda: times.append(sim.now), start_offset=5.0)
        task.start()
        sim.run_until(30.0)
        assert times == [5.0, 15.0, 25.0]

    def test_stop_halts_firing(self):
        sim = Simulator()
        times = []
        task = PeriodicTask(sim, 10.0, lambda: times.append(sim.now))
        task.start()
        sim.run_until(15.0)
        task.stop()
        sim.run_until(50.0)
        assert times == [0.0, 10.0]
        assert not task.running

    def test_stop_from_inside_callback(self):
        sim = Simulator()
        times = []
        task = PeriodicTask(sim, 10.0, lambda: (times.append(sim.now), task.stop()))
        task.start()
        sim.run_until(100.0)
        assert times == [0.0]

    def test_double_start_is_noop(self):
        sim = Simulator()
        times = []
        task = PeriodicTask(sim, 10.0, lambda: times.append(sim.now))
        task.start()
        task.start()
        sim.run_until(5.0)
        assert times == [0.0]

    def test_invalid_period_raises(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            PeriodicTask(sim, 0.0, lambda: None)
        with pytest.raises(SimulationError):
            PeriodicTask(sim, -1.0, lambda: None)

    def test_fire_count(self):
        sim = Simulator()
        task = PeriodicTask(sim, 1.0, lambda: None)
        task.start()
        sim.run_until(4.5)
        assert task.fire_count == 5  # t = 0,1,2,3,4
