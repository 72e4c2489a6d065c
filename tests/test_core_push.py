"""Unit tests for the model-driven push protocol — the paper's core."""

import numpy as np
import pytest

from repro.core.push import (
    ModelUpdate,
    ProxyModelTracker,
    SensorModelChecker,
    verify_replicas_in_sync,
)
from repro.timeseries.arima import ARIMAModel


def fitted_model(seed=0, n=2000):
    rng = np.random.default_rng(seed)
    x = np.cumsum(rng.normal(0, 0.1, n)) + 20.0
    return ARIMAModel(order=(1, 1, 0)).fit(x), x


class TestChecker:
    def test_small_deviations_suppressed(self):
        model, x = fitted_model()
        checker = SensorModelChecker(ModelUpdate(model=model, delta=1.0))
        value = x[-1]
        decisions = []
        for _ in range(50):
            value += 0.01  # drift far below delta per step
            decisions.append(checker.process(value))
        assert sum(d.push for d in decisions) <= 2

    def test_rare_event_always_pushed(self):
        """The paper's guarantee: unexpected events are never missed."""
        model, x = fitted_model()
        checker = SensorModelChecker(ModelUpdate(model=model, delta=1.0))
        for _ in range(10):
            checker.process(x[-1])
        spike = checker.process(x[-1] + 8.0)  # intruder!
        assert spike.push

    def test_push_fraction_tracked(self):
        model, x = fitted_model()
        checker = SensorModelChecker(ModelUpdate(model=model, delta=0.001))
        rng = np.random.default_rng(1)
        for _ in range(20):
            checker.process(x[-1] + rng.normal(0, 1.0))
        assert checker.push_fraction > 0.5

    def test_decision_error_reported(self):
        model, x = fitted_model()
        checker = SensorModelChecker(ModelUpdate(model=model, delta=1.0))
        decision = checker.process(x[-1] + 5.0)
        assert decision.error == pytest.approx(
            abs(x[-1] + 5.0 - decision.predicted)
        )


class TestReplicaSync:
    def test_replicas_identical_under_protocol(self):
        """Proxy substitutes predictions exactly when the sensor is silent:
        after any mix of pushes/silences, both models agree bit-for-bit."""
        model, x = fitted_model()
        update = ModelUpdate(model=model, delta=0.5)
        checker = SensorModelChecker(update)
        tracker = ProxyModelTracker(update)
        rng = np.random.default_rng(7)
        value = float(x[-1])
        for _ in range(500):
            value += float(rng.normal(0, 0.3))
            decision = checker.process(value)
            if decision.push:
                tracker.apply_push(value)
            else:
                tracker.advance_silent()
            assert verify_replicas_in_sync(checker, tracker)

    def test_substitution_error_bounded_by_delta(self):
        """Every silent epoch's substituted value is within delta of the
        actual reading — the invariant the whole cache confidence rests on."""
        model, x = fitted_model(seed=3)
        delta = 0.5
        update = ModelUpdate(model=model, delta=delta)
        checker = SensorModelChecker(update)
        tracker = ProxyModelTracker(update)
        rng = np.random.default_rng(8)
        value = float(x[-1])
        for _ in range(500):
            value += float(rng.normal(0, 0.2))
            decision = checker.process(value)
            if decision.push:
                tracker.apply_push(value)
            else:
                substituted = tracker.advance_silent()
                assert abs(substituted - value) <= delta + 1e-9

    def test_tracker_counts(self):
        model, _ = fitted_model()
        update = ModelUpdate(model=model, delta=0.5)
        tracker = ProxyModelTracker(update)
        tracker.advance_silent()
        tracker.advance_silent()
        tracker.apply_push(20.0)
        assert tracker.substitutions == 2
        assert tracker.pushes_applied == 1

    def test_checker_advance_silent_mirrors_tracker(self):
        """A sensing dropout advances both replicas identically: the
        checker's silent advance substitutes the same value as the
        tracker's and keeps the pair in lockstep afterwards."""
        model, x = fitted_model()
        update = ModelUpdate(model=model, delta=0.5)
        checker = SensorModelChecker(update)
        tracker = ProxyModelTracker(update)
        rng = np.random.default_rng(11)
        value = float(x[-1])
        for step in range(200):
            if step % 5 == 0:  # dropout epoch: no reading on either side
                substituted = checker.advance_silent()
                assert substituted == tracker.advance_silent()
            else:
                value += float(rng.normal(0, 0.2))
                decision = checker.process(value)
                if decision.push:
                    tracker.apply_push(value)
                else:
                    tracker.advance_silent()
            assert verify_replicas_in_sync(checker, tracker)

    def test_checker_advance_silent_counts_a_check(self):
        model, _ = fitted_model()
        checker = SensorModelChecker(ModelUpdate(model=model, delta=0.5))
        checker.advance_silent()
        assert checker.checks == 1
        assert checker.pushes == 0


class TestModelUpdate:
    def test_parameter_bytes_include_delta(self):
        model, _ = fitted_model()
        update = ModelUpdate(model=model, delta=1.0)
        assert update.parameter_bytes == model.parameter_bytes + 4

    def test_checker_does_not_alias_update_model(self):
        """The checker must deep-copy: sensor-side observations must never
        mutate the proxy's master model."""
        model, x = fitted_model()
        before = model.predict_next()
        checker = SensorModelChecker(ModelUpdate(model=model, delta=0.1))
        for _ in range(20):
            checker.process(x[-1] + 3.0)
        assert model.predict_next() == pytest.approx(before)
