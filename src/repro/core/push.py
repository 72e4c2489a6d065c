"""The model-driven push protocol.

The heart of PRESTO (Section 2/3): the proxy fits a model, transmits its
parameters to the sensor, and from then on the *sensor* checks each reading
against the model, transmitting only on failure:

    sensor:  predicted, pushed = model.step(reading, delta)
             #   |reading - predicted| > delta: observe(reading), push it
             #   otherwise:                     observe(predicted)
    proxy:   on push:    observe(reading)   # same branch, same state
             on silence: model.step(None, delta)   # observe(predicted)

Each side takes one model step per epoch
(:meth:`~repro.timeseries.base.TimeSeriesModel.step`), and both advance the
*same* model with the *same* values, so silence is
unambiguous ("the reading was within delta of what we both computed") and
the proxy's substituted series is exactly the sensor's.  Rare events are
caught by construction: any reading further than delta from the prediction
is pushed, no matter how unusual.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

from repro.timeseries.base import TimeSeriesModel


@dataclass(frozen=True)
class ModelUpdate:
    """Model parameters shipped proxy → sensor.

    The simulation passes the fitted model object; the wire cost charged to
    the radio is ``parameter_bytes`` — what a real deployment would send.

    ``activation_epoch`` makes the switchover race-free: both sides keep
    running the old model (or cold-start push-everything mode) until that
    epoch, so a slow LPL downlink cannot desynchronise the replicas.
    """

    model: TimeSeriesModel
    delta: float
    activation_epoch: int = 0

    @property
    def parameter_bytes(self) -> int:
        """Bytes of model parameters on the wire."""
        return self.model.parameter_bytes + 4  # + delta


@dataclass(frozen=True)
class PushDecision:
    """Outcome of one sensor-side model check."""

    push: bool
    predicted: float
    error: float


class SensorModelChecker:
    """Sensor-side replica of the model, running the cheap check loop."""

    def __init__(self, update: ModelUpdate) -> None:
        self._model = copy.deepcopy(update.model)
        self._model.align_to_time(
            update.activation_epoch * self._model.sample_period_s
        )
        self.delta = float(update.delta)
        self.checks = 0
        self.pushes = 0

    @property
    def check_cycles(self) -> float:
        """CPU cycles per verification (for the energy model)."""
        return self._model.check_cycles

    def process(self, value: float) -> PushDecision:
        """Check one reading; advances the replica identically to the proxy."""
        predicted, push = self._model.step(value, self.delta)
        self.checks += 1
        if push:
            self.pushes += 1
        return PushDecision(push=push, predicted=predicted, error=abs(value - predicted))

    def advance_silent(self) -> float:
        """Advance one epoch with no reading (sensing dropout).

        The replica observes its own prediction — exactly the proxy
        tracker's :meth:`ProxyModelTracker.advance_silent` — so a missed
        sample keeps both sides in lockstep.  Returns the substituted value.
        """
        predicted, _ = self._model.step(None, self.delta)
        self.checks += 1
        return predicted

    @property
    def push_fraction(self) -> float:
        """Fraction of readings that failed the model so far."""
        if self.checks == 0:
            return 0.0
        return self.pushes / self.checks


class ProxyModelTracker:
    """Proxy-side replica of the same model for one sensor.

    ``advance_silent()`` substitutes the prediction for an epoch the sensor
    skipped; ``apply_push(value)`` consumes a pushed reading.  The sequence
    of calls must mirror the sensor's epochs, which the proxy guarantees by
    processing epochs in order (see :class:`repro.core.proxy.PrestoProxy`).
    """

    def __init__(self, update: ModelUpdate) -> None:
        self._model = copy.deepcopy(update.model)
        self._model.align_to_time(
            update.activation_epoch * self._model.sample_period_s
        )
        self.delta = float(update.delta)
        self.substitutions = 0
        self.pushes_applied = 0

    def advance_silent(self) -> float:
        """Advance one epoch without a push; returns the substituted value."""
        predicted, _ = self._model.step(None, self.delta)
        self.substitutions += 1
        return predicted

    def apply_push(self, value: float) -> None:
        """Advance one epoch with the pushed reading."""
        self._model.observe(float(value))
        self.pushes_applied += 1

    def predicted_std(self) -> float:
        """One-step uncertainty of a substitution (model residual std)."""
        return self._model.residual_std


class ForecastTrajectory:
    """The forecast of a frozen replicated tracker, computed once and read many times.

    Used by wired replicas answering for a failed wireless proxy: the
    replicated model extrapolates from its last synchronised state without
    touching the tracker, so every query against one replica reads the same
    forecast, just further along.  Every model family's forecast is
    prefix-stable (``forecast(n)[:s]`` is ``forecast(s)`` bit for bit: the
    recursions run step by step and the variance sums are sequential), so
    :meth:`at` answers from one stored forecast and recomputes only when a
    query reaches past it, at least doubling its length.
    """

    def __init__(self, tracker: ProxyModelTracker) -> None:
        self._tracker = tracker
        self._mean: list[float] = []
        self._std: list[float] = []

    def at(self, steps: int) -> tuple[float, float]:
        """Mean and std *steps* epochs past the replica's last known state."""
        if steps < 1:
            raise ValueError(f"need >= 1 forecast step, got {steps}")
        if steps > len(self._mean):
            model = self._tracker._model
            try:
                forecast = model.forecast(max(steps, 2 * len(self._mean)))
            except (RuntimeError, ValueError):
                return (
                    float(model.predict_next()),
                    self._tracker.predicted_std() * (steps ** 0.5),
                )
            self._mean, self._std = forecast.mean.tolist(), forecast.std.tolist()
        return self._mean[steps - 1], self._std[steps - 1]


def verify_replicas_in_sync(
    checker: SensorModelChecker, tracker: ProxyModelTracker
) -> bool:
    """Test hook: do the two replicas predict the same next value?"""
    return checker._model.predict_next() == tracker._model.predict_next()
