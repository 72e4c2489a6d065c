"""The model-driven push protocol.

The heart of PRESTO (Section 2/3): the proxy fits a model, transmits its
parameters to the sensor, and from then on the *sensor* checks each reading
against the model, transmitting only on failure:

    sensor:  predicted, pushed = model.step(reading, delta)
             #   |reading - predicted| > delta: observe(reading), push it
             #   otherwise:                     observe(predicted)
    proxy:   on push:    observe(reading)     # same branch, same state
             on silence: observe(predicted)

Both sides advance the *same* model with the *same* values, so silence is
unambiguous ("the reading was within delta of what we both computed") and
the proxy's substituted series is exactly the sensor's.  Rare events are
caught by construction: any reading further than delta from the prediction
is pushed, no matter how unusual.

Since both replicas start from one :class:`ModelUpdate`, the simulation
takes one model step per sensor-epoch.  The sensor's
:class:`SensorModelChecker` records its *trajectory* — per step, the value
it observed and whether it pushed — and a :class:`ProxyModelTracker` linked
to it reads its own steps off that trajectory in order: a silent epoch is a
silent entry, whose value is the prediction the tracker would have
computed; a push is a pushed entry holding the same reading.  Each read is
checked, so by induction the tracker holds, step for step, the state it
would have stepped to.  At the first step it cannot read exactly — a push
it never received (ARQ exhausted, or overtaken by a query's silent
advance), a reading the checker did not push (a batch, a late model
update), or a step the trajectory does not cover — the tracker *forks*: it
folds the trajectory into its own model up to that step and steps the model
itself until the next activation, as an unlinked tracker always does.
"""

from __future__ import annotations

import copy
from array import array
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from repro.timeseries import MODEL_FAMILIES
from repro.timeseries.base import TimeSeriesModel

#: steps a checker records: more than the ~2 800 epochs between the default
#: daily refits at 31 s sampling, at 9 bytes each; a tracker forks past them
TRAJECTORY_EPOCHS = 4096


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


class PushDecision(NamedTuple):
    """Outcome of one sensor-side model check."""

    push: bool
    predicted: float
    error: float


class SensorModelChecker:
    """Sensor-side replica of the model, running the cheap check loop.

    For its first :data:`TRAJECTORY_EPOCHS` steps the checker records what
    it observed — the reading when it pushed, else its prediction — in
    :attr:`observed`, and whether it pushed in :attr:`pushed`.
    """

    def __init__(self, update: ModelUpdate) -> None:
        self.update = update
        self._model = copy.deepcopy(update.model)
        self._model.align_to_time(
            update.activation_epoch * self._model.sample_period_s
        )
        self.delta = float(update.delta)
        self.checks = 0
        self.pushes = 0
        self.observed = array("d")
        self.pushed = bytearray()

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
        if len(self.pushed) < TRAJECTORY_EPOCHS:
            self.observed.append(value if push else predicted)
            self.pushed.append(push)
        return PushDecision(push, predicted, abs(value - predicted))

    def advance_silent(self) -> float:
        """Advance one epoch with no reading (sensing dropout).

        The replica observes its own prediction — exactly what the proxy
        substitutes for a silent epoch — so a missed sample keeps both
        sides in lockstep.  Returns the substituted value.
        """
        predicted, _ = self._model.step(None, self.delta)
        self.checks += 1
        if len(self.pushed) < TRAJECTORY_EPOCHS:
            self.observed.append(predicted)
            self.pushed.append(False)
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

    Given the *checker* built from the same *update*, the tracker reads its
    steps off the checker's trajectory instead of stepping a model (see the
    module docstring).  :attr:`_model` — what the tracker's declared state
    and forecasts are made of — folds the trajectory read so far into the
    tracker's own model first, so every reader sees the state stepping
    would have left.
    """

    def __init__(
        self, update: ModelUpdate, checker: SensorModelChecker | None = None
    ) -> None:
        self._own_model = copy.deepcopy(update.model)
        self._own_model.align_to_time(
            update.activation_epoch * self._own_model.sample_period_s
        )
        self.delta = float(update.delta)
        self.substitutions = 0
        self.pushes_applied = 0
        self._checker = checker
        self._cursor = 0    # trajectory index of the next epoch
        self._folded = 0    # trajectory entries already in the own model

    def state(self) -> tuple[int, tuple]:
        """Replica-sync state: ``(family tag, (delta, substitutions,
        pushes applied, *model state))`` of the caught-up model.

        The tag indexes :data:`repro.timeseries.MODEL_FAMILIES` from 1.
        """
        model = self._model
        return MODEL_FAMILIES.index(type(model)) + 1, (
            self.delta,
            float(self.substitutions),
            float(self.pushes_applied),
            *model.state(),
        )

    @classmethod
    def from_state(cls, family: int, state: tuple) -> "ProxyModelTracker":
        """An unlinked tracker holding what :meth:`state` declared."""
        delta, substitutions, pushes_applied, *model_state = state
        tracker = cls.__new__(cls)
        tracker._own_model = MODEL_FAMILIES[family - 1].from_state(tuple(model_state))
        tracker.delta = float(delta)
        tracker.substitutions = int(substitutions)
        tracker.pushes_applied = int(pushes_applied)
        tracker._checker = None
        tracker._cursor = tracker._folded = 0
        return tracker

    @property
    def _model(self) -> TimeSeriesModel:
        """The tracker's model, caught up to its newest epoch."""
        self._catch_up()
        return self._own_model

    def _catch_up(self) -> None:
        """Fold the trajectory read so far into the own model.

        ``observe`` of each epoch's observed value leaves the state ``step``
        left on the sensor (the :meth:`TimeSeriesModel.step` contract).
        """
        checker = self._checker
        if checker is None or self._folded == self._cursor:
            return
        observe = self._own_model.observe
        for value in checker.observed[self._folded : self._cursor].tolist():
            observe(value)
        self._folded = self._cursor

    def _fork(self) -> None:
        """Leave the trajectory: the own model steps alone from here."""
        self._catch_up()
        self._checker = None

    def _silent_prefix(self, count: int) -> int:
        """How many of the next *count* epochs the trajectory holds as silent."""
        checker = self._checker
        if checker is None:
            return 0
        start = self._cursor
        stop = min(start + count, len(checker.pushed))
        first_push = checker.pushed.find(1, start, stop)
        return (stop if first_push < 0 else first_push) - start

    def advance_silent(self) -> float:
        """Advance one epoch without a push; returns the substituted value."""
        if self._silent_prefix(1):
            predicted = self._checker.observed[self._cursor]
            self._cursor += 1
        else:
            self._fork()
            predicted, _ = self._own_model.step(None, self.delta)
        self.substitutions += 1
        return predicted

    def silent_run(self, count: int) -> array:
        """Substituted values for the next *count* epochs, all without a push.

        An ``array("d")`` the caller may extend (the proxy appends the
        reading whose push ends the run) before viewing it as NumPy.
        """
        start = self._cursor
        read = self._silent_prefix(count)
        values = self._checker.observed[start : start + read] if read else array("d")
        self._cursor += read
        self.substitutions += read
        advance = self.advance_silent
        values.extend(advance() for _ in range(count - read))
        return values

    def apply_push(self, value: float) -> None:
        """Advance one epoch with the pushed reading."""
        checker, at = self._checker, self._cursor
        if (
            checker is not None
            and at < len(checker.pushed)
            and checker.pushed[at]
            and checker.observed[at] == value
        ):
            self._cursor = at + 1
        else:
            self._fork()
            self._own_model.observe(float(value))
        self.pushes_applied += 1

    def predicted_std(self) -> float:
        """One-step uncertainty of a substitution (model residual std)."""
        return self._own_model.residual_std


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
    """Test hook: do the two replicas hold the same state at the same epoch?

    The tracker is caught up to its newest epoch, and the models compare
    by the bytes of their declared state — what a replica sync ships.
    """
    if checker.checks != tracker.substitutions + tracker.pushes_applied:
        return False
    ours, theirs = checker._model, tracker._model
    return type(ours) is type(theirs) and all(
        np.asarray(a, dtype=np.float64).tobytes()
        == np.asarray(b, dtype=np.float64).tobytes()
        for a, b in zip(ours.state(), theirs.state(), strict=True)
    )
