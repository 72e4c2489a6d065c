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
takes one model step per sensor-epoch, in a :class:`CheckBank` that steps
every checker of one model shape at once (the sensor fleet's pass).  The
sensor's :class:`SensorModelChecker` records its *trajectory* — per step,
the value it observed and whether it pushed — and a
:class:`ProxyModelTracker` linked to it reads its own steps off that
trajectory in order: a silent epoch is a
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
import weakref
from array import array
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from repro.timeseries import MODEL_FAMILIES
from repro.timeseries.base import TimeSeriesModel
from repro.timeseries.linear import LinearBatch, batch_shape

#: steps a checker records: more than the ~2 800 epochs between the default
#: daily refits at 31 s sampling, at 9 bytes each; a tracker forks past them
TRAJECTORY_EPOCHS = 4096
#: the push flag of a trajectory step not recorded (yet, or ever)
UNRECORDED = 2


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


def _replica(update: ModelUpdate) -> TimeSeriesModel:
    """A copy of *update*'s model, aligned to its activation epoch."""
    model = copy.deepcopy(update.model)
    model.align_to_time(update.activation_epoch * model.sample_period_s)
    return model


#: a new bank's columns, replaced by its first row
_NO_ROWS = np.zeros(0, dtype=np.int64)
_NO_STEPS = np.zeros((0, 1))
_NO_FLAGS = np.zeros((0, 1), dtype=np.uint8)


class CheckBank:
    """Sensor-side model replicas checked together: the one check loop.

    Each row is one :class:`SensorModelChecker`'s model, its *delta*, its
    check and push counts and its recorded trajectory.  :meth:`step` runs
    one protocol epoch — predict, compare, observe — on every row at once:
    a bank of one :class:`~repro.timeseries.linear.LinearBatch` *shape*
    steps its rows as columns, a bank of shape None steps each row's model
    by its own ``step``.  A checker built alone gets a bank of its own;
    the sensor fleet keeps one shared bank per shape.
    """

    def __init__(self, shape: tuple | None) -> None:
        self.shape = shape
        self._batch = LinearBatch(shape) if shape is not None else None
        # each row's checker (weakly: a checker owns its own bank) and model
        self._checkers: list[weakref.ref[SensorModelChecker]] = []
        self._models: list[TimeSeriesModel] = []
        #: caller-assigned id per row (the fleet's sensor row), -1 if none
        self.owners = self.checks = self.pushes = _NO_ROWS
        self.delta = _NO_ROWS.astype(np.float64)
        self._observed = _NO_STEPS
        self._pushed = _NO_FLAGS
        self._width = 0     # trajectory entries a row has room for
        self._longest = 0   # the most checks any row has made

    @property
    def size(self) -> int:
        """Rows in the bank."""
        return len(self._models)

    def _fit(self, rows: int, epochs: int) -> None:
        """Room for *rows* rows and trajectories of *epochs* entries."""
        capacity, width = self.delta.size, self._width
        if rows <= capacity and (epochs <= width or width == TRAJECTORY_EPOCHS):
            return
        capacity = max(capacity, 1)
        while capacity < rows:
            capacity *= 2
        while width < min(epochs, TRAJECTORY_EPOCHS):
            width = min(max(2 * width, 64), TRAJECTORY_EPOCHS)
        # one spare column takes the writes of rows past TRAJECTORY_EPOCHS
        observed = np.zeros((capacity, width + 1))
        pushed = np.full((capacity, width + 1), UNRECORDED, dtype=np.uint8)
        old = self._observed.shape
        observed[: old[0], : old[1] - 1] = self._observed[:, :-1]
        pushed[: old[0], : old[1] - 1] = self._pushed[:, :-1]
        self._observed, self._pushed, self._width = observed, pushed, width
        # row-major flat views: step writes row i's entry at _starts[i] + checks
        self._observed_flat, self._pushed_flat = observed.reshape(-1), pushed.reshape(-1)
        self._starts = np.arange(capacity) * (width + 1)
        for row in range(self.size):
            self._show(row)
        for name in ("owners", "delta", "checks", "pushes"):
            column = getattr(self, name)
            grown = np.zeros(capacity, dtype=column.dtype)
            grown[: column.size] = column
            setattr(self, name, grown)

    def _append(self, checker: SensorModelChecker, owner: int, delta: float) -> int:
        """A new row for *checker*, its model in the state it holds."""
        self._fit(self.size + 1, self._longest)
        new = self.size
        if self._batch is not None:
            self._batch.add(checker._own_model)
        self._checkers.append(weakref.ref(checker))
        self._models.append(checker._own_model)
        self._pushed[new] = UNRECORDED
        self._show(new)
        self.owners[new] = owner
        self.delta[new] = delta
        self.checks[new] = self.pushes[new] = 0
        return new

    def adopt(self, checker: SensorModelChecker, owner: int = -1) -> None:
        """Move *checker*'s row — model, delta, counts, trajectory — here."""
        source, row = checker.bank, checker.row
        source.model(row)   # the model object takes the row's state
        recorded = min(int(source.checks[row]), TRAJECTORY_EPOCHS)
        self._fit(self.size + 1, recorded)
        new = self._append(checker, owner, float(source.delta[row]))
        self.checks[new] = source.checks[row]
        self.pushes[new] = source.pushes[row]
        self._observed[new, :recorded] = source._observed[row, :recorded]
        self._pushed[new, :recorded] = source._pushed[row, :recorded]
        self._longest = max(self._longest, int(source.checks[row]))
        source._remove(row)
        checker.bank, checker.row = self, new

    def _remove(self, row: int) -> None:
        """Drop *row*; the last row moves into its place."""
        last = self.size - 1
        if self._batch is not None:
            self._batch.remove(row)
        for column in (self.owners, self.delta, self.checks, self.pushes):
            column[row] = column[last]
        self._observed[row] = self._observed[last]
        self._pushed[row] = self._pushed[last]
        moved, model = self._checkers.pop(), self._models.pop()
        if row != last:
            self._checkers[row], self._models[row] = moved, model
            checker = moved()
            if checker is not None:
                checker.row = row
            self._show(row)
        self._longest = int(self.checks[:last].max()) if last else 0

    def model(self, row: int) -> TimeSeriesModel:
        """Row *row*'s model object, holding the row's current state."""
        model = self._models[row]
        if self._batch is not None:
            self._batch.store(row, model)
        return model

    def _show(self, row: int) -> None:
        """Point row *row*'s checker at the row's trajectory storage."""
        checker, width = self._checkers[row](), self._width
        if checker is None:
            return
        checker.trajectory = (
            memoryview(self._observed[row, :width]),
            memoryview(self._pushed[row, :width]),
        )

    def step(self, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """One epoch on every row; ``values[i]`` is row *i*'s reading, NaN
        for none.  Returns the predictions and which rows pushed.

        A reading further than *delta* from the prediction is pushed and
        observed; otherwise the row observes its prediction.
        """
        n = self.size
        delta = self.delta[:n]
        if self._batch is not None:
            one_step, predicted = self._batch.predict()
            pushed = np.abs(values - predicted) > delta
            observed = np.where(pushed, values, predicted)
            self._batch.advance(observed, one_step)
        else:
            steps = [
                model.step(value if value == value else None, bound)
                for model, value, bound in zip(self._models, values.tolist(), delta.tolist())
            ]
            predicted = np.array([step[0] for step in steps])
            pushed = np.array([step[1] for step in steps], dtype=bool)
            observed = np.where(pushed, values, predicted)
        self._longest += 1
        if self._longest > self._width:
            self._fit(n, self._longest)
        at = self.checks[:n]
        if self._longest > TRAJECTORY_EPOCHS:
            at = np.minimum(at, TRAJECTORY_EPOCHS)
        at = self._starts[:n] + at
        self._observed_flat[at] = observed
        self._pushed_flat[at] = pushed
        self.checks[:n] += 1
        self.pushes[:n] += pushed
        return predicted, pushed


class SensorModelChecker:
    """Sensor-side replica of the model, running the cheap check loop.

    The checker is a view of its row in a :class:`CheckBank`.  For its
    first :data:`TRAJECTORY_EPOCHS` steps the row records what it observed
    — the reading when it pushed, else its prediction — and whether it
    pushed; :attr:`trajectory` reads them in place.
    """

    def __init__(
        self, update: ModelUpdate, bank: CheckBank | None = None, owner: int = -1
    ) -> None:
        """A replica of *update*'s model, a new row of *bank* (by default
        a bank of its own) on behalf of *owner*."""
        self.update = update
        self._own_model = _replica(update)
        self.bank = bank if bank is not None else CheckBank(batch_shape(self._own_model))
        #: the trajectory, read in place: per step what the checker
        #: observed, and whether it pushed (1), stayed silent (0) or has
        #: not recorded the step (:data:`UNRECORDED`, or past the end)
        self.trajectory: tuple[memoryview, memoryview]
        self.row = self.bank._append(self, owner, float(update.delta))

    @property
    def delta(self) -> float:
        """The push threshold (retunable without a new model)."""
        return float(self.bank.delta[self.row])

    @delta.setter
    def delta(self, value: float) -> None:
        self.bank.delta[self.row] = float(value)

    @property
    def checks(self) -> int:
        """Epochs checked so far."""
        return int(self.bank.checks[self.row])

    @property
    def pushes(self) -> int:
        """Readings pushed so far."""
        return int(self.bank.pushes[self.row])

    @property
    def _model(self) -> TimeSeriesModel:
        """The replica's model, holding its current state."""
        return self.bank.model(self.row)

    @property
    def check_cycles(self) -> float:
        """CPU cycles per verification (for the energy model)."""
        return self._own_model.check_cycles

    def _step_alone(self, value: float) -> tuple[float, bool]:
        """One epoch of the bank this checker has to itself."""
        if self.bank.size != 1:
            raise RuntimeError("a checker in a shared bank steps with its bank")
        predicted, pushed = self.bank.step(np.array([value], dtype=np.float64))
        return float(predicted[0]), bool(pushed[0])

    def process(self, value: float) -> PushDecision:
        """Check one reading; advances the replica identically to the proxy."""
        predicted, push = self._step_alone(float(value))
        return PushDecision(push, predicted, abs(value - predicted))

    def advance_silent(self) -> float:
        """Advance one epoch with no reading (sensing dropout).

        The replica observes its own prediction — exactly what the proxy
        substitutes for a silent epoch — so a missed sample keeps both
        sides in lockstep.  Returns the substituted value.
        """
        return self._step_alone(float("nan"))[0]

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
    would have left.  A linked tracker copies the update's model only then
    (no reader mutates a shipped update's model).
    """

    def __init__(
        self, update: ModelUpdate, checker: SensorModelChecker | None = None
    ) -> None:
        self._update = update
        self._own_model = None if checker is not None else _replica(update)
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
        return self._catch_up()

    def _catch_up(self) -> TimeSeriesModel:
        """Fold the trajectory read so far into the own model (copied from
        the update at first need); returns the model.

        ``observe`` of each epoch's observed value leaves the state ``step``
        left on the sensor (the :meth:`TimeSeriesModel.step` contract).
        """
        if self._own_model is None:
            self._own_model = _replica(self._update)
        checker = self._checker
        if checker is not None and self._folded < self._cursor:
            observe = self._own_model.observe
            for value in checker.trajectory[0][self._folded : self._cursor].tolist():
                observe(value)
            self._folded = self._cursor
        return self._own_model

    def _fork(self) -> None:
        """Leave the trajectory: the own model steps alone from here."""
        self._catch_up()
        self._checker = None

    def _silent_prefix(self, count: int) -> tuple[int, memoryview]:
        """How many of the next *count* epochs the trajectory holds as
        silent, and the trajectory's observed values."""
        if self._checker is None:
            return 0, memoryview(b"")
        observed, pushed = self._checker.trajectory
        window = pushed[self._cursor : self._cursor + count].tobytes()
        return len(window) - len(window.lstrip(b"\0")), observed

    def advance_silent(self) -> float:
        """Advance one epoch without a push; returns the substituted value."""
        silent, observed = self._silent_prefix(1)
        if silent:
            predicted = observed[self._cursor]
            self._cursor += 1
        else:
            self._fork()
            predicted, _ = self._model.step(None, self.delta)
        self.substitutions += 1
        return predicted

    def silent_run(self, count: int) -> array:
        """Substituted values for the next *count* epochs, all without a push.

        An ``array("d")`` the caller may extend before viewing it as NumPy.
        """
        start = self._cursor
        read, observed = self._silent_prefix(count)
        values = array("d", observed[start : start + read].tobytes())
        self._cursor += read
        self.substitutions += read
        advance = self.advance_silent
        values.extend(advance() for _ in range(count - read))
        return values

    def read_pushes(self, offsets: list[int], readings: list[float]) -> np.ndarray:
        """Advance through a run — *readings* pushed at *offsets* (rising,
        counted from the next epoch), every other epoch silent — as
        :meth:`silent_run` and :meth:`apply_push` would; returns the run's
        values, each silent epoch's substitute and each push's reading.

        The prefix the trajectory shows — silent epochs, then each push with
        its reading — is read at once; the rest steps epoch by epoch, so a
        tracker forks where the trajectory differs, and an unlinked one
        steps the whole run.
        """
        start = read = self._cursor
        count = 0
        values = array("d")
        if self._checker is not None:
            observed, pushed = self._checker.trajectory
            for offset, reading in zip(offsets, readings):
                at = start + offset
                if not (
                    at < len(pushed)
                    and pushed[read : at + 1].tobytes().lstrip(b"\0") == b"\1"
                    and observed[at] == reading
                ):
                    break
                read, count = at + 1, count + 1
            values.frombytes(observed[start:read].tobytes())
        self._cursor = read
        self.substitutions += read - start - count
        self.pushes_applied += count
        step = read - start
        for offset, reading in zip(offsets[count:], readings[count:]):
            values.extend(self.silent_run(offset - step))
            self.apply_push(reading)
            values.append(reading)
            step = offset + 1
        return np.frombuffer(values)

    def apply_push(self, value: float) -> None:
        """Advance one epoch with the pushed reading."""
        checker, at = self._checker, self._cursor
        observed, pushed = checker.trajectory if checker is not None else ((), ())
        if at < len(pushed) and pushed[at] == 1 and observed[at] == value:
            self._cursor = at + 1
        else:
            self._fork()
            self._model.observe(float(value))
        self.pushes_applied += 1

    def predicted_std(self) -> float:
        """One-step uncertainty of a substitution (model residual std,
        which stepping leaves as fitted)."""
        model = self._own_model if self._own_model is not None else self._update.model
        return model.residual_std


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
