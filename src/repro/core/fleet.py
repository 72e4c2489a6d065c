"""The sensor fleet: every sensor on one kernel sampled in one pass per epoch.

A PRESTO sensor "is kept simple" (Section 4): each epoch it archives its
reading, checks it against the proxy's model and transmits only when the
check fails.  All of that is the same arithmetic on every sensor, so the
fleet holds it as columns — one row per sensor of every cell on the
simulator — and runs each epoch as one pass:

1. model activations that fall due this epoch switch their rows' checkers;
2. the latest reading and the archive buffer's fill are column operations
   over all rows;
3. each :class:`~repro.core.push.CheckBank` of shared checkers steps all
   its rows at once (predict, compare, observe);
4. only rows with an event are then visited, in row order — which is the
   cells' order, then each cell's sensor order, as sensors were sampled
   one by one: a push, a full archive segment, a cold-start push or a
   batched reading.

A :class:`~repro.core.sensor.PrestoSensor` is a view of its row: what it
reports is read from the columns when asked for.  A reading waits in the
fleet's copy of the trace until its archive segment fills or something
reads the archive's RAM buffer.  The sample and check energy is counts ×
constants: a meter reads the row's readings taken and its checker's
checks, against the row's joules per reading and per check, whenever it
is read; an activation records the retired checker's checks in the meter.
A sensor built without a fleet gets one of its own,
which :meth:`~repro.core.sensor.PrestoSensor.on_sample` feeds one reading
at a time through the same pass.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.core.push import CheckBank, SensorModelChecker
from repro.timeseries.linear import batch_shape
from repro.energy.constants import MODEL_CHECK_CYCLES
from repro.simulation.kernel import Simulator
from repro.simulation.process import PeriodicTask

if TYPE_CHECKING:  # the sensor builds its fleet; annotate lazily to avoid the cycle
    from repro.core.sensor import PrestoSensor

#: activation epoch of a row with no model update pending
NEVER = np.iinfo(np.int64).max

#: the per-row columns: dtype, and the value a new row starts with
_COLUMNS: dict[str, tuple[type, float]] = {
    "_sample_j": (np.float64, 0.0),        # joules per reading
    "_check_j": (np.float64, 0.0),         # joules per check of the checker
    "_last_epoch": (np.int64, -1),         # epoch of the latest reading
    "_room": (np.int64, 0),                # readings until the archive segment fills
    "_pending_from": (np.int64, 0),        # first epoch not yet handed to the archive
    "_activation": (np.int64, NEVER),      # epoch the pending model activates
    "_eager": (np.bool_, True),            # not checking: visit on every reading
}


class SensorFleet:
    """Every sensor on one simulator, sampled in one pass per epoch.

    The owner of the kernel builds one, its cells add their sensors and
    load their traces, and :meth:`start` arms the one sampling task.
    """

    # the per-row columns (see _COLUMNS)
    _sample_j: np.ndarray
    _check_j: np.ndarray
    _last_epoch: np.ndarray
    _room: np.ndarray
    _pending_from: np.ndarray
    _activation: np.ndarray
    _eager: np.ndarray

    def __init__(self, sim: Simulator | None = None) -> None:
        self.sim = sim
        self.sensors: list[PrestoSensor] = []
        #: last sampled epoch
        self.epoch = -1
        self._task: PeriodicTask | None = None
        self._banks: dict[tuple | None, CheckBank] = {}
        self._traces: list[np.ndarray] = []   # each cell's, in row order
        self._values = np.zeros((0, 0))
        self._times = np.zeros(0)
        self._stale: list[int] = []
        self._gaps: list[bool] = []   # per epoch: does any row miss its reading?
        self._watched = True   # any row with _eager set
        self._next_activation = NEVER   # the earliest pending activation
        for name, (dtype, _) in _COLUMNS.items():
            setattr(self, name, np.zeros(0, dtype=dtype))

    # -- membership -----------------------------------------------------------

    def add(self, sensor: PrestoSensor, sample_j: float) -> int:
        """Give *sensor* a row (each reading costs *sample_j*); returns it."""
        if self.epoch >= 0:
            raise RuntimeError("sensors join a fleet before its first epoch")
        row = len(self.sensors)
        self.sensors.append(sensor)
        for name, (_, initial) in _COLUMNS.items():
            setattr(self, name, np.append(getattr(self, name), initial))
        self._sample_j[row] = sample_j
        self._room[row] = sensor.archive.segment_room
        sensor.archive.pending = lambda: self._settle(row)
        sensor.meter.counted = lambda: self._counts(row)
        return row

    def load(self, sensors: list[PrestoSensor], values: np.ndarray) -> None:
        """The readings of *sensors*, the fleet's newest rows: one trace
        row each, one column per epoch."""
        loaded = sum(trace.shape[0] for trace in self._traces)
        if [sensor.row for sensor in sensors] != list(range(loaded, loaded + len(sensors))):
            raise ValueError("a trace loads for the fleet's next rows, in order")
        self._traces.append(np.asarray(values, dtype=np.float64))

    def start(self, period_s: float) -> None:
        """Arm the sampling task: the first pass now, then every *period_s*."""
        if self._task is not None:
            self._task.start()   # re-armed after a stop; a no-op while armed
            return
        if self.sim is None:
            raise RuntimeError("a fleet without a simulator is fed by its sensor")
        # one cell's trace is read in place; several are stacked
        traces = self._traces
        if sum(trace.shape[0] for trace in traces) != len(self.sensors):
            raise ValueError("every sensor on a sampled fleet needs its trace loaded")
        self._values = np.vstack(traces) if len(traces) > 1 else traces[0]
        self._times = np.zeros(self._values.shape[1])
        self._gaps = np.isnan(self._values).any(axis=0).tolist()
        self._task = PeriodicTask(self.sim, period_s, self._tick, start_offset=0.0)
        self._task.start()

    def stop(self) -> None:
        """Disarm the sampling task."""
        if self._task is not None:
            self._task.stop()

    # -- the pass -------------------------------------------------------------

    def _tick(self) -> None:
        epoch = self.epoch + 1
        if epoch < self._values.shape[1]:
            assert self.sim is not None  # only start() arms the tick
            self._times[epoch] = self.sim.now
            self._pass(epoch)

    def feed(self, time: float, value: float) -> None:
        """One reading (NaN: a missed one) for a fleet of one sensor."""
        if len(self.sensors) != 1 or self.sim is not None:
            raise RuntimeError("a sensor on a simulator's fleet samples with its fleet")
        epoch = self.epoch + 1
        if epoch >= self._times.size:
            size = max(2 * epoch, 64)
            values, times = np.zeros((1, size)), np.zeros(size)
            values[0, :epoch] = self._values.reshape(-1)[:epoch]
            times[:epoch] = self._times[:epoch]
            self._values, self._times = values, times
        self._values[0, epoch] = value
        self._times[epoch] = time
        self._gaps.append(value != value)
        self._pass(epoch)

    def _pass(self, epoch: int) -> None:
        """Sample every row at *epoch* (see the module docstring)."""
        self.epoch = epoch
        values = self._values[:, epoch]
        now = float(self._times[epoch])
        if self._stale:
            for row in sorted(set(self._stale)):
                pending = self._values[row, self._pending_from[row] : epoch]
                self._room[row] = self.sensors[row].archive.segment_room - np.count_nonzero(
                    pending == pending
                )
            self._stale.clear()
        if epoch >= self._next_activation:
            for row in (self._activation <= epoch).nonzero()[0].tolist():
                self._activate(row)
        if self._gaps[epoch]:
            valid = values == values
            np.copyto(self._last_epoch, epoch, where=valid)
            self._room -= valid
        else:
            valid = True
            self._last_epoch.fill(epoch)
            self._room -= 1
        events = self._room == 0   # full archive segments
        if self._watched:
            events |= self._eager & valid
        pushed = np.zeros(values.size, dtype=bool)
        for bank in self._banks.values():
            if bank.size:
                rows = bank.owners[: bank.size]
                pushed[rows[bank.step(values[rows])[1]]] = True
        events |= pushed
        rows = events.nonzero()[0].tolist()
        if rows:
            readings, pushes = values.tolist(), pushed.tolist()
            for row in rows:
                self._visit(row, now, readings[row], pushes[row])

    def _visit(self, row: int, now: float, value: float, pushed: bool) -> None:
        """One row's events this epoch, in the order a sensor meets them."""
        sensor = self.sensors[row]
        batching = sensor.operating_point.batch_interval_s > 0
        if value == value:
            if self._room[row] == 0:
                self._settle(row)
            if batching:
                sensor._batch(now, value)
                return
            if sensor.checker is None:
                sensor._push(now, value, cold=True)
                return
        if pushed:
            sensor._push(now, value, cold=False)

    # -- row state ------------------------------------------------------------

    def _settle(self, row: int) -> None:
        """Hand *row*'s waiting readings to its archive's buffer."""
        self._stale.append(row)
        first, stop = int(self._pending_from[row]), self.epoch + 1
        if first >= stop:
            return
        self._pending_from[row] = stop
        values = self._values[row, first:stop]
        kept = values == values
        self.sensors[row].archive.extend(
            self._times[first:stop][kept].tolist(), values[kept].tolist()
        )

    def expect(self, row: int) -> None:
        """Note *row*'s pending model update; activate it if already due."""
        update = self.sensors[row]._pending_update
        self._activation[row] = NEVER if update is None else update.activation_epoch
        self._next_activation = int(self._activation.min())
        if update is not None and self.epoch >= update.activation_epoch:
            self._activate(row)

    def _activate(self, row: int) -> None:
        """Switch *row* to its pending model: a new checker, and the old one
        leaves the shared banks (its tracker may still read it)."""
        sensor = self.sensors[row]
        old, update = sensor.checker, sensor._pending_update
        assert update is not None  # rows are activated only with one pending
        if old is not None:
            if old.bank is self._banks.get(old.bank.shape):
                CheckBank(old.bank.shape).adopt(old)
            if old.checks:
                sensor.meter.record("cpu.model_check", float(self._check_j[row]), old.checks)
        shape = batch_shape(update.model)
        batching = sensor.operating_point.batch_interval_s > 0
        checker = SensorModelChecker(update, None if batching else self._bank(shape), row)
        sensor.checker = checker
        sensor._pending_update = None
        self._activation[row] = NEVER
        self._next_activation = int(self._activation.min())
        self._check_j[row] = sensor.config.node_profile.cpu.energy_for_cycles(
            max(checker.check_cycles, MODEL_CHECK_CYCLES)
        )
        self.refresh(row)

    def _bank(self, shape: tuple | None) -> CheckBank:
        """The shared bank of *shape*."""
        bank = self._banks.get(shape)
        if bank is None:
            bank = self._banks[shape] = CheckBank(shape)
        return bank

    def refresh(self, row: int) -> None:
        """Re-derive *row*'s pass flag and bank after its model or
        operating point changed."""
        sensor = self.sensors[row]
        checker = sensor.checker
        batching = sensor.operating_point.batch_interval_s > 0
        checking = checker is not None and not batching
        self._eager[row] = not checking
        self._watched = bool(self._eager.any())
        if checker is None:
            return
        shared = self._bank(checker.bank.shape)
        if checking and checker.bank is not shared:
            shared.adopt(checker, row)
        elif not checking and checker.bank is shared:
            CheckBank(shared.shape).adopt(checker)

    # -- row reads ------------------------------------------------------------

    def _counts(self, row: int) -> list[tuple[str, float, int]]:
        """*row*'s readings and its checker's checks, each against its
        joules (what the row's meter reads with its own)."""
        counts = []
        samples = self.samples(row)
        if samples:
            counts.append(("cpu.sample", float(self._sample_j[row]), samples))
        checker = self.sensors[row].checker
        if checker is not None and checker.checks:
            counts.append(("cpu.model_check", float(self._check_j[row]), checker.checks))
        return counts

    def samples(self, row: int) -> int:
        """Readings *row* has taken."""
        if self.epoch < 0:
            return 0
        values = self._values[row, : self.epoch + 1]
        return int(np.count_nonzero(values == values))

    def last_reading(self, row: int) -> tuple[float, float] | None:
        """*row*'s latest ``(time, reading)``, if it has taken one."""
        epoch = int(self._last_epoch[row])
        if epoch < 0:
            return None
        return float(self._times[epoch]), float(self._values[row, epoch])
