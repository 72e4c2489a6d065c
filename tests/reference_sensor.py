"""The per-sensor sampling loop, kept as the tests' reference.

Bit for bit the sensor as it was when every sensor on a simulator was
sampled by its own cell's task, one ``on_sample`` / ``on_missed_sample``
call per sensor per epoch, and each checker stepped its own model with
``step``.  ``test_fleet.py`` builds cells of :class:`ReferenceSensor`
sampled by :class:`ReferenceFleet` and holds the
:class:`~repro.core.fleet.SensorFleet`'s one pass per epoch to what they
leave: packets, pushes, trajectories, meters and archives.
"""

from __future__ import annotations

import copy
from array import array

import numpy as np

from repro.core.config import PrestoConfig
from repro.core.matching import BATCH_QUANT_STEP, SensorOperatingPoint
from repro.core.push import TRAJECTORY_EPOCHS, ModelUpdate, PushDecision
from repro.core.sensor import PUSH_PAYLOAD_BYTES
from repro.energy.constants import (
    COMPRESS_CYCLES_PER_BYTE,
    MODEL_CHECK_CYCLES,
    SAMPLE_ACQUIRE_CYCLES,
    WAVELET_CYCLES_PER_SAMPLE,
)
from repro.energy.meter import EnergyMeter
from repro.radio.mac import LplMac
from repro.radio.network import Network
from repro.radio.packet import Packet, PacketKind
from repro.signal.codecs import encoded_size_bytes
from repro.signal.compress import compress_block, compressed_size_bytes, decompress_block
from repro.simulation.kernel import Simulator
from repro.simulation.process import PeriodicTask
from repro.storage.archive import SensorArchive
from repro.sync.clock import DriftingClock


class ReferenceChecker:
    """A checker stepping its own model copy, recording its trajectory."""

    def __init__(self, update: ModelUpdate) -> None:
        self.update = update
        self._model = copy.deepcopy(update.model)
        self._model.align_to_time(update.activation_epoch * self._model.sample_period_s)
        self.delta = float(update.delta)
        self.checks = 0
        self.pushes = 0
        self.observed = array("d")
        self.pushed = bytearray()

    @property
    def check_cycles(self) -> float:
        return self._model.check_cycles

    @property
    def trajectory(self) -> tuple[memoryview, memoryview]:
        return memoryview(self.observed), memoryview(self.pushed)

    def process(self, value: float) -> PushDecision:
        predicted, push = self._model.step(value, self.delta)
        self.checks += 1
        if push:
            self.pushes += 1
        if len(self.pushed) < TRAJECTORY_EPOCHS:
            self.observed.append(value if push else predicted)
            self.pushed.append(push)
        return PushDecision(push, predicted, abs(value - predicted))

    def advance_silent(self) -> float:
        predicted, _ = self._model.step(None, self.delta)
        self.checks += 1
        if len(self.pushed) < TRAJECTORY_EPOCHS:
            self.observed.append(predicted)
            self.pushed.append(False)
        return predicted


class ReferenceFleet:
    """Stands in for the fleet in a cell of :class:`ReferenceSensor`: each
    cell's sensors are sampled by that cell's own task, armed when the
    cell starts its tasks, one sensor after another."""

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self._cells: list[tuple[list[ReferenceSensor], np.ndarray]] = []
        self._tasks: list[PeriodicTask] = []

    def load(self, sensors: list[ReferenceSensor], values: np.ndarray) -> None:
        self._cells.append((sensors, values))

    def start(self, period_s: float) -> None:
        sensors, values = self._cells[len(self._tasks)]
        epoch = iter(range(values.shape[1]))

        def sample_all() -> None:
            at = next(epoch, None)
            if at is None:
                return
            now = self.sim.now
            for sensor, value in zip(sensors, values[:, at].tolist()):
                if value != value:  # NaN: a sensing dropout
                    sensor.on_missed_sample()
                else:
                    sensor.on_sample(now, value)

        task = PeriodicTask(self.sim, period_s, sample_all, start_offset=0.0)
        self._tasks.append(task)
        task.start()

    def stop(self) -> None:
        for task in self._tasks:
            task.stop()


class ReferenceSensor:
    """One sensor stepped alone, each epoch, as every sensor once was."""

    def __init__(
        self,
        sensor_id: int,
        name: str,
        config: PrestoConfig,
        network: Network,
        mac: LplMac,
        meter: EnergyMeter,
        archive: SensorArchive,
        proxy_name: str = "proxy",
        clock: DriftingClock | None = None,
        fleet: ReferenceFleet | None = None,
    ) -> None:
        self.sensor_id = int(sensor_id)
        self.name = name
        self.config = config
        self.network = network
        self.mac = mac
        self.meter = meter
        self.archive = archive
        self.proxy_name = proxy_name
        self.clock = clock

        self.epoch = -1                      # last sampled epoch index
        self.checker: ReferenceChecker | None = None
        # CPU joules per reading and per model check (the latter set with
        # each checker): the same cycles on the same CPU every epoch
        self._sample_j = config.node_profile.cpu.energy_for_cycles(
            SAMPLE_ACQUIRE_CYCLES
        )
        self._check_j = 0.0
        self._pending_update: ModelUpdate | None = None
        self.operating_point = SensorOperatingPoint(
            check_interval_s=config.default_check_interval_s,
            push_delta=config.push_delta,
            batch_interval_s=config.batch_interval_s,
            quant_step=BATCH_QUANT_STEP,
        )
        self._batch_times: list[float] = []
        self._batch_values: list[float] = []
        self._batch_started_at: float | None = None

        self.samples_taken = 0
        self.pushes_sent = 0
        self.batches_sent = 0
        self.pulls_served = 0
        self.cold_pushes = 0
        self._last_reading: tuple[float, float] | None = None

    # -- sampling ----------------------------------------------------------

    def on_sample(self, true_time: float, value: float) -> None:
        """Process one reading: archive it, then decide whether to transmit."""
        self.epoch += 1
        self.samples_taken += 1
        self.meter.record("cpu.sample", self._sample_j)
        local_time = self.clock.read(true_time) if self.clock else true_time
        self._last_reading = (true_time, float(value))
        self.archive.append(true_time, value)

        self._maybe_activate_model()

        if self.operating_point.batch_interval_s > 0:
            self._batch(true_time, value)
            return

        if self.checker is None:
            # Cold start: no model yet, push every reading so the proxy can
            # build a training window.
            if self._send_push(value, local_time):
                self.cold_pushes += 1
            return

        self.meter.record("cpu.model_check", self._check_j)
        decision = self.checker.process(value)
        if decision.push:
            if self._send_push(value, local_time):
                self.pushes_sent += 1

    def on_missed_sample(self) -> None:
        """Account for an epoch whose reading was lost (sensing dropout).

        The model replica must advance exactly once per epoch on both sides,
        so a missed reading is treated as "as predicted": the checker
        observes its own prediction, mirroring the proxy's silent advance.
        Advancing the model costs the same CPU as verifying a reading, so
        the check energy is charged here too — dropout does not make the
        model loop free.
        """
        self.epoch += 1
        self._maybe_activate_model()
        if self.operating_point.batch_interval_s > 0 or self.checker is None:
            return
        self.meter.record("cpu.model_check", self._check_j)
        self.checker.advance_silent()

    def _maybe_activate_model(self) -> None:
        update = self._pending_update
        if update is not None and self.epoch >= update.activation_epoch:
            self.checker = ReferenceChecker(update)
            self._check_j = self.config.node_profile.cpu.energy_for_cycles(
                max(self.checker.check_cycles, MODEL_CHECK_CYCLES)
            )
            self._pending_update = None

    def _send_push(self, value: float, local_time: float) -> bool:
        packet = Packet(
            kind=PacketKind.PUSH,
            src=self.name,
            dst=self.proxy_name,
            payload_bytes=PUSH_PAYLOAD_BYTES,
            payload=(self.sensor_id, self.epoch, float(value), float(local_time)),
        )
        outcome = self.network.send(packet, energy_category="radio.push")
        return outcome.delivered

    # -- batching ---------------------------------------------------------------

    def _batch(self, true_time: float, value: float) -> None:
        if self._batch_started_at is None:
            self._batch_started_at = true_time
        self._batch_times.append(true_time)
        self._batch_values.append(float(value))
        if true_time - self._batch_started_at >= self.operating_point.batch_interval_s:
            self.flush_batch()

    def flush_batch(self) -> None:
        """Compress and transmit the accumulated batch (if any)."""
        if not self._batch_values:
            return
        values = np.asarray(self._batch_values, dtype=np.float64)
        times = np.asarray(self._batch_times, dtype=np.float64)
        cpu = self.config.node_profile.cpu
        point = self.operating_point
        if values.size >= 4:
            self.meter.record(
                "cpu.compress", cpu.energy_per_cycle_j, WAVELET_CYCLES_PER_SAMPLE * values.size
            )
            block = compress_block(values, quant_step=point.quant_step)
            payload_bytes = compressed_size_bytes(block)
            decoded = decompress_block(block)
        else:
            payload_bytes = encoded_size_bytes(values, step=point.quant_step)
            decoded = values
        self.meter.record(
            "cpu.compress", cpu.energy_per_cycle_j, COMPRESS_CYCLES_PER_BYTE * payload_bytes
        )
        packet = Packet(
            kind=PacketKind.BATCH,
            src=self.name,
            dst=self.proxy_name,
            payload_bytes=payload_bytes + 8,  # + batch header
            payload={
                "sensor": self.sensor_id,
                "timestamps": times,
                "values": np.asarray(decoded, dtype=np.float64),
                "quant_step": point.quant_step,
            },
        )
        outcome = self.network.send(packet, energy_category="radio.batch")
        if outcome.delivered:
            self.batches_sent += 1
        self._batch_times = []
        self._batch_values = []
        self._batch_started_at = None

    # -- proxy-directed control ---------------------------------------------------

    def handle_packet(self, packet: Packet) -> None:
        """Dispatch a downlink packet from the proxy."""
        if packet.kind is PacketKind.MODEL_UPDATE:
            update: ModelUpdate = packet.payload
            self._pending_update = update
            self._maybe_activate_model()
        elif packet.kind is PacketKind.OPERATING_POINT:
            self.apply_operating_point(packet.payload)
        elif packet.kind is PacketKind.PULL_REQUEST:
            # Pulls are served synchronously through serve_pull(); packets of
            # this kind arriving via the event path are acknowledgements only.
            pass
        else:
            raise ValueError(f"sensor cannot handle {packet.kind}")

    def apply_operating_point(self, point: SensorOperatingPoint) -> None:
        """Retune radio duty cycle / delta / batching as the proxy asks."""
        previous_batching = self.operating_point.batch_interval_s > 0
        self.operating_point = point
        self.mac.set_check_interval(point.check_interval_s)
        if self.checker is not None:
            self.checker.delta = point.push_delta
        if previous_batching and point.batch_interval_s == 0:
            self.flush_batch()

    # -- archive pulls ----------------------------------------------------------

    def serve_pull(
        self, start: float, end: float
    ) -> tuple[np.ndarray, np.ndarray, int, int]:
        """Read ``[start, end]`` from the archive for a proxy pull.

        Returns ``(timestamps, values, resolution_level, reply_bytes)``;
        flash read energy is charged by the archive itself.  Unflushed
        buffered readings are flushed first so the freshest data is
        servable (costing the flush's flash writes, as on a real node).
        """
        self.archive.flush()
        times, values, level = self.archive.read_range(start, end)
        self.pulls_served += 1
        reply_bytes = max(int(values.size) * 8, 8)
        return times, values, level, reply_bytes

    def current_reading(self) -> tuple[float, float] | None:
        """Latest sampled (time, value) for NOW pulls, if any exists.

        Served from RAM — the freshest reading is still in the sensor's
        working memory on a real node, so no flash read is charged.
        """
        return self._last_reading

    # -- stats -------------------------------------------------------------------

    @property
    def push_fraction(self) -> float:
        """Fraction of samples transmitted individually."""
        if self.samples_taken == 0:
            return 0.0
        return (self.pushes_sent + self.cold_pushes) / self.samples_taken
