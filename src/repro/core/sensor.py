"""The PRESTO sensor.

"PRESTO is a proxy-centric architecture where much of the intelligence
resides at the proxy, and the remote sensor is kept simple ... simple, yet
highly tunable and can be completely controlled by the proxy" (Section 4).

The sensor does exactly four things, all proxy-directed:

1. archives every reading locally (:class:`~repro.storage.archive.SensorArchive`);
2. verifies each reading against the proxy-supplied model and transmits
   only on failure (or batches, when so instructed);
3. serves archive pulls on proxy cache misses;
4. applies operating-point retunes (duty cycle, delta, batching,
   compression) shipped by the proxy.

Every radio byte, flash page and CPU cycle charges the node's energy meter.
"""

from __future__ import annotations

import numpy as np

from repro.core.config import PrestoConfig
from repro.core.matching import BATCH_QUANT_STEP, SensorOperatingPoint
from repro.core.push import ModelUpdate, SensorModelChecker
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
from repro.signal.compress import (
    compress_block,
    compressed_size_bytes,
    decompress_block,
)
from repro.storage.archive import SensorArchive
from repro.sync.clock import DriftingClock

#: bytes of a single pushed reading: epoch (4) + value (4) + local time (4)
PUSH_PAYLOAD_BYTES = 12
#: bytes of a pull request: window start/end (8) + kind/flags (4)
PULL_REQUEST_BYTES = 12


class PrestoSensor:
    """One remote sensor node in a PRESTO cell."""

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
        self.checker: SensorModelChecker | None = None
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
        self.meter.charge("cpu.sample", self._sample_j)
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

        self.meter.charge("cpu.model_check", self._check_j)
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
        self.meter.charge("cpu.model_check", self._check_j)
        self.checker.advance_silent()

    def _maybe_activate_model(self) -> None:
        update = self._pending_update
        if update is not None and self.epoch >= update.activation_epoch:
            self.checker = SensorModelChecker(update)
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
            payload={
                "sensor": self.sensor_id,
                "epoch": self.epoch,
                "value": float(value),
                "local_time": float(local_time),
            },
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
            self.meter.charge(
                "cpu.compress",
                cpu.energy_for_cycles(WAVELET_CYCLES_PER_SAMPLE * values.size),
            )
            block = compress_block(values, quant_step=point.quant_step)
            payload_bytes = compressed_size_bytes(block)
            decoded = decompress_block(block)
        else:
            payload_bytes = encoded_size_bytes(values, step=point.quant_step)
            decoded = values
        self.meter.charge(
            "cpu.compress",
            cpu.energy_for_cycles(COMPRESS_CYCLES_PER_BYTE * payload_bytes),
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
