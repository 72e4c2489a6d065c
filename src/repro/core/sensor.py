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

Every radio frame, flash page and CPU cycle is counted on the node's energy
meter.  A frame is its payload: a batch leaves as a one-frame run of
:meth:`~repro.radio.network.Network.send_uplinks`, the proxy's model updates
and retunes reach :meth:`PrestoSensor.handle_packet` as bare payloads told
apart by type, and the sensor's push and batch counts are read off its
uplink's ledger.

Steps 1 and 2 run for every sensor on a simulator at once, in the
:class:`~repro.core.fleet.SensorFleet`'s one pass per epoch; a sensor is
a view of its fleet row, and handles the events the pass hands it.
"""

from __future__ import annotations

import numpy as np

from repro.core.config import PrestoConfig
from repro.core.fleet import SensorFleet
from repro.core.matching import BATCH_QUANT_STEP, SensorOperatingPoint
from repro.core.push import ModelUpdate, SensorModelChecker
from repro.energy.constants import (
    COMPRESS_CYCLES_PER_BYTE,
    SAMPLE_ACQUIRE_CYCLES,
    WAVELET_CYCLES_PER_SAMPLE,
)
from repro.energy.meter import EnergyMeter
from repro.radio.mac import LplMac
from repro.radio.network import Network
from repro.signal.codecs import encoded_size_bytes
from repro.signal.compress import (
    compress_block,
    compressed_size_bytes,
    decompress_block,
)
from repro.storage.archive import SensorArchive
from repro.sync.clock import DriftingClock

#: bytes of a pull request: window start/end (8) + kind/flags (4)
PULL_REQUEST_BYTES = 12


class PrestoSensor:
    """One remote sensor node in a PRESTO cell: a view of its *fleet* row
    (without a fleet, the sensor is the only row of one of its own)."""

    def __init__(
        self,
        sensor_id: int,
        name: str,
        config: PrestoConfig,
        network: Network,
        mac: LplMac,
        meter: EnergyMeter,
        archive: SensorArchive,
        clock: DriftingClock | None = None,
        fleet: SensorFleet | None = None,
    ) -> None:
        self.sensor_id = int(sensor_id)
        self.name = name
        self.config = config
        self.network = network
        self.mac = mac
        self.meter = meter
        self.archive = archive
        self.clock = clock

        self.checker: SensorModelChecker | None = None
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

        self.pulls_served = 0
        #: pushes delivered before the first model activated (None: not yet)
        self._cold_pushes: int | None = None
        self.fleet = fleet if fleet is not None else SensorFleet()
        # CPU joules per reading: the same cycles on the same CPU every epoch
        self.row = self.fleet.add(
            self, config.node_profile.cpu.energy_for_cycles(SAMPLE_ACQUIRE_CYCLES)
        )

    @property
    def epoch(self) -> int:
        """Last sampled epoch index (-1 before the first)."""
        return self.fleet.epoch

    @property
    def samples_taken(self) -> int:
        """Readings taken (missed epochs excluded)."""
        return self.fleet.samples(self.row)

    @property
    def batches_sent(self) -> int:
        """Batches the proxy received: the uplink's delivered
        ``radio.batch`` frames."""
        return self.mac.uplink.deliveries("radio.batch")

    @property
    def pushes_delivered(self) -> int:
        """Pushed readings the proxy received: the uplink's delivered
        ``radio.push`` frames."""
        return self.mac.uplink.deliveries("radio.push")

    @property
    def cold_pushes(self) -> int:
        """Pushes delivered before any model was active (every reading is
        pushed then)."""
        return self.pushes_delivered if self._cold_pushes is None else self._cold_pushes

    @property
    def pushes_sent(self) -> int:
        """Pushes delivered for breaking the active model."""
        return self.pushes_delivered - self.cold_pushes

    # -- sampling ----------------------------------------------------------

    def on_sample(self, true_time: float, value: float) -> None:
        """Process one reading: archive it, then decide whether to transmit.

        A pass of the sensor's own fleet; a sensor on a shared fleet is
        sampled by the fleet's pass instead.
        """
        self.fleet.feed(true_time, float(value))

    def on_missed_sample(self) -> None:
        """Account for an epoch whose reading was lost (sensing dropout).

        The model replica must advance exactly once per epoch on both sides,
        so a missed reading is treated as "as predicted": the checker
        observes its own prediction, mirroring the proxy's silent advance.
        Advancing the model costs the same CPU as verifying a reading, so
        the check energy is charged here too — dropout does not make the
        model loop free.
        """
        self.fleet.feed(float("nan"), float("nan"))

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
        cycle_j = self.config.node_profile.cpu.energy_per_cycle_j
        point = self.operating_point
        if values.size >= 4:
            self.meter.record("cpu.compress", cycle_j, WAVELET_CYCLES_PER_SAMPLE * values.size)
            block = compress_block(values, quant_step=point.quant_step)
            payload_bytes = compressed_size_bytes(block)
            decoded = decompress_block(block)
        else:
            payload_bytes = encoded_size_bytes(values, step=point.quant_step)
            decoded = values
        self.meter.record("cpu.compress", cycle_j, COMPRESS_CYCLES_PER_BYTE * payload_bytes)
        payload = {
            "sensor": self.sensor_id,
            "timestamps": times,
            "values": np.asarray(decoded, dtype=np.float64),
            "quant_step": point.quant_step,
        }
        # the frame also carries an 8-byte batch header
        self.network.send_uplinks([self.name], [payload], payload_bytes + 8, "radio.batch")
        self._batch_times = []
        self._batch_values = []
        self._batch_started_at = None

    # -- proxy-directed control ---------------------------------------------------

    def handle_packet(self, payload: ModelUpdate | SensorOperatingPoint) -> None:
        """Act on a downlink payload from the proxy, by its type."""
        if isinstance(payload, ModelUpdate):
            self._pending_update = payload
            self.fleet.expect(self.row)
        elif isinstance(payload, SensorOperatingPoint):
            self.apply_operating_point(payload)
        else:
            raise ValueError(f"sensor cannot handle {type(payload).__name__}")

    def apply_operating_point(self, point: SensorOperatingPoint) -> None:
        """Retune radio duty cycle / delta / batching as the proxy asks."""
        previous_batching = self.operating_point.batch_interval_s > 0
        self.operating_point = point
        self.mac.set_check_interval(point.check_interval_s)
        if self.checker is not None:
            self.checker.delta = point.push_delta
        self.fleet.refresh(self.row)
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
        return self.fleet.last_reading(self.row)

    # -- stats -------------------------------------------------------------------

    @property
    def push_fraction(self) -> float:
        """Fraction of samples transmitted individually."""
        if self.samples_taken == 0:
            return 0.0
        return (self.pushes_sent + self.cold_pushes) / self.samples_taken
