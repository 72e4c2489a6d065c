"""The PRESTO proxy.

Implements the full Section 3 component: the summary cache, the prediction
engine driving model-driven push, extrapolation-based cache-miss masking,
pull-on-miss against sensor archives, and query–sensor matching.

Epoch bookkeeping: sensor ``k`` samples at ``t = epoch * sample_period``.
The proxy advances each sensor's model tracker lazily — on pushes (up to the
pushed epoch) and at query time (up to the current epoch minus a small
grace period so an in-flight push is not preempted by a silent advance).
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from repro.core.cache import (
    PREDICTED_CODE,
    CacheEntry,
    CacheSnapshot,
    EntrySource,
    SummaryCache,
    aggregate,
)
from repro.core.config import PrestoConfig
from repro.core.continuous import ContinuousQueryEngine
from repro.core.matching import QuerySensorMatcher, SensorOperatingPoint
from repro.core.prediction import Estimate, PredictionEngine
from repro.core.push import ModelUpdate, ProxyModelTracker
from repro.core.queries import AnswerSource, QueryAnswer
from repro.core.sensor import PULL_REQUEST_BYTES, PrestoSensor
from repro.energy.meter import EnergyMeter
from repro.radio.network import Network
from repro.radio.packet import Packet, PacketKind
from repro.simulation.kernel import Simulator
from repro.sync.protocol import SyncEstimate, TimeSyncProtocol
from repro.traces.workload import Query, QueryKind

#: epochs of slack between "model fitted" and "model active" so a slow LPL
#: downlink can never desynchronise the replicas
ACTIVATION_LAG_EPOCHS = 20

#: seconds of grace before silently advancing past an epoch whose push may
#: still be in flight
PUSH_GRACE_S = 1.0

#: local query handling latency, charged on every answer
PROXY_PROCESSING_S = 0.02

#: std multiplier compared against a query's precision bound
CONFIDENCE_Z = 1.0


@dataclass
class _SensorState:
    """Proxy-side bookkeeping for one sensor."""

    tracker: ProxyModelTracker | None = None
    pending: ModelUpdate | None = None
    last_epoch: int = -1           # newest epoch reflected in the cache
    pushes_received: int = 0
    batches_received: int = 0
    push_losses_detected: int = 0


@dataclass
class PullStats:
    """Counters for archive pulls."""

    requests: int = 0
    failures: int = 0
    bytes_pulled: int = 0


class PrestoProxy:
    """Tethered proxy managing a cell of PRESTO sensors."""

    def __init__(
        self,
        name: str,
        config: PrestoConfig,
        sim: Simulator,
        network: Network,
        meter: EnergyMeter,
        n_sensors: int,
    ) -> None:
        self.name = name
        self.config = config
        self.sim = sim
        self.network = network
        self.meter = meter
        self.n_sensors = int(n_sensors)
        self.cache = SummaryCache(config.cache_entries_per_sensor)
        self.engine = PredictionEngine(config, n_sensors)
        self.matcher = QuerySensorMatcher(config)
        self.sync = TimeSyncProtocol()
        #: per-sensor ``(raw stamp, value, sync fit in effect or None)``
        #: log of mote-stamped detections (see :meth:`record_detection`)
        self.detections: dict[
            int, deque[tuple[float, float, SyncEstimate | None]]
        ] = {}
        self._states: dict[int, _SensorState] = {
            s: _SensorState() for s in range(self.n_sensors)
        }
        self._sensors: dict[int, PrestoSensor] = {}
        self.continuous = ContinuousQueryEngine()
        self.pull_stats = PullStats()
        self.queries_processed = 0
        self._operating_points: dict[int, SensorOperatingPoint] = {}

    # -- wiring ---------------------------------------------------------------

    def register_sensor(self, sensor: PrestoSensor) -> None:
        """Attach a sensor object (for synchronous pull round-trips)."""
        self._sensors[sensor.sensor_id] = sensor

    def sensor_name(self, sensor_id: int) -> str:
        """Network name of a sensor."""
        return self._sensors[sensor_id].name

    def _sync_key(self, sensor: int) -> str:
        """The per-sensor key under which :attr:`sync` files its estimates.

        The push path, the detection log and the time-frame correction
        must key into the same estimate; the fallback covers sensors never
        registered as objects (pure routing tests).
        """
        return self._sensors[sensor].name if sensor in self._sensors else str(sensor)

    def corrected_time(self, sensor: int, timestamp: float) -> float:
        """Map a sensor-reported timestamp into the proxy's time frame.

        Identity until enough exchanges have been collected to fit the
        sensor's clock.
        """
        return self.sync.correct(self._sync_key(sensor), timestamp)

    def record_detection(
        self, sensor: int, raw_timestamp: float, value: float, std: float = 0.0
    ) -> CacheEntry:
        """Log a detection stamped by the mote's own free-running clock.

        The sensor's detection log (:attr:`detections`, bounded like a
        cache column) keeps the raw stamp with the sync fit in effect
        *now*, so the ordered cross-proxy view (:func:`~repro.core.
        unified.ordered_view`) corrects it with the estimate contemporary
        with the detection — later exchanges that re-fit a drifting clock
        cannot retroactively move it.  A detection logged before any fit
        exists carries None and falls back to the estimate current at read
        time.  The cache and standing queries see the raw-stamped entry
        like any push.  A non-finite or zero-rate fit raises
        ``ValueError`` before anything is recorded.
        """
        estimate = self.sync.estimate_for(self._sync_key(sensor))
        if estimate is not None and not (
            np.isfinite(estimate.rate)
            and np.isfinite(estimate.offset)
            and estimate.rate != 0.0
        ):
            raise ValueError(
                f"degenerate clock frame ({estimate.rate!r}, {estimate.offset!r})"
            )
        entry = CacheEntry(
            timestamp=float(raw_timestamp),
            value=float(value),
            std=float(std),
            source=EntrySource.PUSHED,
        )
        log = self.detections.get(sensor)
        if log is None:
            log = self.detections[sensor] = deque(
                maxlen=self.cache.max_entries_per_sensor
            )
        log.append((entry.timestamp, entry.value, estimate))
        self._insert_entry(sensor, entry)
        return entry

    def _insert_entry(self, sensor: int, entry: CacheEntry) -> None:
        """Insert into the cache and evaluate standing queries."""
        self.cache.insert(sensor, entry)
        self.continuous.on_entry(sensor, entry)

    def _insert_batch(
        self,
        sensor: int,
        times: np.ndarray,
        values: np.ndarray,
        std: float,
        source: EntrySource,
    ) -> None:
        """Insert many same-provenance entries, batched when possible.

        With standing queries armed on the sensor each entry must still be
        evaluated individually (notification order matters); otherwise the
        whole batch lands in one vectorized cache merge.
        """
        if self.continuous.armed_for(sensor):
            for timestamp, value in zip(times, values):
                self._insert_entry(
                    sensor,
                    CacheEntry(
                        timestamp=float(timestamp),
                        value=float(value),
                        std=std,
                        source=source,
                    ),
                )
            return
        self.cache.insert_batch(sensor, times, values, std, source)
        if source is EntrySource.PREDICTED:
            # a tracker's silent run: ascending, and never a refinement
            self.continuous.note_predictions(sensor, times, values)
        else:
            newest = int(np.argmax(times))
            self.continuous.note_value(
                sensor, float(times[newest]), float(values[newest])
            )

    # -- epoch arithmetic ----------------------------------------------------------

    def epoch_time(self, epoch: int) -> float:
        """Sampling instant of *epoch*."""
        return epoch * self.config.sample_period_s

    def current_epoch(self, grace_s: float = PUSH_GRACE_S) -> int:
        """Largest epoch safely assumed complete at the current time."""
        return int((self.sim.now - grace_s) // self.config.sample_period_s)

    # -- receive path ------------------------------------------------------------

    def on_receive(self, packet: Packet) -> None:
        """Network delivery callback (pushes, batches)."""
        if packet.kind is PacketKind.PUSH:
            self._handle_push(packet.payload)
        elif packet.kind is PacketKind.BATCH:
            self._handle_batch(packet.payload)
        else:
            raise ValueError(f"proxy cannot handle {packet.kind}")

    def _handle_push(self, payload: dict) -> None:
        sensor = int(payload["sensor"])
        epoch = int(payload["epoch"])
        value = float(payload["value"])
        state = self._states[sensor]
        self.sync.record_exchange(
            self._sync_key(sensor),
            proxy_time=self.epoch_time(epoch),
            sensor_local_time=float(payload["local_time"]),
        )
        self._activate_if_due(sensor, state, epoch)
        if state.tracker is None:
            # Cold start: cache the raw push, no model state to advance.
            state.last_epoch = max(state.last_epoch, epoch)
        elif epoch > state.last_epoch:
            # Substitute predictions for any silent epochs, then apply.
            self._advance_tracker(sensor, state, epoch - 1)
            state.tracker.apply_push(value)
            state.last_epoch = epoch
        else:
            # The tracker already advanced past this epoch (in-flight push
            # overtaken by a query's silent advance).  The cache entry below
            # still refines the guess; the replicas repair at the next refit.
            state.push_losses_detected += 1
        state.pushes_received += 1
        self._insert_entry(
            sensor,
            CacheEntry(
                timestamp=self.epoch_time(epoch),
                value=value,
                std=0.0,
                source=EntrySource.PUSHED,
            ),
        )

    def _handle_batch(self, payload: dict) -> None:
        sensor = int(payload["sensor"])
        state = self._states[sensor]
        quant = float(payload["quant_step"])
        std = float(quant / np.sqrt(12.0))  # quantisation noise
        times = np.asarray(payload["timestamps"], dtype=np.float64)
        values = np.asarray(payload["values"], dtype=np.float64)
        state.batches_received += 1
        if times.size == 0:
            return
        order = np.argsort(times, kind="stable")
        sorted_times = times[order]
        sorted_values = values[order]
        epochs = np.rint(sorted_times / self.config.sample_period_s).astype(np.int64)
        # With standing queries armed, every entry — silent-epoch
        # substitution or batched push — must reach the continuous engine
        # in time order, so the pushes are interleaved into the tracker
        # loop; otherwise the whole batch lands in one vectorized merge.
        armed = self.continuous.armed_for(sensor)
        # A batched reading is a push that arrived late: it must advance the
        # model tracker exactly as _handle_push would, or the tracker's
        # stream state desynchronises from last_epoch and every subsequent
        # apply_push/advance_silent operates on stale model state.
        for timestamp, epoch, value in zip(sorted_times, epochs, sorted_values):
            epoch = int(epoch)
            self._activate_if_due(sensor, state, epoch)
            if state.tracker is None:
                state.last_epoch = max(state.last_epoch, epoch)
            elif epoch > state.last_epoch:
                self._advance_tracker(sensor, state, epoch - 1)
                state.tracker.apply_push(float(value))
                state.last_epoch = epoch
            if armed:
                self._insert_entry(
                    sensor,
                    CacheEntry(
                        timestamp=float(timestamp),
                        value=float(value),
                        std=std,
                        source=EntrySource.PUSHED,
                    ),
                )
        if not armed:
            self.cache.insert_batch(sensor, times, values, std, EntrySource.PUSHED)
            self.continuous.note_value(
                sensor, float(sorted_times[-1]), float(sorted_values[-1])
            )

    # -- tracker management ---------------------------------------------------------

    def _activate_if_due(self, sensor: int, state: _SensorState, epoch: int) -> None:
        """Switch *sensor* to its pending model once *epoch* reaches activation.

        The tracker is linked to the sensor's checker when that checker was
        built from the same update, so both start from the same state; it
        reads the checker's steps in order, verifying each against what the
        proxy heard, and forks at the first that differs (see
        :mod:`repro.core.push`).
        """
        update = state.pending
        if update is None or epoch < update.activation_epoch:
            return
        sensor_obj = self._sensors.get(sensor)
        checker = sensor_obj.checker if sensor_obj is not None else None
        if checker is not None and checker.update is not update:
            checker = None
        state.tracker = ProxyModelTracker(update, checker)
        state.last_epoch = max(state.last_epoch, update.activation_epoch - 1)
        state.pending = None

    def _advance_tracker(self, sensor: int, state: _SensorState, upto_epoch: int) -> None:
        """Insert PREDICTED entries for silent epochs up to *upto_epoch*.

        The tracker advances over the whole silent run (read off the
        sensor's trajectory while linked), which then lands in the cache as
        one batch.  The entries' std reflects the protocol's actual
        guarantee: a silent epoch means the reading was within
        *delta* of the substituted value, so the error bound is delta
        (≈ uniform, std = delta/√3), floored at the model's own one-step
        residual.
        """
        if state.tracker is None or state.last_epoch >= upto_epoch:
            return
        std = max(
            state.tracker.predicted_std(),
            state.tracker.delta / np.sqrt(3.0),
        )
        epochs = np.arange(state.last_epoch + 1, upto_epoch + 1)
        values = state.tracker.silent_run(epochs.size)
        state.last_epoch = upto_epoch
        self._insert_batch(
            sensor,
            epochs * self.config.sample_period_s,
            values,
            max(std, 1e-6),
            EntrySource.PREDICTED,
        )

    def advance_to_now(self, sensor: int) -> None:
        """Bring *sensor*'s cached view up to the current epoch."""
        state = self._states[sensor]
        target = self.current_epoch()
        self._activate_if_due(sensor, state, target)
        self._advance_tracker(sensor, state, target)

    # -- model refit & dissemination ---------------------------------------------------

    def refit_sensor(self, sensor: int) -> bool:
        """Refit and ship a model for *sensor* from its cached stream.

        Returns True when a model update was shipped and accepted.
        """
        all_times, all_values, _, _ = self.cache.arrays_in(sensor, 0.0, self.sim.now)
        if all_times.size < self.config.min_training_epochs:
            return False
        window = slice(max(all_times.size - self.config.training_epochs, 0), None)
        values = np.array(all_values[window])  # own the data: fit outlives the view
        times = np.array(all_times[window])
        point = self._operating_points.get(sensor)
        delta = point.push_delta if point is not None else self.config.push_delta
        update = self.engine.refit(sensor, values, times, delta=delta)
        if update is None:
            return False
        activation = self.current_epoch() + ACTIVATION_LAG_EPOCHS
        update = ModelUpdate(
            model=update.model, delta=update.delta, activation_epoch=activation
        )
        name = self.sensor_name(sensor)
        packet = Packet(
            kind=PacketKind.MODEL_UPDATE,
            src=self.name,
            dst=name,
            payload_bytes=update.parameter_bytes,
            payload=update,
        )
        outcome = self.network.send(packet, energy_category="radio.model_update")
        if not outcome.delivered:
            return False
        state = self._states[sensor]
        state.pending = update
        return True

    def refit_all(self) -> int:
        """Refit every sensor; returns how many updates shipped."""
        shipped = 0
        for sensor in range(self.n_sensors):
            if self.refit_sensor(sensor):
                shipped += 1
        # Refresh the spatial model from recent aligned actuals.
        self._refresh_spatial()
        return shipped

    def _refresh_spatial(self) -> None:
        if not self.config.spatial_extrapolation:
            return
        period = self.config.sample_period_s
        epochs = min(self.config.training_epochs, 1024)
        end_epoch = self.current_epoch()
        start_epoch = max(end_epoch - epochs, 0)
        if end_epoch - start_epoch < 64:
            return
        grid = np.arange(start_epoch, end_epoch, dtype=np.float64) * period
        matrix = np.full((grid.size, self.n_sensors), np.nan)
        for sensor in range(self.n_sensors):
            values, valid = self.cache.values_on_grid(sensor, grid, period / 2)
            matrix[valid, sensor] = values[valid]
        complete = ~np.isnan(matrix).any(axis=1)
        if complete.sum() >= 64:
            self.engine.fit_spatial(matrix[complete])

    def retune_sensor(self, sensor: int) -> SensorOperatingPoint | None:
        """Derive and ship an operating point from observed queries."""
        point = self.matcher.derive_operating_point()
        current = self._operating_points.get(sensor)
        if current == point:
            return None
        name = self.sensor_name(sensor)
        packet = Packet(
            kind=PacketKind.OPERATING_POINT,
            src=self.name,
            dst=name,
            payload_bytes=point.wire_bytes,
            payload=point,
        )
        outcome = self.network.send(packet, energy_category="radio.retune")
        if not outcome.delivered:
            return None
        self._operating_points[sensor] = point
        # Apply immediately on the sensor object as well (the event-path
        # delivery also happens; apply is idempotent).
        self._sensors[sensor].apply_operating_point(point)
        state = self._states[sensor]
        if state.tracker is not None:
            state.tracker.delta = point.push_delta
        return point

    # -- query processing ------------------------------------------------------------

    def process_query(self, query: Query) -> QueryAnswer:
        """Answer one query, trying cache → prediction → spatial → pull."""
        self.matcher.observe_query(query)
        self.queries_processed += 1
        if query.kind is QueryKind.NOW:
            return self._answer_now(query)
        if query.kind is QueryKind.PAST_POINT:
            return self._answer_past_point(query)
        return self._answer_past_window(query)

    def _confidence_ok(self, std: float, precision: float) -> bool:
        return std * CONFIDENCE_Z <= precision

    def _answer_now(self, query: Query) -> QueryAnswer:
        self.advance_to_now(query.sensor)
        return self._answer_point(
            query,
            query.arrival_time,
            lambda estimate: self._pull_now(query, fallback=estimate),
        )

    def _answer_past_point(self, query: Query) -> QueryAnswer:
        sensor = query.sensor
        target = min(query.target_time, self.sim.now)
        if target > self.epoch_time(self._states[sensor].last_epoch):
            self.advance_to_now(sensor)
        period = self.config.sample_period_s
        return self._answer_point(
            query,
            target,
            lambda estimate: self._pull_past(
                query, target - period, target + period, fallback=estimate
            ),
        )

    def _answer_point(
        self,
        query: Query,
        target: float,
        pull: Callable[[tuple[Estimate, str] | None], QueryAnswer],
    ) -> QueryAnswer:
        """Answer the reading at *target*: an actual cache entry, else a
        confident cached prediction, else a confident model estimate, else
        *pull*, which is handed the estimate to degrade to."""
        sensor = query.sensor
        entry = self.cache.entry_at(
            sensor, target, tolerance_s=self.config.sample_period_s
        )
        if entry is not None and (
            entry.is_actual or self._confidence_ok(entry.std, query.precision)
        ):
            return QueryAnswer(
                query=query,
                value=entry.value,
                source=AnswerSource.CACHE if entry.is_actual else AnswerSource.PREDICTION,
                latency_s=PROXY_PROCESSING_S,
                believed_std=entry.std,
            )
        estimate = self.engine.best_estimate(sensor, target, self.cache)
        if estimate is not None and self._confidence_ok(
            estimate[0].std, query.precision
        ):
            return self._answer_from_estimate(query, estimate)
        return pull(estimate)

    def _answer_from_estimate(
        self, query: Query, estimate: tuple[Estimate, str]
    ) -> QueryAnswer:
        value, method = estimate
        source = (
            AnswerSource.SPATIAL if method == "spatial" else AnswerSource.PREDICTION
        )
        return QueryAnswer(
            query=query,
            value=value.value,
            source=source,
            latency_s=PROXY_PROCESSING_S,
            believed_std=value.std,
        )

    def _answer_past_window(self, query: Query) -> QueryAnswer:
        sensor = query.sensor
        start = min(query.target_time, self.sim.now)
        end = min(start + query.window_s, self.sim.now)
        _, values, stds, codes = self.cache.arrays_in(sensor, start, end)
        coverage = self.cache.coverage_fraction(
            sensor, start, end, self.config.sample_period_s
        )
        worst_std = float(stds.max()) if stds.size else float("inf")
        if coverage >= 0.9 and self._confidence_ok(worst_std, query.precision):
            value = aggregate(values, query.aggregate)
            all_actual = bool((codes != PREDICTED_CODE).all())
            return QueryAnswer(
                query=query,
                value=value,
                source=AnswerSource.CACHE if all_actual else AnswerSource.PREDICTION,
                latency_s=PROXY_PROCESSING_S,
                believed_std=worst_std,
            )
        return self._pull_past(query, start, end, fallback=None)

    # -- pull paths --------------------------------------------------------------------

    def _pull_now(
        self, query: Query, fallback: tuple[Estimate, str] | None
    ) -> QueryAnswer:
        """Round-trip to the sensor for its current reading."""
        sensor_obj = self._sensors[query.sensor]
        before = sensor_obj.meter.total_j
        self.pull_stats.requests += 1
        mac = self.network.mac_for(sensor_obj.name)
        request = mac.send_downlink(PULL_REQUEST_BYTES, "radio.pull_request")
        if not request.delivered:
            return self._pull_failed(query, fallback, request.latency_s)
        reading = sensor_obj.current_reading()
        if reading is None:
            return self._pull_failed(query, fallback, request.latency_s)
        timestamp, value = reading
        reply = mac.send_uplink(8, "radio.pull_reply")
        if not reply.delivered:
            return self._pull_failed(
                query, fallback, request.latency_s + reply.latency_s
            )
        self._insert_entry(
            query.sensor,
            CacheEntry(
                timestamp=timestamp, value=value, std=0.0, source=EntrySource.PULLED
            ),
        )
        latency = PROXY_PROCESSING_S + request.latency_s + reply.latency_s
        self.pull_stats.bytes_pulled += 8
        return QueryAnswer(
            query=query,
            value=value,
            source=AnswerSource.SENSOR_PULL,
            latency_s=latency,
            believed_std=0.0,
            sensor_energy_j=sensor_obj.meter.total_j - before,
            pulled_bytes=8,
        )

    def _pull_past(
        self,
        query: Query,
        start: float,
        end: float,
        fallback: tuple[Estimate, str] | None,
    ) -> QueryAnswer:
        """Round-trip to the sensor archive for a historical window."""
        sensor_obj = self._sensors[query.sensor]
        before = sensor_obj.meter.total_j
        self.pull_stats.requests += 1
        mac = self.network.mac_for(sensor_obj.name)
        request = mac.send_downlink(PULL_REQUEST_BYTES, "radio.pull_request")
        if not request.delivered:
            return self._pull_failed(query, fallback, request.latency_s)
        times, values, level, reply_bytes = sensor_obj.serve_pull(start, end)
        if values.size == 0:
            return self._pull_failed(query, fallback, request.latency_s)
        latency = PROXY_PROCESSING_S + request.latency_s
        # Fragment the reply at the radio MTU; all fragments must arrive.
        mtu = self.config.node_profile.radio.max_payload_bytes
        remaining = reply_bytes
        while remaining > 0:
            chunk = min(remaining, mtu)
            fragment = mac.send_uplink(chunk, "radio.pull_reply")
            latency += fragment.latency_s
            if not fragment.delivered:
                return self._pull_failed(query, fallback, latency)
            remaining -= chunk
        aged_std = 0.0 if level == 0 else 0.05 * (2.0 ** level)
        self._insert_batch(
            query.sensor, times, values, aged_std, EntrySource.PULLED
        )
        self.pull_stats.bytes_pulled += reply_bytes
        if query.kind is QueryKind.PAST_POINT:
            offset = int(np.argmin(np.abs(times - query.target_time)))
            value = float(values[offset])
        else:
            in_window = values[(times >= start) & (times <= end)]
            if in_window.size == 0:
                # An aged/coarsened archive reply can retain only timestamps
                # outside the requested window; degrade, don't crash.
                return self._pull_failed(query, fallback, latency)
            value = aggregate(in_window, query.aggregate)
        return QueryAnswer(
            query=query,
            value=value,
            source=AnswerSource.SENSOR_PULL,
            latency_s=latency,
            believed_std=aged_std,
            sensor_energy_j=sensor_obj.meter.total_j - before,
            pulled_bytes=reply_bytes,
        )

    def _pull_failed(
        self,
        query: Query,
        fallback: tuple[Estimate, str] | None,
        latency_so_far: float,
    ) -> QueryAnswer:
        """Pull gave up: degrade to the best model estimate, else fail."""
        self.pull_stats.failures += 1
        if fallback is not None:
            estimate, method = fallback
            return QueryAnswer(
                query=query,
                value=estimate.value,
                source=(
                    AnswerSource.SPATIAL
                    if method == "spatial"
                    else AnswerSource.PREDICTION
                ),
                latency_s=PROXY_PROCESSING_S + latency_so_far,
                believed_std=estimate.std,
            )
        return QueryAnswer(
            query=query,
            value=None,
            source=AnswerSource.FAILED,
            latency_s=PROXY_PROCESSING_S + latency_so_far,
        )

    # -- replication ------------------------------------------------------------

    def export_replica_state(
        self, sensor: int, max_entries: int
    ) -> tuple[CacheSnapshot, ProxyModelTracker | None]:
        """Snapshot one sensor's hot state for replication to another proxy.

        Returns a columnar snapshot of the newest *max_entries* summary-cache
        entries (array copies, not per-entry deep copies) plus the sensor's
        *live* model tracker (or None before the first model activates) —
        the "caches and prediction models ... further replicated at the
        wired proxies" of Section 5.  The tracker is not copied here: every
        replica crosses ``serialize_payload`` on its way to a host, and the
        serializer makes the copy.
        """
        snapshot = self.cache.tail_snapshot(sensor, max_entries)
        return snapshot, self._states[sensor].tracker
