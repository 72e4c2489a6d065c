"""The PRESTO proxy.

Implements the full Section 3 component: the summary cache, the prediction
engine driving model-driven push, extrapolation-based cache-miss masking,
pull-on-miss against sensor archives, and query–sensor matching.

Epoch bookkeeping: sensor ``k`` samples at ``t = epoch * sample_period``.
Delivered pushes and batches wait in a per-sensor inbox until a read or
mutation lands them (:meth:`PrestoProxy.drain`, the one way an uplink
lands): a sensor's due arrivals land as runs, each the silent epochs and
pushed readings its model tracker reads at once, and while standing queries
are armed the watched sensors' arrivals land merged in arrival order.  The
proxy advances each sensor's tracker lazily — on landing readings (up to
the newest reading's epoch) and at query time (up to the current epoch
minus a small grace period so an in-flight push is not preempted by a
silent advance).
"""

from __future__ import annotations

import bisect
import itertools
import math
import operator
from collections import defaultdict, deque
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from repro.core.cache import (
    PREDICTED_CODE,
    PULLED_CODE,
    PUSHED_CODE,
    CacheEntry,
    EntrySource,
    SummaryCache,
    aggregate,
    coverage_fraction,
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

#: a delivered uplink's payload: a push's ``(sensor, epoch, reading, local
#: time)``, or a batch's dict (``sensor``, ``timestamps``, ``values``,
#: ``quant_step``)
Uplink = tuple[int, int, float, float] | dict

#: a replica export's ``(family, state)`` for a sensor with no model yet
_NO_TRACKER = (0, ())


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
        #: ``epoch * sample_period_s`` for every epoch so far (see _epoch_times)
        self._epoch_grid = np.empty(0)
        #: per sensor, uplinks not landed yet: (arrival, kernel ticket,
        #: payload, the watched sensors when it queued)
        self._inbox: defaultdict[int, list[tuple[float, int, Uplink, frozenset[int]]]] = (
            defaultdict(list)
        )

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
        self.drain(sensor)
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
        self.drain(sensor)
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
        self._insert_batch(
            sensor, np.array([entry.timestamp]), np.array([entry.value]), entry.std, PUSHED_CODE
        )
        return entry

    def _insert_batch(
        self,
        sensor: int,
        times: np.ndarray,
        values: np.ndarray,
        stds: np.ndarray | float,
        codes: np.ndarray | int,
    ) -> None:
        """The one cache write: land a strictly ascending run — its rows'
        stds and source codes, each one per row or one for all — then let
        standing queries read it.  A tracker's run is PREDICTED silent epochs and PUSHED
        readings, a pull reply PULLED, a detection PUSHED."""
        self.cache.insert_batch(sensor, times, values, stds, codes)
        self.continuous.on_run(sensor, times, values, codes)

    # -- epoch arithmetic ----------------------------------------------------------

    def epoch_time(self, epoch: int) -> float:
        """Sampling instant of *epoch*."""
        return epoch * self.config.sample_period_s

    def _epoch_times(self, first: int, last: int) -> np.ndarray:
        """Sampling instants of epochs *first* through *last*: a read-only
        view of one grid of instants, grown by doubling as epochs pass."""
        grid = self._epoch_grid
        if last >= grid.size:
            grid = np.arange(max(2 * grid.size, last + 1)) * self.config.sample_period_s
            grid.flags.writeable = False
            self._epoch_grid = grid
        return grid[first : last + 1]

    def current_epoch(self, grace_s: float = PUSH_GRACE_S) -> int:
        """Largest epoch safely assumed complete at the current time."""
        return int((self.sim.now - grace_s) // self.config.sample_period_s)

    # -- receive path ------------------------------------------------------------

    def accept(self, arrivals: list[tuple[float, Uplink]]) -> None:
        """Queue delivered uplinks, ``(arrival instant, payload)`` each in
        send order, each with the kernel ticket its delivery event would
        have had and the watched sensors of the standing queries armed when
        it queued.  A push's payload is ``(sensor, epoch, reading, local
        time)``; a batch's is a dict."""
        inbox, watched = self._inbox, self.continuous.watched
        for (at, payload), ticket in zip(arrivals, self.sim.tickets(len(arrivals))):
            sensor = payload[0] if type(payload) is tuple else payload["sensor"]
            inbox[sensor].append((at, ticket, payload, watched))

    def on_receive(self, payload: Uplink) -> None:
        """Land *payload*, a push or a batch, now, after its sensor's
        earlier arrivals."""
        sensor = payload[0] if type(payload) is tuple else payload["sensor"]
        self.drain(sensor)
        self._land(sensor, [payload])

    def drain(self, sensor: int | None = None) -> None:
        """Land every queued uplink — *sensor*'s, or all sensors' — that
        arrived before the running event (between events: by now), as its
        delivery event would have; an empty inbox costs one test.

        A sensor no standing query watches lands its own arrivals; draining
        a watched sensor lands every watched sensor's, merged in arrival
        order, so notifications keep the order one event per uplink gives.
        Standing queries must be armed (or cancelled) before uplinks queue.
        """
        inbox = self._inbox
        if not inbox:
            return
        watched = self.continuous.watched
        if sensor is None:
            sensors = sorted(inbox)
        elif sensor in watched:
            sensors = sorted(watched.intersection(inbox))
        elif sensor in inbox:
            sensors = [sensor]
        else:
            return
        position = self.sim.position
        merged: list[tuple[float, int, int, Uplink]] = []
        for each in sensors:
            queue = inbox[each]
            queue.sort()
            arrivals = queue[: bisect.bisect_left(queue, position)]
            queued_under = map(operator.itemgetter(3), arrivals)
            if any(map(operator.is_not, queued_under, itertools.repeat(watched))):
                raise RuntimeError("standing queries must be armed before uplinks queue")
            del queue[: len(arrivals)]
            if not queue:
                del inbox[each]
            if each in watched:
                merged += [(at, ticket, each, payload) for at, ticket, payload, _ in arrivals]
            elif arrivals:
                self._land(each, list(map(operator.itemgetter(2), arrivals)))
        merged.sort()
        for each, run in itertools.groupby(merged, key=lambda arrival: arrival[2]):
            self._land(each, [arrival[3] for arrival in run])

    def _land(self, sensor: int, payloads: list[Uplink]) -> None:
        """Land *sensor*'s arrivals *payloads*, in order, as runs.

        A push (counted, its sync exchange recorded) is a reading at its
        epoch, and so is each of a batch's readings, in time order, with
        the batch's quantisation noise as its std.  Readings of rising
        epochs short of a pending activation land together: before any
        model as PUSHED rows alone, with one — past the sensor's newest
        epoch — as one tracker run (:meth:`ProxyModelTracker.read_pushes`),
        every epoch between them silent, PREDICTED, each reading PUSHED.  A
        reading the tracker has already passed (overtaken by a query's
        silent advance) refines its one row, and a push so overtaken counts
        as a loss; the replicas repair at the next refit.  The rows land as
        one write per stretch that ascends, which equals landing them one
        by one.
        """
        state = self._states[sensor]
        epochs, readings, stds, pushes = self._readings(sensor, state, payloads)
        pieces: list[tuple[np.ndarray, ...]] = []
        start = 0
        while start < len(epochs):
            self._activate_if_due(sensor, state, epochs[start])
            tracker = state.tracker
            if tracker is not None and epochs[start] <= state.last_epoch:
                stop, alone = start + 1, True   # overtaken
                state.push_losses_detected += pushes[start]
            else:
                pending = state.pending
                limit = math.inf if pending is None else pending.activation_epoch
                first = end = epochs[start] if tracker is None else state.last_epoch + 1
                stop, alone = start, tracker is None   # cold start: the readings alone
                while stop < len(epochs) and end <= epochs[stop] < limit:
                    end = epochs[stop] + 1
                    stop += 1
                state.last_epoch = max(state.last_epoch, end - 1)
            run = epochs[start:stop]
            if alone:
                times = self._epoch_times(0, run[-1])[run]
                values, row_stds = np.array(readings[start:stop]), np.array(stds[start:stop])
                codes = np.full(len(run), PUSHED_CODE, dtype=np.int8)
            else:   # the run: epochs first..end - 1
                offsets = [epoch - first for epoch in run]
                row_stds = np.full(end - first, self._silent_std(tracker))
                row_stds[offsets] = stds[start:stop]
                values = tracker.read_pushes(offsets, readings[start:stop])
                times = self._epoch_times(first, end - 1)
                codes = np.full(end - first, PREDICTED_CODE, dtype=np.int8)
                codes[offsets] = PUSHED_CODE
            if pieces and times[0] <= pieces[-1][0][-1]:
                self._write(sensor, pieces)
                pieces = []
            pieces.append((times, values, row_stds, codes))
            start = stop
        if pieces:
            self._write(sensor, pieces)

    def _readings(
        self, sensor: int, state: _SensorState, payloads: list[Uplink]
    ) -> tuple[list[int], list[float], list[float], list[bool]]:
        """*payloads*' readings in landing order: epochs, values, stds and
        whether each is a push.  Each stretch of pushes is read as columns,
        and their sync exchanges are recorded as one run."""
        epochs: list[int] = []
        readings: list[float] = []
        stds: list[float] = []
        pushes: list[bool] = []
        proxy_times: list[float] = []
        local_times: list[float] = []
        period = self.config.sample_period_s
        for kind, stretch in itertools.groupby(payloads, type):
            if kind is tuple:   # pushes: (sensor, epoch, reading, local time)
                _, pushed_epochs, pushed, pushed_local = zip(*stretch)
                epochs += pushed_epochs
                readings += pushed
                stds += [0.0] * len(pushed)
                pushes += [True] * len(pushed)
                proxy_times += map(operator.mul, pushed_epochs, itertools.repeat(period))
                local_times += pushed_local
                continue
            for payload in stretch:   # batches
                state.batches_received += 1
                times = np.asarray(payload["timestamps"], dtype=np.float64)
                order = np.argsort(times, kind="stable")
                batch = np.rint(times[order] / period).astype(np.int64)
                epochs += batch.tolist()
                readings += np.asarray(payload["values"], dtype=np.float64)[order].tolist()
                stds += [float(float(payload["quant_step"]) / np.sqrt(12.0))] * batch.size
                pushes += [False] * batch.size
        if proxy_times:
            self.sync.record_exchanges(self._sync_key(sensor), proxy_times, local_times)
            state.pushes_received += len(proxy_times)
        return epochs, readings, stds, pushes

    def _write(self, sensor: int, pieces: list[tuple[np.ndarray, ...]]) -> None:
        """Land *pieces*, an ascending stretch of runs, as one write."""
        columns = pieces[0] if len(pieces) == 1 else [np.concatenate(c) for c in zip(*pieces)]
        self._insert_batch(sensor, *columns)

    # -- tracker management ---------------------------------------------------------

    def _activate_if_due(self, sensor: int, state: _SensorState, epoch: int) -> None:
        """Switch *sensor* to its pending model once *epoch* reaches activation.

        The tracker is linked to the sensor's checker when that checker was
        built from the same update, so both start from the same state; it
        reads the checker's steps in order, verifying each against what the
        proxy heard, and forks at the first that differs (see
        :mod:`repro.core.push`) — by order, not epoch, so even a checker
        built late, before a queued arrival lands, reads exactly.
        """
        update = state.pending
        if update is None or epoch < update.activation_epoch:
            return
        sensor_obj = self._sensors.get(sensor)
        checker = sensor_obj.checker if sensor_obj is not None else None
        if checker is not None and checker.update is not update:
            checker = None
        state.tracker = ProxyModelTracker(update, checker)
        point = self._operating_points.get(sensor)
        if point is not None:   # a retune shipped after the refit outranks its delta
            state.tracker.delta = point.push_delta
        state.last_epoch = max(state.last_epoch, update.activation_epoch - 1)
        state.pending = None

    def _bring_forward(self, sensor: int, epoch: int) -> None:
        """Bring *sensor*'s cached view forward through *epoch*: the
        tracker's predictions for the silent epochs not landed yet, as one
        PREDICTED write (none before any model, or with nothing left)."""
        state = self._states[sensor]
        self._activate_if_due(sensor, state, epoch)
        tracker = state.tracker
        if tracker is None or epoch <= state.last_epoch:
            return
        first, state.last_epoch = state.last_epoch + 1, epoch
        std = self._silent_std(tracker)
        values = np.frombuffer(tracker.silent_run(epoch - first + 1))
        self._insert_batch(sensor, self._epoch_times(first, epoch), values, std, PREDICTED_CODE)

    @staticmethod
    def _silent_std(tracker: ProxyModelTracker) -> float:
        """Std of a substituted (silent-epoch) entry.

        It reflects the protocol's actual guarantee: a silent epoch means
        the reading was within *delta* of the substituted value, so the
        error bound is delta (≈ uniform, std = delta/√3), floored at the
        model's own one-step residual.
        """
        std = max(tracker.predicted_std(), tracker.delta / np.sqrt(3.0))
        return max(std, 1e-6)

    # -- model refit & dissemination ---------------------------------------------------

    def refit_sensor(self, sensor: int) -> bool:
        """Refit and ship a model for *sensor* from its cached stream.

        Returns True when a model update was shipped and accepted.
        """
        self.drain(sensor)
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
        outcome = self.network.send(
            self.sensor_name(sensor), update, update.parameter_bytes, "radio.model_update"
        )
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
        self.drain(sensor)
        outcome = self.network.send(
            self.sensor_name(sensor), point, point.wire_bytes, "radio.retune"
        )
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

    def process_query(
        self, query: Query, sensor: int, routing_latency_s: float = 0.0
    ) -> QueryAnswer:
        """Answer one query, trying cache → prediction → spatial → pull.

        *sensor* is the queried sensor in this cell's own numbering (a
        federation routes global queries here unchanged; a lone cell's
        numbering is the query's).  The answer carries *query* itself, and
        its latency is the cell's plus *routing_latency_s*, what getting
        the query here cost.
        """
        self.drain(sensor)
        self.matcher.observe_query(query)
        self.queries_processed += 1
        if query.kind is QueryKind.NOW:
            return self._answer_now(query, sensor, routing_latency_s)
        if query.kind is QueryKind.PAST_POINT:
            return self._answer_past_point(query, sensor, routing_latency_s)
        return self._answer_past_window(query, sensor, routing_latency_s)

    def _confidence_ok(self, std: float, precision: float) -> bool:
        return std * CONFIDENCE_Z <= precision

    # Each answer path runs after process_query's one drain: nothing can
    # arrive within the query's own event, so it brings the cached view
    # forward without draining again.

    def _answer_now(self, query: Query, sensor: int, routing_s: float) -> QueryAnswer:
        self._bring_forward(sensor, self.current_epoch())
        return self._answer_point(
            query,
            sensor,
            query.arrival_time,
            routing_s,
            lambda estimate: self._pull_now(query, sensor, routing_s, fallback=estimate),
        )

    def _answer_past_point(
        self, query: Query, sensor: int, routing_s: float
    ) -> QueryAnswer:
        target = min(query.target_time, self.sim.now)
        if target > self.epoch_time(self._states[sensor].last_epoch):
            self._bring_forward(sensor, self.current_epoch())
        period = self.config.sample_period_s
        return self._answer_point(
            query,
            sensor,
            target,
            routing_s,
            lambda estimate: self._pull_past(
                query, sensor, routing_s, target - period, target + period, fallback=estimate
            ),
        )

    def _answer_point(
        self,
        query: Query,
        sensor: int,
        target: float,
        routing_s: float,
        pull: Callable[[tuple[Estimate, str] | None], QueryAnswer],
    ) -> QueryAnswer:
        """Answer the reading at *target*: an actual cache entry, else a
        confident cached prediction, else a confident model estimate, else
        *pull*, which is handed the estimate to degrade to."""
        row = self.cache.entry_at(sensor, target, tolerance_s=self.config.sample_period_s)
        if row is not None:
            actual = row.is_actual
            if actual or self._confidence_ok(row.std, query.precision):
                source = AnswerSource.CACHE if actual else AnswerSource.PREDICTION
                return QueryAnswer(
                    query, row.value, source, PROXY_PROCESSING_S + routing_s, row.std
                )
        if self.config.spatial_extrapolation:
            self.drain()  # a spatial estimate reads every sensor's cache
        estimate = self.engine.best_estimate(sensor, target, self.cache)
        if estimate is not None and self._confidence_ok(
            estimate[0].std, query.precision
        ):
            value, method = estimate
            source = AnswerSource.SPATIAL if method == "spatial" else AnswerSource.PREDICTION
            return QueryAnswer(
                query, value.value, source, PROXY_PROCESSING_S + routing_s, value.std
            )
        return pull(estimate)

    def _answer_past_window(
        self, query: Query, sensor: int, routing_s: float
    ) -> QueryAnswer:
        start = min(query.target_time, self.sim.now)
        end = min(start + query.window_s, self.sim.now)
        _, values, stds, codes = self.cache.arrays_in(sensor, start, end)
        coverage = coverage_fraction(
            values.size, start, end, self.config.sample_period_s
        )
        worst_std = float(stds.max()) if stds.size else float("inf")
        if coverage >= 0.9 and self._confidence_ok(worst_std, query.precision):
            value = aggregate(values, query.aggregate)
            all_actual = bool((codes != PREDICTED_CODE).all())
            source = AnswerSource.CACHE if all_actual else AnswerSource.PREDICTION
            return QueryAnswer(query, value, source, PROXY_PROCESSING_S + routing_s, worst_std)
        return self._pull_past(query, sensor, routing_s, start, end, fallback=None)

    # -- pull paths --------------------------------------------------------------------
    #
    # Each takes the query, the cell-local sensor and the routing latency
    # process_query was handed; the answer's latency is the cell's, then
    # the routing latency added last.

    def _pull_now(
        self,
        query: Query,
        sensor: int,
        routing_s: float,
        fallback: tuple[Estimate, str] | None,
    ) -> QueryAnswer:
        """Round-trip to the sensor for its current reading."""
        sensor_obj = self._sensors[sensor]
        spent = sensor_obj.meter.since()
        self.pull_stats.requests += 1
        mac = self.network.mac_for(sensor_obj.name)
        request = mac.send_downlink(PULL_REQUEST_BYTES, "radio.pull_request")
        if not request.delivered:
            return self._pull_failed(query, routing_s, fallback, request.latency_s)
        reading = sensor_obj.current_reading()
        if reading is None:
            return self._pull_failed(query, routing_s, fallback, request.latency_s)
        timestamp, value = reading
        reply = mac.send_uplink(8, "radio.pull_reply")
        if not reply.delivered:
            return self._pull_failed(
                query, routing_s, fallback, request.latency_s + reply.latency_s
            )
        self._insert_batch(sensor, np.array([timestamp]), np.array([value]), 0.0, PULLED_CODE)
        latency = PROXY_PROCESSING_S + request.latency_s + reply.latency_s
        self.pull_stats.bytes_pulled += 8
        return QueryAnswer(
            query=query,
            value=value,
            source=AnswerSource.SENSOR_PULL,
            latency_s=latency + routing_s,
            believed_std=0.0,
            sensor_energy_j=spent(),
            pulled_bytes=8,
        )

    def _pull_past(
        self,
        query: Query,
        sensor: int,
        routing_s: float,
        start: float,
        end: float,
        fallback: tuple[Estimate, str] | None,
    ) -> QueryAnswer:
        """Round-trip to the sensor archive for a historical window."""
        sensor_obj = self._sensors[sensor]
        spent = sensor_obj.meter.since()
        self.pull_stats.requests += 1
        mac = self.network.mac_for(sensor_obj.name)
        request = mac.send_downlink(PULL_REQUEST_BYTES, "radio.pull_request")
        if not request.delivered:
            return self._pull_failed(query, routing_s, fallback, request.latency_s)
        times, values, level, reply_bytes = sensor_obj.serve_pull(start, end)
        if values.size == 0:
            return self._pull_failed(query, routing_s, fallback, request.latency_s)
        latency = PROXY_PROCESSING_S + request.latency_s
        # Fragment the reply at the radio MTU; all fragments must arrive.
        mtu = self.config.node_profile.radio.max_payload_bytes
        remaining = reply_bytes
        while remaining > 0:
            chunk = min(remaining, mtu)
            fragment = mac.send_uplink(chunk, "radio.pull_reply")
            latency += fragment.latency_s
            if not fragment.delivered:
                return self._pull_failed(query, routing_s, fallback, latency)
            remaining -= chunk
        aged_std = 0.0 if level == 0 else 0.05 * (2.0 ** level)
        self._insert_batch(sensor, times, values, aged_std, PULLED_CODE)
        self.pull_stats.bytes_pulled += reply_bytes
        if query.kind is QueryKind.PAST_POINT:
            offset = int(np.argmin(np.abs(times - query.target_time)))
            value = float(values[offset])
        else:
            in_window = values[(times >= start) & (times <= end)]
            if in_window.size == 0:
                # An aged/coarsened archive reply can retain only timestamps
                # outside the requested window; degrade, don't crash.
                return self._pull_failed(query, routing_s, fallback, latency)
            value = aggregate(in_window, query.aggregate)
        return QueryAnswer(
            query=query,
            value=value,
            source=AnswerSource.SENSOR_PULL,
            latency_s=latency + routing_s,
            believed_std=aged_std,
            sensor_energy_j=spent(),
            pulled_bytes=reply_bytes,
        )

    def _pull_failed(
        self,
        query: Query,
        routing_s: float,
        fallback: tuple[Estimate, str] | None,
        latency_so_far: float,
    ) -> QueryAnswer:
        """Pull gave up: degrade to the best model estimate, else fail."""
        self.pull_stats.failures += 1
        latency = PROXY_PROCESSING_S + latency_so_far + routing_s
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
                latency_s=latency,
                believed_std=estimate.std,
            )
        return QueryAnswer(
            query=query,
            value=None,
            source=AnswerSource.FAILED,
            latency_s=latency,
        )

    # -- replication ------------------------------------------------------------

    def export_replica_state(
        self, sensor: int, max_entries: int, keyframe: bool
    ) -> tuple[float, int, np.ndarray, np.ndarray, np.ndarray, np.ndarray, int, tuple]:
        """One sensor's hot state for replication to another proxy: the
        fields of its wire record after the sensor id.

        ``(first_s, kept, timestamps, values, stds, codes)`` are the newest
        *max_entries* summary-cache entries as a delta against this sensor's
        previous export (the whole tail for a *keyframe*), as
        :meth:`SummaryCache.export_tail` hands them out — views of the live
        rows, good until the next cache write.  ``(family, state)`` is the
        model tracker's declared state, ``(0, ())`` before the first model
        activates — the "caches and prediction models ... further
        replicated at the wired proxies" of Section 5.

        Unlike the other reads this one does not drain: the caller lands
        the sensor's arrivals (:meth:`drain`) before it exports any sensor,
        so that no landing writes under rows already handed out.
        """
        tracker = self._states[sensor].tracker
        return (
            *self.cache.export_tail(sensor, max_entries, keyframe),
            *(_NO_TRACKER if tracker is None else tracker.state()),
        )
