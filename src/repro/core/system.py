"""Whole-deployment simulation harness.

Wires a complete PRESTO cell — trace, sensors (with clocks, archives and
energy meters), network, proxy — into one :class:`Simulator`, replays a
query workload against it, and produces the :class:`SystemReport` that every
benchmark and example consumes.

The per-cell construction lives in :class:`PrestoCell` so that the
federation harness (:mod:`repro.core.federation`) can stamp out many cells
over one shared simulator; :class:`PrestoSystem` is the single-cell wrapper
that every existing benchmark uses.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

from repro.core.config import PrestoConfig
from repro.core.proxy import PrestoProxy
from repro.core.queries import QueryAnswer, ScoredAnswers, ground_truths
from repro.core.sensor import PrestoSensor
from repro.energy.duty_cycle import DutyCycleConfig
from repro.energy.meter import EnergyMeter
from repro.metrics import Metrics, merged
from repro.radio.link import LinkConfig
from repro.radio.network import Network, NetworkNode
from repro.simulation.kernel import Simulator
from repro.simulation.process import PeriodicTask
from repro.simulation.randomness import RandomStreams
from repro.storage.aging import AgingPolicy
from repro.storage.archive import SensorArchive
from repro.storage.flash import FlashDevice
from repro.storage.offload import OffloadCoordinator, fleet_fidelity
from repro.sync.clock import ClockModel, DriftingClock
from repro.traces.intel_lab import TraceSet
from repro.traces.workload import Query

#: how often bulk idle-listening energy is accounted
IDLE_ACCOUNTING_PERIOD_S = 3600.0


@dataclass
class SystemReport(ScoredAnswers, Metrics):
    """Everything a benchmark needs from one simulated run.

    Beyond the scored answer log these are a cell's ledger totals; each
    field's merge rule across cells is declared on it (:mod:`repro.metrics`).
    """

    sensor_energy_by_category: dict[str, float] = merged("dict_sum")
    proxy_energy_j: float = merged("sum")
    #: scattered to global sensor ids by the federation, which passes it
    per_sensor_energy_j: list[float] = merged("given")
    pushes: int
    cold_pushes: int
    batches: int
    pulls: int
    pull_failures: int
    packets_sent: int
    packets_delivered: int
    model_refits: int
    cache_size: int
    cache_insertions: int = 0
    cache_refinements: int = 0
    cache_evictions: int = 0
    #: archive segments the aging policy has compressed below full
    #: resolution, fleet-wide — the wear-out sweeps' knee metric
    archive_aged_segments: int = 0
    #: worst (highest) resolution level any archived segment reached
    archive_worst_level: int = merged("max", default=0)
    #: segments shipped to a neighbour's flash by the offload coordinator
    segments_offloaded: int = 0
    #: payload bytes those offload moves carried over the radio
    offload_bytes: int = 0
    #: proxy cache-miss pulls served from a remote host's flash
    remote_reads: int = 0
    #: per-reading retention score of the fleet's archives vs ground truth
    #: (1.0 = every reading ever taken still recoverable at full fidelity);
    #: cells score their own sensors' readings, which are (near-)uniform
    #: across the fleet, so cells merge by sensor count
    archive_fidelity_retained: float = merged("sensor_mean", default=1.0)
    #: total flash capacity across the sensor fleet (device bytes summed)
    flash_capacity_bytes: int = 0

    SUMMARY = (
        "sensor_energy_j",
        "sensor_energy_per_day_j",
        "mean_latency_s",
        "p95_latency_s",
        "mean_error",
        "success_rate",
        "answered_fraction",
        "pushes",
        "pulls",
        "delivery_ratio",
        "cache_insertions",
        "cache_refinements",
        "cache_evictions",
        "archive_aged_segments",
        "archive_worst_level",
        "archive_fidelity_retained",
        "segments_offloaded",
        "remote_reads",
    )

    @property
    def delivery_ratio(self) -> float:
        """Delivered / sent packets (1.0 when nothing was sent)."""
        return self.packets_delivered / self.packets_sent if self.packets_sent else 1.0


class PrestoCell:
    """One proxy and its sensors, built over a (sub-)trace.

    A cell owns its star network, proxy and sensor fleet but *not* the
    simulator — many cells can share one :class:`Simulator`, which is how
    the federation harness runs a whole proxy cluster in a single virtual
    timeline.  Sensor ids are local to the cell (``0 .. trace.n_sensors-1``);
    any global numbering is the caller's concern.  With a ``clock_model``
    each sensor draws its own drifting clock from it; ``None`` means ideal
    clocks.
    """

    def __init__(
        self,
        trace: TraceSet,
        config: PrestoConfig,
        sim: Simulator,
        streams: RandomStreams,
        proxy_name: str = "proxy",
        clock_model: ClockModel | None = None,
    ) -> None:
        self.trace = trace
        self.config = config
        if abs(config.sample_period_s - trace.config.epoch_s) > 1e-9:
            raise ValueError(
                f"config sample period {config.sample_period_s} != trace "
                f"epoch {trace.config.epoch_s}"
            )
        self.sim = sim
        self.streams = streams
        self.proxy_meter = EnergyMeter(proxy_name)
        self.network = Network(
            sim=sim,
            radio=config.node_profile.radio,
            link_config=config.link,
            default_duty_cycle=DutyCycleConfig(
                check_interval_s=config.default_check_interval_s
            ),
            rng=streams.get("radio.loss"),
        )
        self.proxy = PrestoProxy(
            name=proxy_name,
            config=config,
            sim=sim,
            network=self.network,
            meter=self.proxy_meter,
            n_sensors=trace.n_sensors,
        )
        self.network.register_proxy(
            NetworkNode(proxy_name, self.proxy_meter, on_receive=self.proxy.on_receive)
        )
        self.sensors: list[PrestoSensor] = []
        clock_rng = streams.get("sync.clocks")
        for sensor_id in range(trace.n_sensors):
            name = f"sensor{sensor_id}"
            meter = EnergyMeter(name)
            clock = DriftingClock(clock_model, clock_rng, name) if clock_model else None
            node = NetworkNode(name, meter)
            mac = self.network.register_sensor(node)
            flash = FlashDevice(
                config.node_profile.flash,
                meter,
                capacity_bytes=self._sensor_capacity_bytes(config, sensor_id),
            )
            archive = SensorArchive(
                flash,
                segment_readings=config.segment_readings,
                aging_policy=AgingPolicy(max_level=config.aging_max_level),
                sample_period_s=config.sample_period_s,
            )
            sensor = PrestoSensor(
                sensor_id=sensor_id,
                name=name,
                config=config,
                network=self.network,
                mac=mac,
                meter=meter,
                archive=archive,
                proxy_name=proxy_name,
                clock=clock,
            )
            node.on_receive = sensor.handle_packet
            self.sensors.append(sensor)
            self.proxy.register_sensor(sensor)
        self.offload: OffloadCoordinator | None = None
        if config.storage_policy != "local_aging":
            self.offload = OffloadCoordinator(
                policy=config.storage_policy,
                radio=config.node_profile.radio,
                now_fn=lambda: self.sim.now,
            )
            for sensor in self.sensors:
                self.offload.register(sensor.archive)
        self._epoch = 0
        self._tasks: list[PeriodicTask] = []

    @staticmethod
    def _sensor_capacity_bytes(config: PrestoConfig, sensor_id: int) -> int | None:
        """Per-sensor flash sizing under ``flash_capacity_skew``.

        Zero skew keeps the uniform configured capacity.  A skew of *s*
        alternates sensors between ``(1 - s)`` and ``(1 + s)`` of the
        nominal capacity — a heterogeneous fleet whose total flash equals
        the uniform one's, which is what makes collaborative offload a fair
        comparison against purely local aging.
        """
        if config.flash_capacity_skew == 0.0:
            return config.flash_capacity_bytes
        nominal = config.flash_capacity_bytes or config.node_profile.flash.capacity_bytes
        factor = 1.0 + (config.flash_capacity_skew if sensor_id % 2 else -config.flash_capacity_skew)
        return max(config.node_profile.flash.page_bytes, int(round(nominal * factor)))

    # -- simulation activities ----------------------------------------------------

    def sample_all(self) -> None:
        """Feed the next trace epoch to every sensor."""
        if self._epoch >= self.trace.n_epochs:
            return
        now = self.sim.now
        column = self.trace.values[:, self._epoch].tolist()
        for sensor in self.sensors:
            value = column[sensor.sensor_id]
            if value != value:  # NaN: a sensing dropout
                sensor.on_missed_sample()
                continue
            sensor.on_sample(now, value)
        self._epoch += 1

    def account_idle(self) -> None:
        """Charge one period of bulk idle-listening energy."""
        self.network.account_idle_all(IDLE_ACCOUNTING_PERIOD_S)

    def refit_all(self) -> None:
        """Refit and ship models for every sensor."""
        self.proxy.refit_all()

    def retune_all(self) -> None:
        """Re-derive operating points for every sensor."""
        for sensor_id in range(self.trace.n_sensors):
            self.proxy.retune_sensor(sensor_id)

    # -- lifecycle ---------------------------------------------------------------

    def start_tasks(self) -> None:
        """Arm the cell's periodic activities on the shared simulator."""
        period = self.config.sample_period_s
        self._tasks = [
            PeriodicTask(self.sim, period, self.sample_all, start_offset=0.0),
            PeriodicTask(
                self.sim,
                IDLE_ACCOUNTING_PERIOD_S,
                self.account_idle,
                start_offset=IDLE_ACCOUNTING_PERIOD_S,
            ),
            PeriodicTask(
                self.sim,
                self.config.refit_interval_s,
                self.refit_all,
                start_offset=self.config.min_training_epochs * period + 1.0,
            ),
            PeriodicTask(
                self.sim,
                self.config.retune_interval_s,
                self.retune_all,
                start_offset=self.config.retune_interval_s,
            ),
        ]
        for task in self._tasks:
            task.start()

    def stop_tasks(self) -> None:
        """Disarm all periodic activities."""
        for task in self._tasks:
            task.stop()
        self._tasks = []

    def finalise(self, horizon: float) -> None:
        """Account the idle tail and flush pending sensor batches."""
        remainder = horizon % IDLE_ACCOUNTING_PERIOD_S
        if remainder > 0:
            self.network.account_idle_all(remainder)
        for sensor in self.sensors:
            sensor.flush_batch()

    # -- reporting ----------------------------------------------------------------

    def report(
        self, horizon: float, answers: Sequence[QueryAnswer] = ()
    ) -> SystemReport:
        """Assemble the cell's :class:`SystemReport` (local numbering).

        A cell keeps no query log: *answers* is the log of the harness that
        took the queries, scored here against the cell's own trace.  The
        federation scores its global log itself and takes only the ledger.
        """
        fleet = EnergyMeter("fleet")
        per_sensor: list[float] = []
        aged_segments = 0
        worst_level = 0
        for sensor in self.sensors:
            fleet.merge(sensor.meter)
            per_sensor.append(sensor.meter.total_j)
            for level, count in sensor.archive.resolution_profile().items():
                if level > 0:
                    aged_segments += count
                    worst_level = max(worst_level, level)
        fidelity = fleet_fidelity(
            [sensor.archive for sensor in self.sensors],
            self.trace.values,
            self.trace.config.epoch_s,
        )
        capacity_bytes = sum(
            sensor.archive.flash.capacity_bytes for sensor in self.sensors
        )
        return SystemReport(
            duration_s=horizon,
            n_sensors=len(self.sensors),
            answers=list(answers),
            truths=ground_truths(self.trace, [answer.query for answer in answers]),
            sensor_energy_j=fleet.total_j,
            sensor_energy_by_category=fleet.snapshot().by_category,
            proxy_energy_j=self.proxy_meter.total_j,
            per_sensor_energy_j=per_sensor,
            pushes=sum(s.pushes_sent for s in self.sensors),
            cold_pushes=sum(s.cold_pushes for s in self.sensors),
            batches=sum(s.batches_sent for s in self.sensors),
            pulls=self.proxy.pull_stats.requests,
            pull_failures=self.proxy.pull_stats.failures,
            packets_sent=self.network.packets_sent,
            packets_delivered=self.network.packets_delivered,
            model_refits=self.proxy.engine.refits,
            cache_size=self.proxy.cache.size(),
            cache_insertions=self.proxy.cache.insertions,
            cache_refinements=self.proxy.cache.refinements,
            cache_evictions=self.proxy.cache.evictions,
            archive_aged_segments=aged_segments,
            archive_worst_level=worst_level,
            segments_offloaded=self.offload.stats.segments_offloaded if self.offload else 0,
            offload_bytes=self.offload.stats.bytes_offloaded if self.offload else 0,
            remote_reads=self.offload.stats.remote_reads if self.offload else 0,
            archive_fidelity_retained=fidelity,
            flash_capacity_bytes=capacity_bytes,
        )


def event_time(at_s: float) -> float:
    """*at_s* as the time of a scheduled fault or link change.

    Rejects a NaN, infinite or negative time where it is given, instead of
    letting it be dropped by a horizon filter or fail a partition later.
    """
    at = float(at_s)
    if not (math.isfinite(at) and at >= 0.0):
        raise ValueError(f"event time must be finite and non-negative, got {at_s!r}")
    return at


def resolve_config(trace: TraceSet, config: PrestoConfig | None) -> PrestoConfig:
    """*config*, or by default the PRESTO config sampling at *trace*'s epoch."""
    return config or PrestoConfig(sample_period_s=trace.config.epoch_s)


class PrestoSystem:
    """Builder + runner for one PRESTO cell over a trace and workload."""

    def __init__(
        self,
        trace: TraceSet,
        config: PrestoConfig | None = None,
        seed: int = 0,
        clock_model: ClockModel | None = None,
        proxy_name: str = "proxy",
    ) -> None:
        self.trace = trace
        self.streams = RandomStreams(seed=seed)
        self.sim = Simulator()
        self.cell = PrestoCell(
            trace,
            resolve_config(trace, config),
            self.sim,
            self.streams,
            proxy_name=proxy_name,
            clock_model=clock_model,
        )
        self.config = self.cell.config
        # Aliases kept for every consumer of the pre-federation attribute set.
        self.proxy_meter = self.cell.proxy_meter
        self.network = self.cell.network
        self.proxy = self.cell.proxy
        self.sensors = self.cell.sensors
        self.continuous = self.proxy.continuous

    def schedule_link_change(
        self,
        at_s: float,
        link_config: LinkConfig,
        cell_indices: tuple[int, ...] | list[int] | None = None,
    ) -> None:
        """Swap the cell's radio link config at *at_s*.

        Same call as :meth:`FederatedSystem.schedule_link_change
        <repro.core.federation.FederatedSystem.schedule_link_change>`, for
        a deployment whose only cell is index 0.
        """
        if any(cell_id != 0 for cell_id in cell_indices or ()):
            raise ValueError(f"cell indices {cell_indices} out of range for one cell")
        self.sim.schedule(
            event_time(at_s), lambda: self.network.set_link_config(link_config)
        )

    # -- main entry ---------------------------------------------------------------------

    def run(
        self,
        queries: list[Query] | None = None,
        duration_s: float | None = None,
    ) -> SystemReport:
        """Replay the trace (and queries) and collect the report."""
        queries = queries or []
        horizon = duration_s if duration_s is not None else self.trace.config.duration_s
        self.cell.start_tasks()
        answers: list[QueryAnswer] = []
        for query in queries:
            if query.arrival_time < horizon:
                self.sim.schedule(
                    query.arrival_time,
                    lambda q=query: answers.append(self.proxy.process_query(q)),
                )
        self.sim.run_until(horizon)
        self.cell.stop_tasks()
        self.cell.finalise(horizon)
        return self.cell.report(horizon, answers)
