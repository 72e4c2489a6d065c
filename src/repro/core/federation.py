"""Directory-routed multi-proxy federation.

Section 5 of the paper anticipates deployments with many proxies: sensors
are partitioned across cells, an order-preserving index routes queries to
the proxy owning a sensor, and "caches and prediction models at the
wireless proxies may need to be further replicated at the wired proxies to
enable low-latency query responses".  This module is that deployment story
as one harness:

* :func:`partition_sensors` shards a deployment trace across N proxies
  (contiguous/spatial blocks, round-robin, or variance-balanced);
* every cell is a :class:`~repro.core.system.PrestoCell` built
  inside one of ``FederationConfig.partitions`` **independent simulation
  partitions** (``1`` by default, ``0`` for one per core): each partition
  runs its block of cells on a private kernel for the whole horizon —
  queries pre-routed to it, the fault timeline replayed on its own
  directory copy — one after another in-process or across a process pool
  (:func:`~repro.simulation.pool.map_tasks`), and the coordinator merges
  their results;
* query routing resolves the owning proxy through a skip graph over
  contiguous ownership runs (O(log P) hops, counted and charged as routing
  latency — the walk itself is taken once per sensor, at construction,
  since membership never changes) and consults the
  :class:`~repro.index.directory.CacheDirectory` when the owner is dead;
* wireless proxies' hot summary-cache tails and model trackers are
  replicated to wired proxies on a sync period — each sync one k-of-n
  erasure-coded generation in the core's
  :class:`~repro.coding.fragments.FragmentStore`, whole copies being the
  k = 1 code — and failover answers are served from the state
  reconstructed out of it — *only* from it, so availability experiments
  measure what replication actually bought.
"""

from __future__ import annotations

import bisect
import dataclasses
import functools
from dataclasses import dataclass

import numpy as np

from repro.coding import CodingCounters, CodingReport, FragmentStore, SensorRecord
from repro.core.cache import CacheSnapshot, aggregate
from repro.core.config import FederationConfig, PrestoConfig
from repro.core.continuous import ContinuousQuery, ContinuousQueryEngine, Notification
from repro.core.proxy import PROXY_PROCESSING_S
from repro.core.push import ForecastTrajectory, ProxyModelTracker
from repro.core.queries import AnswerSource, QueryAnswer, ground_truths
from repro.core.fleet import SensorFleet
from repro.core.system import PrestoCell, SystemReport, event_time, resolve_config
from repro.index.directory import CacheDirectory
from repro.index.skipgraph import SkipGraph
from repro.metrics import fold, merged
from repro.radio.link import LinkConfig
from repro.serving.config import ServingConfig, ServingReport
from repro.serving.frontend import BackendSegments, ServingFrontend
from repro.simulation.kernel import Simulator
from repro.simulation.pool import map_tasks, resolve_workers
from repro.simulation.process import PeriodicTask
from repro.simulation.randomness import RandomStreams
from repro.sync.clock import ClockModel
from repro.traces.intel_lab import TraceSet
from repro.traces.workload import Query, QueryKind

#: nominal response latency of a wired / an 802.11-mesh proxy
WIRED_LATENCY_S = 0.01
WIRELESS_LATENCY_S = 0.25

#: latency of one skip-graph routing hop
HOP_LATENCY_S = 0.002


def partition_sensors(
    trace: TraceSet, n_proxies: int, policy: str
) -> list[list[int]]:
    """Assign the trace's global sensor ids to *n_proxies* shards.

    ``contiguous``
        Spatial blocks of neighbouring ids — one proxy per floor/hallway,
        the paper's deployment sketch.
    ``round_robin``
        Sensor ``i`` goes to proxy ``i % n_proxies`` — maximally interleaved,
        the stress case for routing.
    ``balanced``
        Greedy bin packing by per-sensor signal variance: a proxy's load
        tracks push traffic, which tracks variability, so high-variance
        sensors are spread first.

    Every shard is returned sorted ascending; shard ``k`` belongs to proxy
    ``k``.
    """
    n = trace.n_sensors
    if n_proxies < 1:
        raise ValueError(f"need >= 1 proxy, got {n_proxies}")
    if n_proxies > n:
        raise ValueError(f"{n_proxies} proxies for {n} sensors")
    if policy == "contiguous":
        shards = [list(map(int, block)) for block in np.array_split(np.arange(n), n_proxies)]
    elif policy == "round_robin":
        shards = [list(range(k, n, n_proxies)) for k in range(n_proxies)]
    elif policy == "balanced":
        variance = np.nan_to_num(np.nanvar(trace.values, axis=1), nan=0.0)
        order = np.argsort(-variance, kind="stable")
        loads = [0.0] * n_proxies
        shards = [[] for _ in range(n_proxies)]
        for sensor in order:
            lightest = min(range(n_proxies), key=lambda k: (loads[k], k))
            shards[lightest].append(int(sensor))
            loads[lightest] += float(variance[sensor])
        shards = [sorted(shard) for shard in shards]
    else:
        raise ValueError(f"unknown shard policy {policy!r}")
    if any(not shard for shard in shards):
        raise ValueError(f"policy {policy!r} produced an empty shard")
    return shards


def partition_cells(n_cells: int, k: int) -> list[list[int]]:
    """Assign cell ids to *k* simulation partitions (contiguous blocks).

    Contiguous blocks keep each partition's ownership runs contiguous too,
    so pre-routing a query to its owner's partition is a single floor
    lookup.  ``k`` must not exceed ``n_cells`` (no partition may be empty).
    """
    if not 1 <= k <= n_cells:
        raise ValueError(f"need 1 <= partitions <= {n_cells} cells, got {k}")
    return [
        [int(cell) for cell in block]
        for block in np.array_split(np.arange(n_cells), k)
    ]


@dataclass(frozen=True)
class FederatedCell:
    """One proxy cell's place in the federation — identity, not state.

    Shipped to every partition so each holds the *full* membership map
    (directory registrations, skip-graph keys) while building only its own
    cells.
    """

    cell_id: int
    name: str                      # the proxy name (directory / routing key)
    sensor_ids: list[int]          # sorted global ids; local i <-> sensor_ids[i]
    wired: bool
    response_latency_s: float

    def to_local(self, global_sensor: int) -> int:
        """Translate a global sensor id into this cell's local numbering."""
        position = bisect.bisect_left(self.sensor_ids, global_sensor)
        if (
            position == len(self.sensor_ids)
            or self.sensor_ids[position] != global_sensor
        ):
            raise ValueError(f"sensor {global_sensor} not in cell {self.name}")
        return position

    def to_global(self, local_sensor: int) -> int:
        """Translate a local sensor index back to the global id."""
        return self.sensor_ids[local_sensor]


@dataclass
class SensorReplica:
    """Replicated hot state of one sensor at sync time, as failover reads it.

    Built from a folded :class:`~repro.coding.wire.SensorRecord`.
    ``entries`` is a columnar :class:`CacheSnapshot` — replica queries
    aggregate over its arrays directly; row iteration stays available for
    consumers that want :class:`~repro.core.cache.CacheEntry` views.
    ``trajectory`` is the forecast of the tracker rebuilt from its declared
    state (None when no model was replicated), computed once and read
    further along by every query against this replica.
    """

    entries: CacheSnapshot
    trajectory: ForecastTrajectory | None

    @classmethod
    def from_record(cls, record: SensorRecord) -> SensorReplica:
        """The read view of one folded wire record."""
        return cls(
            entries=CacheSnapshot(record.timestamps, record.values, record.stds, record.codes),
            trajectory=ForecastTrajectory(
                ProxyModelTracker.from_state(record.family, record.state)
            )
            if record.family
            else None,
        )


@dataclass(frozen=True)
class FailoverEvent:
    """One proxy death and how stale its replicated state was at that instant.

    ``replica_staleness_s`` is the age of the newest *entry* any live host
    holds for the dead proxy — the horizon beyond which failover answers
    must extrapolate.  It compounds sync lag with model-driven push
    suppression (a well-predicted sensor legitimately ships nothing for
    hours), so it bounds answer extrapolation depth, not sync recency.
    ``inf`` when nothing was replicated (no plan, or death before the
    first sync): failover then has nothing to serve from.
    """

    proxy: str
    at_s: float
    replica_staleness_s: float


@dataclass
class RoutingCounters:
    """What one routing core counted; partitions' records add field-wise."""

    cross_proxy_hops: int = 0      # total skip-graph hops over all queries
    replica_hits: int = 0          # failover queries answered from a replica
    failovers: int = 0             # queries whose owning proxy was dead
    unroutable: int = 0            # queries with no live server at all
    replica_syncs: int = 0


@dataclass
class FederatedReport(RoutingCounters, SystemReport):
    """A :class:`SystemReport` aggregated across cells, plus routing metrics."""

    n_proxies: int = merged("given", default=1)
    shard_policy: str = merged("given", default="contiguous")
    replication_factor: int = merged("given", default=0)
    #: one entry per proxy death
    fault_staleness_s: tuple[float, ...] = merged("given", default=())
    #: |answer - truth| over failovers
    failover_mean_error: float = merged("given", default=float("nan"))
    failover_max_error: float = merged("given", default=float("nan"))
    cell_reports: list[SystemReport] = merged("given", default_factory=list)
    #: simulation partitions the run executed on
    n_partitions: int = merged("given", default=1)
    #: front-end tier, when enabled
    serving: ServingReport | None = merged("given", default=None)
    #: replica-sync byte/decode ledger
    coding: CodingReport | None = merged("given", default=None)

    SUMMARY = SystemReport.SUMMARY + (
        "n_proxies",
        "mean_routing_hops",
        "replica_hit_rate",
        "failovers",
        "unroutable",
        "max_replica_staleness_s",
        "failover_mean_error",
        "n_partitions",
        ("serving_", "serving"),
        ("coding_", "coding"),
    )

    @property
    def mean_routing_hops(self) -> float:
        """Average skip-graph hops per routed query (NaN with no queries)."""
        if not self.answers:
            return float("nan")
        return self.cross_proxy_hops / len(self.answers)

    @property
    def replica_hit_rate(self) -> float:
        """Fraction of failover queries a replica could answer.

        NaN when no failovers happened — a run without proxy deaths is no
        evidence about replication (same convention as
        :attr:`SystemReport.answered_fraction`).
        """
        if self.failovers == 0:
            return float("nan")
        return self.replica_hits / self.failovers

    @property
    def max_replica_staleness_s(self) -> float:
        """Worst replica age across the run's proxy deaths (NaN: no deaths)."""
        if not self.fault_staleness_s:
            return float("nan")
        return max(self.fault_staleness_s)


class _RoutingCore:
    """Directory-routed query answering over the federation's membership.

    The constructor builds everything routing resolves against — directory
    registrations, the replica placement plan, skip-graph ownership, the
    routing counters — from the same inputs wherever it runs, so the
    coordinator (:class:`FederatedSystem`, which executes no cells) and
    every :class:`_CellPartition` hold identical copies.  Built cells and
    the fragment store start empty; a partition fills them for the cells
    it executes, and every query is pre-routed to its owner's partition,
    so the owner and its replicas are always resolvable there.
    """

    def __init__(
        self,
        trace: TraceSet,
        config: PrestoConfig,
        federation: FederationConfig,
        seed: int,
        cells: list[FederatedCell],
    ) -> None:
        self.trace = trace
        self.config = config
        self.federation = federation
        self.seed = int(seed)
        self.cells = cells
        self._by_name = {fc.name: fc for fc in cells}
        # This core's kernel and the cells built on it.  Both stay idle on
        # the coordinator: cells only ever advance inside partitions.
        self.sim = Simulator()
        self._built: dict[str, PrestoCell] = {}

        # Cluster-wide cache placement and replication planning.  Replica
        # state is one k-of-n fragment store whatever the configured
        # spelling: whole copies are its k = 1 generations.
        self.directory = CacheDirectory()
        for fc in cells:
            self.directory.register_proxy(
                fc.name, wired=fc.wired, response_latency_s=fc.response_latency_s
            )
            self.directory.publish_cache(fc.name, set(fc.sensor_ids))
        k, n = federation.replica_code
        self.replication_plan = self.directory.plan_fragment_placement(k, n)
        self._fragments = FragmentStore(k, n, self.replication_plan)
        self._coding = CodingCounters()
        # Per sensor, the record failover last answered from and its read
        # view.  Folded chains are memoised, so reconstruct hands back the
        # *same* record until a newer generation supersedes it.
        self._replicas: dict[int, tuple[SensorRecord, SensorReplica]] = {}

        # Ownership lookup: one skip-graph node per contiguous run of sensors
        # owned by the same proxy, so "who owns sensor s" is a floor search —
        # O(log P) for contiguous shards, never a dict scan.  Runs are
        # inserted in ascending order, which fixes the graph's seeded levels.
        self._owners = SkipGraph(
            rng=RandomStreams(seed=seed).get("federation.skipgraph")
        )
        run_starts = sorted(
            (sensor, fc.name)
            for fc in cells
            for i, sensor in enumerate(fc.sensor_ids)
            if i == 0 or fc.sensor_ids[i - 1] != sensor - 1
        )
        for sensor, name in run_starts:
            self._owners.insert(float(sensor), name)
        # Membership never changes after this (a death flips directory
        # liveness, not the graph), so each sensor's floor walk is taken
        # once: ``(owner name, hops)``, what every query to it is charged.
        # It is the one ownership table; readers guard ``0 <= sensor < n``.
        self._route = [
            self._owners.floor_value(float(sensor))
            for sensor in range(trace.n_sensors)
        ]

        self.routing = RoutingCounters()
        # The federation's one answer log (global numbering); cells keep none.
        self._query_log: list[QueryAnswer] = []
        self._failover_positions: list[int] = []

    # -- replication ----------------------------------------------------------------

    def _proxy_alive(self, name: str) -> bool:
        """Directory liveness, in predicate form for the fragment store."""
        return self.directory.proxy(name).alive

    def _export_owner(self, owner: str, keyframe: bool) -> list[SensorRecord]:
        """One owner's hot state at sync time: whole tails for a *keyframe*,
        else each sensor's delta against the previous export."""
        hot = self.federation.hot_entries_per_sensor
        proxy = self._built[owner].proxy
        records: list[SensorRecord] = []
        for local, global_id in enumerate(self._by_name[owner].sensor_ids):
            first_s, kept, rows, tracker = proxy.export_replica_state(local, hot, keyframe)
            if not kept and not rows and tracker is None:
                continue
            family, state = tracker or (0, ())
            records.append(
                SensorRecord(
                    sensor=global_id,
                    first_s=first_s,
                    kept=kept,
                    timestamps=rows.timestamps,
                    values=rows.values,
                    stds=rows.stds,
                    codes=rows.codes,
                    family=family,
                    state=state,
                )
            )
        return records

    def _sync_replicas(self) -> None:
        """Ship each live wireless proxy's hot state to its wired replicas.

        A replica only ever holds state from *before* a failure — sync skips
        dead owners (nothing to ship) and dead hosts (nowhere to ship).
        Each owner this core executes is exported once per sync — a delta
        against its previous generation, or a keyframe when the store asks
        for one — and the serialized generation is striped into a k-of-n
        generation of which only the live hosts' fragments are shipped.
        Payload and shipped bytes land in the coding ledger — fragment
        bytes are what the per-sync radio/flash accounting prices, which is
        the byte claim ``bench_coding`` gates.
        """
        store = self._fragments
        for owner in self._built:
            if not self._proxy_alive(owner):
                continue
            payload, shipped, live_hosts = store.sync(
                owner, functools.partial(self._export_owner, owner), self._proxy_alive
            )
            self._coding.payload_bytes += payload
            self._coding.shipped_bytes += shipped
            self._coding.full_copy_bytes += payload * min(store.n - store.k + 1, live_hosts)
            self.routing.replica_syncs += live_hosts

    def _replica_staleness(self, proxy_name: str) -> float:
        """Age of the newest entry live hosts hold for *proxy_name* now.

        Read off the reconstructed state (decodable chains merged
        oldest-first); ``inf`` when nothing is held or nothing decodes.
        """
        merged = self._fragments.reconstruct(proxy_name, self._proxy_alive)
        newest = max(
            (
                float(record.timestamps[-1])
                for record in (merged or {}).values()
                if record.timestamps.size
            ),
            default=float("-inf"),
        )
        return max(self.sim.now - newest, 0.0)

    # -- query routing ----------------------------------------------------------------

    def route_query(self, query: Query) -> QueryAnswer:
        """Route one global query to its owner or a live replica and log it.

        Queries enter the federation at the skip graph's entry node.  When
        the floor search ends there (``hops == 0`` — always, with a single
        proxy), the query is served where it arrived and pays nothing
        beyond the cell's own processing; otherwise it pays the routing
        hops *plus* the serving proxy's nominal response latency — which is
        what makes a live 802.11-mesh proxy slow (0.25 s class) and a
        wired replica taking over for it *faster*, the Section 5 argument
        for replicating onto wired proxies.
        """
        if not 0 <= query.sensor < self.trace.n_sensors:
            self.routing.unroutable += 1
            answer = QueryAnswer(
                query=query, value=None, source=AnswerSource.FAILED, latency_s=0.0
            )
            self._query_log.append(answer)
            return answer
        owner_name, hops = self._route[query.sensor]
        self.routing.cross_proxy_hops += hops
        routing_latency = hops * HOP_LATENCY_S
        owner = self.directory.proxy(owner_name)
        if owner.alive:
            if hops > 0:
                routing_latency += owner.response_latency_s
            answer = self._built[owner_name].proxy.process_query(
                query, self._by_name[owner_name].to_local(query.sensor), routing_latency
            )
        else:
            self.routing.failovers += 1
            self._failover_positions.append(len(self._query_log))
            answer = self._failover_answer(query, owner_name, routing_latency)
        self._query_log.append(answer)
        return answer

    @staticmethod
    def _rewrite(query: ContinuousQuery, fc: FederatedCell) -> ContinuousQuery:
        """Rewrite a standing query into the cell's local sensor numbering.

        Each is registered once; a routed :class:`Query` is never rewritten —
        its owner answers it with the local index beside it.
        """
        return dataclasses.replace(query, sensor=fc.to_local(query.sensor))

    def _failover_answer(
        self, query: Query, owner_name: str, routing_latency: float
    ) -> QueryAnswer:
        """Answer for a dead owner from the best live replica, or fail."""
        best = self.directory.best_server(query.sensor)
        base_latency = PROXY_PROCESSING_S + routing_latency
        merged = None
        if best is not None and best.name != owner_name:
            merged = self._fragments.reconstruct(owner_name, self._proxy_alive)
            if merged is None:
                # Fewer than k fragments survive in every held generation:
                # the stripe is lost and failover degrades to the unroutable
                # path, exactly as if no replica host were left.  (Live
                # hosts holding nothing yet reconstruct empty, and fail
                # below at the replica host's latency instead.)
                self._coding.irrecoverable += 1
        if merged is None:
            self.routing.unroutable += 1
            return QueryAnswer(
                query=query,
                value=None,
                source=AnswerSource.FAILED,
                latency_s=base_latency,
            )
        record = merged.get(query.sensor)
        latency = base_latency + best.response_latency_s
        estimate = (
            self._replica_estimate(self._replica(query.sensor, record), query)
            if record is not None
            else None
        )
        if estimate is None:
            return QueryAnswer(
                query=query,
                value=None,
                source=AnswerSource.FAILED,
                latency_s=latency,
            )
        value, std, source = estimate
        self.routing.replica_hits += 1
        return QueryAnswer(
            query=query,
            value=value,
            source=source,
            latency_s=latency,
            believed_std=std,
        )

    def _replica_estimate(
        self, state: SensorReplica, query: Query
    ) -> tuple[float, float, AnswerSource] | None:
        """Best-effort answer from replicated state frozen at sync time."""
        period = self.config.sample_period_s
        if query.kind is QueryKind.NOW:
            last = state.entries[-1] if state.entries else None
            if last is None:
                return None
            steps = int(round((query.arrival_time - last.timestamp) / period))
            if state.trajectory is not None and steps >= 1:
                value, std = state.trajectory.at(steps)
                return value, max(std, last.std), AnswerSource.PREDICTION
            # No model replicated: serve the last synced value, widened by
            # its age (random-walk growth at the push tolerance scale).
            staleness = self.config.push_delta * np.sqrt(max(steps, 0) / 3.0)
            return last.value, last.std + staleness, AnswerSource.PREDICTION
        if query.kind is QueryKind.PAST_POINT:
            position = state.entries.nearest(query.target_time, tolerance_s=period)
            if position is None:
                return None
            best_entry = state.entries[position]
            source = (
                AnswerSource.CACHE if best_entry.is_actual else AnswerSource.PREDICTION
            )
            return best_entry.value, best_entry.std, source
        start = min(query.target_time, query.arrival_time)
        end = min(start + query.window_s, query.arrival_time)
        window = state.entries.window_slice(start, end)
        data = state.entries.values[window]
        if data.size == 0:
            return None
        worst_std = float(state.entries.stds[window].max())
        value = aggregate(data, query.aggregate)
        all_actual = bool(state.entries.actual_mask()[window].all())
        source = AnswerSource.CACHE if all_actual else AnswerSource.PREDICTION
        return value, worst_std, source

    def _replica(self, sensor: int, record: SensorRecord) -> SensorReplica:
        """The read view of *record*, built once per folded record."""
        held = self._replicas.get(sensor)
        if held is None or held[0] is not record:
            held = (record, SensorReplica.from_record(record))
            self._replicas[sensor] = held
        return held[1]


class FederatedSystem(_RoutingCore):
    """A cluster of PRESTO cells behind one directory-routed query front.

    With ``n_proxies=1`` this degenerates to exactly the single-cell
    :class:`~repro.core.system.PrestoSystem` (same seed, same trace — same
    energy, latency and answers), which is the correctness anchor for
    everything the federation adds.

    Proxy death is modelled at the routing layer: a dead proxy's cell keeps
    simulating (its in-simulation state is what the proxy *would* hold, and
    is what a recovered proxy resumes with), but queries can no longer reach
    it — they fail over to the lowest-latency wired proxy holding a replica,
    which answers **only** from the state replicated before the failure.
    """

    def __init__(
        self,
        trace: TraceSet,
        config: PrestoConfig | None = None,
        federation: FederationConfig | None = None,
        seed: int = 0,
        clock_model: ClockModel | None = None,
        serving: ServingConfig | None = None,
    ) -> None:
        fed = federation or FederationConfig()
        self.shards = partition_sensors(trace, fed.n_proxies, fed.shard_policy)
        super().__init__(
            trace,
            resolve_config(trace, config),
            fed,
            seed,
            [
                FederatedCell(
                    cell_id=cell_id,
                    name=f"proxy{cell_id}",
                    sensor_ids=list(ids),
                    wired=cell_id < fed.n_wired,
                    response_latency_s=(
                        WIRED_LATENCY_S
                        if cell_id < fed.n_wired
                        else WIRELESS_LATENCY_S
                    ),
                )
                for cell_id, ids in enumerate(self.shards)
            ],
        )
        self.clock_model = clock_model
        self.serving = serving
        #: resolved count of simulation partitions :meth:`run` executes on
        self.n_partitions = fed.resolve_partitions()
        self._assign = partition_cells(fed.n_proxies, self.n_partitions)
        self._part_of_cell = {
            cell_id: p for p, ids in enumerate(self._assign) for cell_id in ids
        }
        #: Standing queries by *global* sensor id.  Each partition arms its
        #: own cells' share at setup; after :meth:`run`, ``notifications``
        #: holds every cell's firings (global ids, cell order).
        self.continuous = ContinuousQueryEngine()
        self._prerun_deaths: list[FailoverEvent] = []
        self._run_deaths: list[FailoverEvent] = []
        self._failures: list[tuple[float, str]] = []
        self._recoveries: list[tuple[float, str]] = []
        self._link_events: list[tuple[float, LinkConfig, tuple[int, ...] | None]] = []

    # -- membership & failure injection -------------------------------------------

    @property
    def proxy_names(self) -> list[str]:
        """All proxy names, cell order (wired first)."""
        return [fc.name for fc in self.cells]

    @property
    def failover_events(self) -> list[FailoverEvent]:
        """Every proxy death: those staged before the run, then the run's own."""
        return self._prerun_deaths + self._run_deaths

    def cell_for(self, proxy_name: str) -> FederatedCell:
        """Lookup a federated cell's descriptor by proxy name."""
        return self._by_name[proxy_name]

    def owner_of(self, sensor: int) -> str:
        """Resolve the owning proxy of a global sensor id (skip-graph route)."""
        return self._route[sensor][0]

    def fail_proxy(self, proxy_name: str) -> None:
        """Take a proxy offline before the run (its queries fail over from t=0).

        Records a :class:`FailoverEvent` like a scheduled death does; with
        nothing replicated yet its staleness is ``inf``.  Use
        :meth:`schedule_failure` for a death *during* the run.
        """
        self._validate_proxy(proxy_name)
        self._prerun_deaths.append(
            FailoverEvent(
                proxy=proxy_name,
                at_s=self.sim.now,
                replica_staleness_s=self._replica_staleness(proxy_name),
            )
        )
        self.directory.mark_down(proxy_name)

    def recover_proxy(self, proxy_name: str) -> None:
        """Bring a proxy back online."""
        self._validate_proxy(proxy_name)
        self.directory.mark_up(proxy_name)

    def _validate_proxy(self, proxy_name: str) -> None:
        if proxy_name not in self._by_name:
            raise ValueError(
                f"unknown proxy {proxy_name!r}; have {self.proxy_names}"
            )

    def schedule_failure(self, proxy_name: str, at_s: float) -> None:
        """Kill *proxy_name* at virtual time *at_s* during :meth:`run`."""
        self._validate_proxy(proxy_name)
        self._failures.append((event_time(at_s), proxy_name))

    def schedule_recovery(self, proxy_name: str, at_s: float) -> None:
        """Recover *proxy_name* at virtual time *at_s* during :meth:`run`."""
        self._validate_proxy(proxy_name)
        self._recoveries.append((event_time(at_s), proxy_name))

    def schedule_link_change(
        self,
        at_s: float,
        link_config: LinkConfig,
        cell_indices: tuple[int, ...] | list[int] | None = None,
    ) -> None:
        """Swap the radio link config of the targeted cells at *at_s*.

        The way to stage loss bursts: the change is recorded and each
        partition replays it on its own kernel, before any cell task is
        armed, so a change and a cell event at the same instant fire in
        that order.  ``cell_indices=None`` targets every cell.
        """
        cells = tuple(int(c) for c in cell_indices) if cell_indices is not None else None
        if cells is not None:
            for cell_id in cells:
                if not 0 <= cell_id < self.federation.n_proxies:
                    raise ValueError(f"cell index {cell_id} out of range")
        self._link_events.append((event_time(at_s), link_config, cells))

    # -- main entry ---------------------------------------------------------------------

    def _context(self, horizon: float) -> _PartitionContext:
        """Everything recorded so far, frozen for the partitions of one run."""
        n = self.trace.n_sensors
        standing = tuple(self.continuous.active)
        for query in standing:
            if not 0 <= query.sensor < n:
                raise ValueError(
                    f"standing query on sensor {query.sensor}; have 0..{n - 1}"
                )
        return _PartitionContext(
            trace=self.trace,
            config=self.config,
            federation=self.federation,
            seed=self.seed,
            clock_model=self.clock_model,
            cells=self.cells,
            horizon=horizon,
            failures=[(at, name) for at, name in self._failures if at < horizon],
            recoveries=[(at, name) for at, name in self._recoveries if at < horizon],
            initial_down=tuple(
                fc.name for fc in self.cells if not self._proxy_alive(fc.name)
            ),
            link_events=list(self._link_events),
            standing=standing,
        )

    def run(
        self,
        queries: list[Query] | None = None,
        duration_s: float | None = None,
    ) -> FederatedReport:
        """Replay the trace across all cells, routing *queries* globally.

        Cells execute on ``n_partitions`` independent kernels.  Every query
        is pre-routed (owner lookup in the route table, no hops charged)
        to the partition that owns its sensor; the partition routes it
        again on its own copy of the table — built from the same seeded
        skip graph, so hop counts agree everywhere.  Faults are replayed
        on every partition's directory copy at identical virtual times,
        keeping liveness in lockstep without mid-run communication.  The
        merged log is ordered by each query's global firing rank, so the
        report depends neither on the partition count nor on the backend.
        Every call starts from fresh cells and replaces the previous
        call's results.
        """
        horizon = float(
            duration_s if duration_s is not None else self.trace.config.duration_s
        )
        k = self.n_partitions
        due = sorted(
            (query for query in queries or [] if query.arrival_time < horizon),
            key=lambda query: query.arrival_time,
        )
        n = self.trace.n_sensors
        routed: list[list[tuple[int, Query]]] = [[] for _ in range(k)]
        for rank, query in enumerate(due):
            # An out-of-range sensor has no owner; any partition's
            # route_query answers it unroutable at its firing rank.
            owner = self._route[query.sensor][0] if 0 <= query.sensor < n else None
            part = self._part_of_cell[self._by_name[owner].cell_id] if owner else 0
            routed[part].append((rank, query))
        context = self._context(horizon)
        tasks = [(p, cell_ids, routed[p]) for p, cell_ids in enumerate(self._assign)]
        # One worker per core at most; the context (trace included) ships
        # to each worker once, each task only its cell ids and queries.
        workers = resolve_workers(0) if self.federation.partition_backend == "process" else 1
        results = map_tasks(_run_partition, context, tasks, workers)
        return self._attach_serving(self._merge_partitions(horizon, results), horizon)

    def _failover_errors(
        self, truths: list[float | None]
    ) -> tuple[float, float]:
        """(mean, max) |answer - truth| over answered failover queries.

        This is the replica-answer fidelity bound: how far serving from
        state frozen at the last sync diverged from the dead cell's
        in-simulation truth.  NaN when no failover produced a comparable
        answer.
        """
        errors = []
        for position in self._failover_positions:
            answer = self._query_log[position]
            truth = truths[position]
            if answer.value is None or truth is None or np.isnan(truth):
                continue
            errors.append(abs(answer.value - truth))
        if not errors:
            return float("nan"), float("nan")
        return float(np.mean(errors)), float(np.max(errors))

    def _compose_report(
        self, horizon: float, cell_reports: list[SystemReport]
    ) -> FederatedReport:
        """Score the routing log once and fold the cells' ledgers under it.

        ``cell_reports`` is in cell order, merged from the partition
        results; each ledger field merges by its declared rule, and only
        the per-sensor list is scattered here, to global sensor ids.
        """
        # An out-of-range sensor (answered unroutable) scores against None.
        truths = ground_truths(
            self.trace, [answer.query for answer in self._query_log]
        )
        failover_mean_error, failover_max_error = self._failover_errors(truths)
        per_sensor = [0.0] * self.trace.n_sensors
        for fc, report in zip(self.cells, cell_reports):
            for global_id, joules in zip(fc.sensor_ids, report.per_sensor_energy_j):
                per_sensor[global_id] = joules
        return fold(
            FederatedReport,
            cell_reports,
            duration_s=horizon,
            answers=self._query_log,
            truths=truths,
            per_sensor_energy_j=per_sensor,
            **vars(self.routing),
            n_proxies=self.federation.n_proxies,
            shard_policy=self.federation.shard_policy,
            replication_factor=self.federation.replication_factor,
            fault_staleness_s=tuple(
                event.replica_staleness_s for event in self.failover_events
            ),
            failover_mean_error=failover_mean_error,
            failover_max_error=failover_max_error,
            cell_reports=cell_reports,
            n_partitions=self.n_partitions,
            serving=None,   # attached by _attach_serving, after the fold
            coding=self._coding_report(),
        )

    def _coding_report(self) -> CodingReport:
        """The run's replica-sync byte ledger, priced at the node profile.

        Shipped bytes are charged once on the radio (backhaul transmit)
        and once on the host flash (fragment write) at the profile's
        per-byte rates.
        """
        fed = self.federation
        profile = self.config.node_profile
        counters = self._coding
        k, n = fed.replica_code
        return CodingReport(
            mode=fed.replica_coding,
            k=k,
            n=n,
            **vars(counters),
            sync_radio_j=counters.shipped_bytes * profile.radio.tx_energy_per_byte_j,
            sync_flash_j=counters.shipped_bytes * profile.flash.write_energy_per_byte_j,
        )

    # -- partitioned execution ------------------------------------------------------

    def _merge_partitions(
        self, horizon: float, results: list[_PartitionResult]
    ) -> FederatedReport:
        """Replace coordinator state with this run's partition results and report.

        Totals are assigned, never accumulated, so the coordinator always
        reflects exactly the latest run.  ``results`` is in partition order
        and partitions hold ascending contiguous cell blocks, so
        concatenating per-cell fields yields cell order.
        """
        entries = sorted(
            (entry for result in results for entry in result.log),
            key=lambda entry: entry[0],
        )
        self._query_log = [answer for _, answer, _ in entries]
        self._failover_positions = [
            i for i, (_, _, is_failover) in enumerate(entries) if is_failover
        ]
        self.routing = fold(RoutingCounters, [r.routing for r in results])
        self._coding = fold(CodingCounters, [r.coding for r in results])
        fault_events = sorted(
            (index, event) for result in results for index, event in result.fault_events
        )
        self._run_deaths = [event for _, event in fault_events]
        self.continuous.notifications = [
            notification for result in results for notification in result.notifications
        ]
        return self._compose_report(
            horizon, [report for result in results for report in result.cell_reports]
        )

    # -- serving front-end ----------------------------------------------------------

    def _attach_serving(
        self, report: FederatedReport, horizon: float
    ) -> FederatedReport:
        """Run the query-serving front-end model against this run's topology.

        The front-end is an analytic tier layered over the federation's
        *static* routing facts (ownership, hop counts, response latencies,
        the fault timeline) — it draws its own Zipf-skewed user traffic
        from a dedicated coordinator stream, so the serving numbers are
        identical whichever partition backend executed the cells.
        """
        if self.serving is None:
            return report
        n = self.trace.n_sensors
        k = self.n_partitions
        resp = {fc.name: fc.response_latency_s for fc in self.cells}
        owner_names, hops = zip(*self._route)
        partition_of_sensor = np.array(
            [self._part_of_cell[self._by_name[name].cell_id] for name in owner_names],
            dtype=np.int64,
        )

        # Piecewise-constant backend cost: one segment per fault-timeline
        # state.  A miss pays processing + routing hops + the serving
        # proxy's response latency; with the owner dead it is served by the
        # lowest-latency live replica host, or not at all.
        alive = {fc.name: self._proxy_alive(fc.name) for fc in self.cells}
        # A dead owner is only servable while >= k of its fragment slots
        # sit on live hosts (enough to decode; one whole copy at k = 1).
        need_hosts = self.federation.replica_code[0]

        def snapshot() -> tuple[np.ndarray, np.ndarray]:
            latency = np.empty(n, dtype=np.float64)
            served = np.ones(n, dtype=bool)
            for sensor in range(n):
                owner = owner_names[sensor]
                base = PROXY_PROCESSING_S + float(hops[sensor]) * HOP_LATENCY_S
                if alive[owner]:
                    latency[sensor] = base + (
                        resp[owner] if hops[sensor] > 0 else 0.0
                    )
                    continue
                hosts = [
                    host
                    for host in self.replication_plan.get(owner, [])
                    if alive[host]
                ]
                if len(hosts) >= need_hosts:
                    best = min(hosts, key=lambda host: (resp[host], host))
                    latency[sensor] = base + resp[best]
                else:
                    latency[sensor] = base
                    served[sensor] = False
            return latency, served

        changes: list[tuple[float, str, bool]] = [
            (at, name, False) for at, name in self._failures if at < horizon
        ]
        changes += [
            (at, name, True) for at, name in self._recoveries if at < horizon
        ]
        changes.sort(key=lambda change: change[0])  # stable: fails stay first
        boundaries = [0.0]
        states = [snapshot()]
        index = 0
        while index < len(changes):
            at = changes[index][0]
            while index < len(changes) and changes[index][0] == at:
                _, name, up = changes[index]
                alive[name] = up
                index += 1
            boundaries.append(at)
            states.append(snapshot())
        segments = BackendSegments(
            starts=np.asarray(boundaries, dtype=np.float64),
            latencies=np.stack([latency for latency, _ in states]),
            served=np.stack([served for _, served in states]),
        )
        frontend = ServingFrontend(
            config=self.serving,
            n_sensors=n,
            n_partitions=k,
            partition_of_sensor=partition_of_sensor,
            segments=segments,
            rng=RandomStreams(seed=self.seed).get("serving.traffic"),
        )
        report.serving = frontend.run(horizon)
        return report


@dataclass(frozen=True)
class _PartitionContext:
    """Everything a partition needs besides its own cell ids and queries.

    The shared state of :func:`~repro.simulation.pool.map_tasks`: shipped
    once per pool worker (the trace dominates the payload) and shared
    read-only by in-process execution.
    """

    trace: TraceSet
    config: PrestoConfig
    federation: FederationConfig
    seed: int
    clock_model: ClockModel | None
    cells: list[FederatedCell]
    horizon: float
    failures: list[tuple[float, str]]       # filtered to < horizon, original order
    recoveries: list[tuple[float, str]]
    initial_down: tuple[str, ...]
    link_events: list[tuple[float, LinkConfig, tuple[int, ...] | None]]
    standing: tuple[ContinuousQuery, ...]   # by global sensor id


@dataclass
class _PartitionResult:
    """What one partition reports back for merging (picklable).

    Per-cell fields are in the partition's (ascending) cell order.
    """

    log: list[tuple[int, QueryAnswer, bool]]          # (global rank, answer, failover?)
    fault_events: list[tuple[int, FailoverEvent]]     # keyed by failure index
    routing: RoutingCounters
    coding: CodingCounters
    cell_reports: list[SystemReport]                  # ledgers only: no answers
    notifications: list[Notification]                 # sensor = global id


class _CellPartition(_RoutingCore):
    """One simulation partition: a block of cells on a private kernel.

    Holds the *full* federation membership (directory registrations, skip
    graph, placement plan) so routing and failover resolve locally, but
    builds and advances only its own cells and syncs and reconstructs
    replicas only for them.  The fault timeline is replayed on the local
    directory copy at exact virtual times, which keeps liveness in lockstep
    with every other partition without mid-run communication; the partition
    owning a dying cell additionally records the :class:`FailoverEvent` (its
    replicas are local, so the staleness it measures is exact).
    """

    def __init__(
        self,
        context: _PartitionContext,
        cell_ids: list[int],
        queries: list[tuple[int, Query]],
    ) -> None:
        super().__init__(
            context.trace,
            context.config,
            context.federation,
            context.seed,
            context.cells,
        )
        self.context = context
        self.fleet = SensorFleet(self.sim)
        for cell_id in cell_ids:
            fc = self.cells[cell_id]
            self._built[fc.name] = PrestoCell(
                context.trace.subset(fc.sensor_ids),
                context.config,
                self.sim,
                RandomStreams(seed=context.seed + cell_id),
                self.fleet,
                proxy_name=fc.name,
                clock_model=context.clock_model,
            )
        for name in context.initial_down:
            self.directory.mark_down(name)
        self._fault_events: list[tuple[int, FailoverEvent]] = []
        self._queries = queries
        self._sync_task: PeriodicTask | None = None

    def setup(self) -> None:
        """Arm the partition's event queue.

        Standing queries are armed on the cells that own their sensors;
        then link changes, cell tasks, the replica-sync cadence, the fault
        timeline and the partition's pre-routed queries are scheduled in
        that fixed order, so equal-time ties fire identically at every
        partition count.
        """
        context = self.context
        for query in context.standing:
            # in range: FederatedSystem._context rejected any other sensor
            owner = self._route[query.sensor][0]
            if owner in self._built:
                self._built[owner].proxy.continuous.register(
                    self._rewrite(query, self._by_name[owner])
                )
        for at_s, link_config, cell_indices in context.link_events:
            networks = [
                cell.network
                for name, cell in self._built.items()
                if cell_indices is None or self._by_name[name].cell_id in cell_indices
            ]
            if networks:
                self.sim.schedule(
                    at_s,
                    lambda nets=networks, cfg=link_config: [
                        net.set_link_config(cfg) for net in nets
                    ],
                )
        for cell in self._built.values():
            cell.start_tasks()
        if any(self.replication_plan.get(name) for name in self._built):
            interval = context.federation.replica_sync_interval_s
            self._sync_task = PeriodicTask(
                self.sim, interval, self._sync_replicas, start_offset=interval
            )
            self._sync_task.start()
        for index, (at_s, name) in enumerate(context.failures):
            self.sim.schedule(
                at_s, lambda n=name, i=index: self._apply_failure(n, i)
            )
        for at_s, name in context.recoveries:
            self.sim.schedule(at_s, lambda n=name: self.directory.mark_up(n))
        for _, query in self._queries:
            self.sim.schedule(
                query.arrival_time, lambda q=query: self.route_query(q)
            )

    def _apply_failure(self, name: str, failure_index: int) -> None:
        """Replay one death: every partition marks the directory; only the
        dead cell's own partition measures replica staleness (exact — its
        replicas live here) and records the event for the merged report."""
        if name in self._built:
            self._fault_events.append(
                (
                    failure_index,
                    FailoverEvent(
                        proxy=name,
                        at_s=self.sim.now,
                        replica_staleness_s=self._replica_staleness(name),
                    ),
                )
            )
        self.directory.mark_down(name)

    def finish(self) -> _PartitionResult:
        """Tear down tasks, finalise cells and package the mergeable result."""
        horizon = self.context.horizon
        cells = list(self._built.values())
        for cell in cells:
            cell.stop_tasks()
        if self._sync_task is not None:
            self._sync_task.stop()
        for cell in cells:
            cell.finalise(horizon)
        assert len(self._query_log) == len(self._queries)
        failover_set = set(self._failover_positions)
        log = [
            (self._queries[i][0], answer, i in failover_set)
            for i, answer in enumerate(self._query_log)
        ]
        self._coding.decodes = self._fragments.decodes
        return _PartitionResult(
            log=log,
            fault_events=self._fault_events,
            routing=self.routing,
            coding=self._coding,
            cell_reports=[cell.report(horizon) for cell in cells],
            notifications=[
                dataclasses.replace(
                    notification,
                    sensor=self._by_name[name].to_global(notification.sensor),
                )
                for name, cell in self._built.items()
                for notification in cell.proxy.continuous.notifications
            ],
        )


def _run_partition(
    context: _PartitionContext,
    task: tuple[int, list[int], list[tuple[int, Query]]],
) -> _PartitionResult:
    """One partition's whole life — the function every backend executes.

    *task* is ``(partition index, cell ids, pre-routed queries)``.  Any
    failure inside it is re-raised naming the partition, so a crash
    surfaces from :meth:`FederatedSystem.run` instead of being retried.
    """
    index, cell_ids, queries = task
    try:
        partition = _CellPartition(context, cell_ids, queries)
        partition.setup()
        partition.sim.run_until(context.horizon)
        return partition.finish()
    except Exception as error:
        raise RuntimeError(
            f"partition {index} (cells {cell_ids}) failed: {error!r}"
        ) from error
