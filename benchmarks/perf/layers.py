"""Layer map: which public entry points are wrapped, and what they report.

Layers are named after this repo's modules.  :data:`TARGETS` is the layer →
entry-point map the tracer installs; :data:`METRICS` declares every
per-layer metric (name, unit, direction, and the end-to-end metric and
workload it should move) and :func:`layer_metrics` computes them from one
traced repetition.  Buckets are ``layer`` or ``layer.part``; a layer's self
time and ``share`` sum all of its buckets.

Only public names are wrapped.  Where a layer's sole entry is private
(``_sync_replicas``, ``_attach_serving``, ``_merge_partitions``) its glue is
left to land in ``simulation.self_s`` or ``core.federation.compose_s``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from tracer import Target, Tracer

_CORE = "repro.core"


def _events_fired(simulator) -> int:
    return simulator.events_fired


TARGETS: list[Target] = [
    Target("simulation", "repro.simulation.kernel", "Simulator.run_until", gauge=_events_fired),
    # core.sensor
    Target("core.sensor.sample", f"{_CORE}.sensor", "PrestoSensor.on_sample"),
    Target("core.sensor.sample", f"{_CORE}.sensor", "PrestoSensor.on_missed_sample"),
    Target("core.sensor.pull", f"{_CORE}.sensor", "PrestoSensor.serve_pull"),
    Target("core.sensor.control", f"{_CORE}.sensor", "PrestoSensor.flush_batch"),
    Target("core.sensor.control", f"{_CORE}.sensor", "PrestoSensor.handle_packet"),
    # core.push (includes the in-line timeseries model stepping)
    Target("core.push.check", f"{_CORE}.push", "SensorModelChecker.process"),
    Target("core.push.track", f"{_CORE}.push", "ProxyModelTracker.advance_silent"),
    Target("core.push.track", f"{_CORE}.push", "ProxyModelTracker.apply_push"),
    # timeseries (model fitting; per-sample observe/predict_next stay unwrapped:
    # they would be millions of spans and are already inside core.push)
    Target("timeseries.fit", f"{_CORE}.prediction", "PredictionEngine.refit"),
    Target("timeseries.make", f"{_CORE}.prediction", "PredictionEngine.make_model"),
    # radio
    Target("radio.send", "repro.radio.network", "Network.send"),
    Target("radio.idle", "repro.radio.network", "Network.account_idle_all"),
    # sync
    Target("sync.exchange", "repro.sync.protocol", "TimeSyncProtocol.record_exchange"),
    Target("sync.map", "repro.sync.protocol", "TimeSyncProtocol.correct"),
    Target("sync.map", "repro.sync.protocol", "TimeSyncProtocol.project"),
    # core.proxy
    Target("core.proxy.ingest", f"{_CORE}.proxy", "PrestoProxy.on_receive"),
    Target("core.proxy.query", f"{_CORE}.proxy", "PrestoProxy.process_query", root=True),
    Target("core.proxy.export", f"{_CORE}.proxy", "PrestoProxy.export_replica_state", root=True),
    Target("core.proxy.control", f"{_CORE}.proxy", "PrestoProxy.refit_all"),
    Target("core.proxy.control", f"{_CORE}.proxy", "PrestoProxy.retune_sensor"),
    # core.cache
    Target("core.cache.write", f"{_CORE}.cache", "SummaryCache.insert"),
    Target("core.cache.write", f"{_CORE}.cache", "SummaryCache.insert_batch"),
    Target("core.cache.read", f"{_CORE}.cache", "SummaryCache.entry_at"),
    Target("core.cache.read", f"{_CORE}.cache", "SummaryCache.arrays_in"),
    Target("core.cache.read", f"{_CORE}.cache", "SummaryCache.entries_in"),
    Target("core.cache.read", f"{_CORE}.cache", "SummaryCache.values_on_grid"),
    Target("core.cache.read", f"{_CORE}.cache", "SummaryCache.tail_snapshot"),
    Target("core.cache.read", f"{_CORE}.cache", "SummaryCache.latest"),
    Target("core.cache.read", f"{_CORE}.cache", "SummaryCache.latest_actual"),
    # core.prediction
    Target("core.prediction", f"{_CORE}.prediction", "PredictionEngine.best_estimate"),
    Target("core.prediction", f"{_CORE}.prediction", "PredictionEngine.extrapolate_temporal"),
    Target("core.prediction", f"{_CORE}.prediction", "PredictionEngine.extrapolate_spatial"),
    # index
    Target("index.floor", "repro.index.skipgraph", "SkipGraph.floor_value"),
    Target("index.search", "repro.index.skipgraph", "SkipGraph.search"),
    Target("index.directory", "repro.index.directory", "CacheDirectory.serving_candidates"),
    Target("index.directory", "repro.index.directory", "CacheDirectory.best_server"),
    # core.federation (route_query resolves through the MRO to the class
    # both execution paths inherit it from)
    Target(
        "core.federation.route", f"{_CORE}.federation", "FederatedSystem.route_query", root=True
    ),
    Target("core.federation.compose", f"{_CORE}.federation", "FederatedSystem.run"),
    # coding
    Target("coding.serialize", "repro.coding.fragments", "serialize_payload", root=True),
    Target("coding.sync", "repro.coding.fragments", "FragmentStore.sync", root=True),
    Target("coding.encode", "repro.coding.rs", "rs_encode"),
    Target("coding.reconstruct", "repro.coding.fragments", "FragmentStore.reconstruct", root=True),
    Target("coding.decode", "repro.coding.rs", "rs_decode"),
    # storage
    Target("storage.archive.append", "repro.storage.archive", "SensorArchive.append"),
    Target("storage.archive.flush", "repro.storage.archive", "SensorArchive.flush"),
    Target("storage.archive.read", "repro.storage.archive", "SensorArchive.read_point"),
    Target("storage.archive.read", "repro.storage.archive", "SensorArchive.read_range"),
    Target(
        "storage.offload.plan", "repro.storage.offload", "OffloadCoordinator.make_room",
        count_true=True,
    ),
    Target("storage.offload.read", "repro.storage.offload", "OffloadCoordinator.remote_read"),
    Target("storage.aging", "repro.storage.aging", "AgingPolicy.make_room"),
    # signal
    Target("signal", "repro.signal.compress", "compress_block"),
    Target("signal", "repro.signal.compress", "decompress_block"),
    Target("signal", "repro.signal.multires", "summarize"),
    Target("signal", "repro.signal.multires", "age_once"),
    Target("signal", "repro.signal.multires", "reconstruct"),
    # serving
    Target("serving.traffic", "repro.serving.traffic", "generate_traffic"),
    Target("serving.run", "repro.serving.frontend", "ServingFrontend.run"),
]

LAYERS = (
    "simulation", "core.sensor", "core.push", "timeseries", "radio", "sync",
    "core.proxy", "core.cache", "core.prediction", "index", "core.federation",
    "coding", "storage", "signal", "serving",
)

#: layer groups the per-workload share targets are stated over
SENSING = ("core.sensor.sample", "core.sensor.control", "core.push.check",
           "storage.archive.append", "storage.archive.flush")
WRITE_PATH = (*SENSING, "core.push.track", "timeseries", "radio", "sync", "core.cache.write",
              "core.proxy.ingest", "core.proxy.control")
READ_PATH = ("core.proxy.query", "core.cache.read", "core.prediction", "index",
             "core.federation", "serving", "core.sensor.pull", "storage.archive.read")
SYNC_PATH = ("coding", "core.proxy.export")


@dataclass(frozen=True)
class Metric:
    """Declaration of one per-layer metric."""

    name: str
    unit: str
    better: str
    moves: str      # the end-to-end metric it should move, and on which workload

    @property
    def layer(self) -> str:
        """The layer the metric belongs to (longest matching layer name)."""
        return max(
            (layer for layer in (*LAYERS, "query", "trace") if self.name.startswith(layer + ".")),
            key=len,
        )


_HOST = "wall_s, sim_s_per_wall_s"
_QUALITY = "query_success_rate, query_fast_fraction"

METRICS: list[Metric] = [
    Metric("simulation.events", "count", "lower", f"{_HOST} on all (5-10 % each)"),
    Metric("simulation.self_s", "s", "lower", f"{_HOST} on all (5-10 % each)"),
    Metric("simulation.events_per_s", "1/s", "higher", f"{_HOST} on all"),
    Metric("core.sensor.samples", "count", "lower", f"{_HOST} on cell_day"),
    Metric("core.sensor.self_s", "s", "lower", f"{_HOST} on cell_day, then fed_armed"),
    Metric("core.sensor.pull_serves", "count", "lower", "energy_j_per_sensor_day on query_storm"),
    Metric("core.push.checks", "count", "lower", f"{_HOST} on cell_day"),
    Metric("core.push.self_s", "s", "lower", f"{_HOST} on cell_day; not query_storm"),
    Metric("core.push.push_fraction", "fraction", "lower", "energy_j_per_sensor_day on all"),
    Metric("timeseries.fits", "count", "lower", f"{_HOST} on cell_day"),
    Metric("timeseries.self_s", "s", "lower", f"{_HOST} on cell_day"),
    Metric("radio.packets", "count", "lower", "energy_j_per_sensor_day on all"),
    Metric("radio.self_s", "s", "lower", f"{_HOST} on cell_day"),
    Metric("radio.delivery_ratio", "fraction", "higher", "energy_j_per_sensor_day on all"),
    Metric("sync.exchanges", "count", "lower", f"{_HOST} on cell_day"),
    Metric("sync.self_s", "s", "lower", f"{_HOST} on cell_day (per-push polyfit), fed_armed"),
    Metric("core.proxy.ingest_calls", "count", "lower", f"{_HOST} on cell_day"),
    Metric("core.proxy.ingest_self_s", "s", "lower", f"{_HOST} on cell_day; not query_storm"),
    Metric("core.proxy.query_calls", "count", "lower", f"{_HOST} on query_storm"),
    Metric("core.proxy.query_self_s", "s", "lower", f"{_HOST} on query_storm; not cell_day"),
    Metric("core.proxy.export_calls", "count", "lower", f"{_HOST} on sync_coded"),
    Metric("core.proxy.export_self_s", "s", "lower", f"{_HOST} on sync_coded; not cell_day"),
    Metric("core.proxy.pulls", "count", "lower", f"{_QUALITY} on query_storm, fed_armed"),
    Metric("core.proxy.pull_failures", "count", "lower", "failed ops on query_storm, fed_armed"),
    Metric("core.proxy.local_answer_fraction", "fraction", "higher",
           f"{_QUALITY}, energy_j_per_sensor_day on query_storm"),
    Metric("core.cache.write_calls", "count", "lower", f"{_HOST} on cell_day"),
    Metric("core.cache.write_self_s", "s", "lower", f"{_HOST} on cell_day; watch query_storm"),
    Metric("core.cache.read_calls", "count", "lower", f"{_HOST} on query_storm"),
    Metric("core.cache.read_self_s", "s", "lower", f"{_HOST} on query_storm; watch cell_day"),
    Metric("core.cache.evictions", "count", "lower", "query_success_rate, peak_rss_mb on all"),
    Metric("core.prediction.estimates", "count", "lower", f"{_HOST} on query_storm"),
    Metric("core.prediction.self_s", "s", "lower", f"{_HOST} on query_storm; not cell_day"),
    Metric("index.lookups", "count", "lower", f"{_HOST} on query_storm; zero on cell_day"),
    Metric("index.self_s", "s", "lower", f"{_HOST} on query_storm; zero on cell_day"),
    Metric("index.mean_hops", "count", "lower", "query_success_rate on query_storm, fed_armed"),
    Metric("core.federation.routed", "count", "lower", f"{_HOST} on query_storm"),
    Metric("core.federation.route_self_s", "s", "lower", f"{_HOST} on query_storm"),
    Metric("core.federation.failovers", "count", "lower", f"{_QUALITY} on query_storm"),
    Metric("core.federation.unroutable", "count", "lower", "failed ops on query_storm, fed_armed"),
    Metric("core.federation.replica_hit_rate", "fraction", "higher", f"{_QUALITY} on query_storm"),
    Metric("core.federation.compose_s", "s", "lower", f"{_HOST} on query_storm; not cell_day"),
    Metric("coding.syncs", "count", "lower", f"{_HOST} on sync_coded; zero on cell_day"),
    Metric("coding.serialize_self_s", "s", "lower", f"{_HOST} on sync_coded"),
    Metric("coding.encode_self_s", "s", "lower", f"{_HOST} on sync_coded (gf_matmul)"),
    Metric("coding.reconstructs", "count", "lower", f"{_HOST} on sync_coded"),
    Metric("coding.decode_self_s", "s", "lower", f"{_HOST} on sync_coded"),
    Metric("coding.payload_bytes", "bytes", "lower", "peak_rss_mb on sync_coded"),
    Metric("coding.shipped_bytes", "bytes", "lower", "peak_rss_mb on sync_coded"),
    Metric("coding.decodes", "count", "lower", f"{_HOST} on sync_coded"),
    Metric("coding.irrecoverable", "count", "lower", "failed ops on sync_coded"),
    Metric("storage.archive_appends", "count", "lower", f"{_HOST} on flash_pressure"),
    Metric("storage.archive_self_s", "s", "lower", f"{_HOST} on flash_pressure"),
    Metric("storage.archive_reads", "count", "lower", f"{_HOST} on query_storm"),
    Metric("storage.offload_plans", "count", "lower", f"{_HOST} on flash_pressure; zero elsewhere"),
    Metric("storage.offload_self_s", "s", "lower", f"{_HOST} on flash_pressure (mcf arc build)"),
    Metric("storage.offload_moves", "count", "higher", "query_success_rate on flash_pressure"),
    Metric("storage.offload_success_ratio", "fraction", "higher",
           "query_success_rate on flash_pressure"),
    Metric("storage.aging_self_s", "s", "lower", f"{_HOST} on flash_pressure"),
    Metric("storage.aged_segments", "count", "lower", "query_success_rate on flash_pressure"),
    Metric("storage.fidelity_retained", "fraction", "higher",
           "query_success_rate on flash_pressure"),
    Metric("signal.calls", "count", "lower", f"{_HOST} on flash_pressure"),
    Metric("signal.self_s", "s", "lower", f"{_HOST} on flash_pressure"),
    Metric("serving.queries", "count", "higher", f"{_HOST} on query_storm, a little fed_armed"),
    Metric("serving.self_s", "s", "lower", f"{_HOST} on query_storm; zero on the other three"),
    Metric("serving.memo_hit_rate", "fraction", "higher", "serving.p99_sim_ms on query_storm"),
    Metric("serving.p99_sim_ms", "sim-ms", "lower", "user-visible serving tail on query_storm"),
    Metric("serving.unserved", "count", "lower", "failed ops on query_storm, fed_armed"),
    # Whole-query simulated latency (all layers): exact at a fixed seed, but far
    # too seed-dependent at a few hundred queries to carry an end-to-end bound.
    Metric("query.latency_sim_ms_mean", "sim-ms", "lower", "query_fast_fraction; equal seeds only"),
    Metric("query.latency_sim_ms_p95", "sim-ms", "lower", "query_fast_fraction; equal seeds only"),
    Metric("query.mean_error", "signal_units", "lower", "query_success_rate; equal seeds only"),
    *(
        Metric(f"{layer}.share", "fraction", "lower", "that layer's ceiling on wall_s")
        for layer in LAYERS
    ),
    Metric("trace.overhead_frac", "fraction", "lower", "trust in every *_self_s"),
    Metric("trace.unattributed_frac", "fraction", "lower", "run() time outside every named layer"),
    Metric("trace.spans", "count", "lower", "trace.overhead_frac"),
]


def ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``; 0.0 when there were no attempts.

    Every metric must be a finite number on every workload, so "0 of 0"
    reads 0.0 (README says so) instead of NaN.
    """
    return numerator / denominator if denominator else 0.0


def finite(value: float) -> float:
    """*value*, or 0.0 where the report uses NaN for "no evidence"."""
    return 0.0 if value is None or math.isnan(value) else float(value)


def group_share(tracer: Tracer, buckets: tuple[str, ...]) -> float:
    """Share of the traced wall spent in *buckets* (layers or single buckets)."""
    return sum(tracer.layer_self_s(bucket) for bucket in buckets) / tracer.traced_wall_s


def layer_metrics(tracer: Tracer, report, untraced_wall_s: float) -> dict[str, float]:
    """Every metric in :data:`METRICS`, from one traced run and its report.

    *untraced_wall_s* is the same workload's untraced ``wall_s`` (the
    runner's mean), against which the tracing overhead is stated.
    """
    calls = tracer.calls
    self_s = tracer.self_s
    layer_s = tracer.layer_self_s
    serving = getattr(report, "serving", None)
    coding = getattr(report, "coding", None)
    samples = calls["core.sensor.sample"]
    queries = calls["core.proxy.query"]
    offload_plans = calls["storage.offload.plan"]
    wall = tracer.traced_wall_s
    values = {
        "simulation.events": tracer.gauges.get("simulation", 0),
        "simulation.self_s": layer_s("simulation"),
        "simulation.events_per_s": ratio(tracer.gauges.get("simulation", 0), wall),
        "core.sensor.samples": samples,
        "core.sensor.self_s": layer_s("core.sensor"),
        "core.sensor.pull_serves": calls["core.sensor.pull"],
        "core.push.checks": calls["core.push.check"],
        "core.push.self_s": layer_s("core.push"),
        "core.push.push_fraction": ratio(report.pushes + report.cold_pushes, samples),
        "timeseries.fits": calls["timeseries.fit"],
        "timeseries.self_s": layer_s("timeseries"),
        "radio.packets": calls["radio.send"],
        "radio.self_s": layer_s("radio"),
        "radio.delivery_ratio": report.delivery_ratio,
        "sync.exchanges": calls["sync.exchange"],
        "sync.self_s": layer_s("sync"),
        "core.proxy.ingest_calls": calls["core.proxy.ingest"],
        "core.proxy.ingest_self_s": self_s("core.proxy.ingest"),
        "core.proxy.query_calls": queries,
        "core.proxy.query_self_s": self_s("core.proxy.query"),
        "core.proxy.export_calls": calls["core.proxy.export"],
        "core.proxy.export_self_s": self_s("core.proxy.export"),
        "core.proxy.pulls": report.pulls,
        "core.proxy.pull_failures": report.pull_failures,
        "core.proxy.local_answer_fraction": ratio(queries - report.pulls, queries),
        "core.cache.write_calls": calls["core.cache.write"],
        "core.cache.write_self_s": self_s("core.cache.write"),
        "core.cache.read_calls": calls["core.cache.read"],
        "core.cache.read_self_s": self_s("core.cache.read"),
        "core.cache.evictions": report.cache_evictions,
        "core.prediction.estimates": calls["core.prediction"],
        "core.prediction.self_s": layer_s("core.prediction"),
        "index.lookups": calls["index.search"] + calls["index.directory"],
        "index.self_s": layer_s("index"),
        "index.mean_hops": finite(getattr(report, "mean_routing_hops", 0.0)),
        "core.federation.routed": calls["core.federation.route"],
        "core.federation.route_self_s": self_s("core.federation.route"),
        "core.federation.failovers": getattr(report, "failovers", 0),
        "core.federation.unroutable": getattr(report, "unroutable", 0),
        "core.federation.replica_hit_rate": finite(getattr(report, "replica_hit_rate", 0.0)),
        "core.federation.compose_s": self_s("core.federation.compose"),
        "coding.syncs": calls["coding.sync"],
        "coding.serialize_self_s": self_s("coding.serialize"),
        "coding.encode_self_s": self_s("coding.sync", "coding.encode"),
        "coding.reconstructs": calls["coding.reconstruct"],
        "coding.decode_self_s": self_s("coding.reconstruct", "coding.decode"),
        "coding.payload_bytes": coding.payload_bytes if coding else 0,
        "coding.shipped_bytes": coding.shipped_bytes if coding else 0,
        "coding.decodes": coding.decodes if coding else 0,
        "coding.irrecoverable": coding.irrecoverable if coding else 0,
        "storage.archive_appends": calls["storage.archive.append"],
        "storage.archive_self_s": layer_s("storage.archive"),
        "storage.archive_reads": calls["storage.archive.read"],
        "storage.offload_plans": offload_plans,
        "storage.offload_self_s": layer_s("storage.offload"),
        "storage.offload_moves": report.segments_offloaded,
        "storage.offload_success_ratio": ratio(
            tracer.true_returns.get("storage.offload.plan", 0), offload_plans
        ),
        "storage.aging_self_s": self_s("storage.aging"),
        "storage.aged_segments": report.archive_aged_segments,
        "storage.fidelity_retained": report.archive_fidelity_retained,
        "signal.calls": calls["signal"],
        "signal.self_s": layer_s("signal"),
        "serving.queries": serving.n_queries if serving else 0,
        "serving.self_s": layer_s("serving"),
        "serving.memo_hit_rate": finite(serving.memo_hit_rate) if serving else 0.0,
        "serving.p99_sim_ms": finite(serving.p99_latency_s) * 1e3 if serving else 0.0,
        "serving.unserved": serving.unserved if serving else 0,
        "query.latency_sim_ms_mean": report.mean_latency_s * 1e3,
        "query.latency_sim_ms_p95": report.p95_latency_s * 1e3,
        "query.mean_error": report.mean_error,
        "trace.overhead_frac": wall / untraced_wall_s - 1.0,
        "trace.unattributed_frac": 1.0 - sum(tracer.self_ns.values()) / 1e9 / wall,
        "trace.spans": sum(calls.values()),
    }
    for layer in LAYERS:
        values[f"{layer}.share"] = layer_s(layer) / wall
    return {metric.name: float(values[metric.name]) for metric in METRICS}
