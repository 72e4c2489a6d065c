"""The benchmark's five workloads: parameters, why each exists, how to build one.

A workload is a pure function of ``(name, seed, scale)``: the seed drives the
trace generator, the query stream and the system's own random streams, so
the program under test only ever sees generated inputs.  Every federated
workload runs on ``partition_backend="inline"`` — no worker processes, so the
timed region is one single-threaded closed loop.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

DEFAULT_SEED = 1105
EPOCH_S = 31.0
DAY_S = 86_400.0
#: queries start after the cold-start hour, as in the legacy federation bench
QUERY_START_S = 3_600.0

#: every workload shares these PRESTO settings unless it overrides them
BASE_PRESTO = {
    "sample_period_s": EPOCH_S,
    "refit_interval_s": 3 * 3_600.0,
    "min_training_epochs": 128,
}

#: The radio link every workload uses: the default 10 % loss, but 8 retries
#: instead of 5.  At 5 a frame is dropped once in 10^6 transfers, which over
#: the ~10^5 transfers of a run makes a pull (and so an operation) fail on a
#: few seeds in a hundred; at 8 no seed has a failed operation.
LINK = {"loss_probability": 0.1, "max_retries": 8}


@dataclass(frozen=True)
class Workload:
    """One set of benchmark inputs.

    ``n_proxies == 0`` means the plain single-cell :class:`PrestoSystem`;
    anything else is a :class:`FederatedSystem`.  ``kills`` lists
    ``(proxy name, fraction of the horizon)`` deaths.  ``quick`` overrides
    fields for the harness test's scale (``--quick``): big enough for every
    exact output check to hold, small enough for tier-1.
    """

    name: str
    why: str
    n_sensors: int
    n_proxies: int
    days: float
    query_rate_per_s: float
    quick: dict = field(default_factory=dict)
    query_mix: dict = field(default_factory=dict)
    presto: dict = field(default_factory=dict)
    federation: dict = field(default_factory=dict)
    serving: dict | None = None
    kills: tuple[tuple[str, float], ...] = ()

    def at_scale(self, scale: str) -> Workload:
        """This workload at *scale*: itself (``full``) or shrunk (``quick``)."""
        return dataclasses.replace(self, **self.quick) if scale == "quick" else self

    def parameters(self) -> dict:
        """The workload's parameters as plain data (for results files)."""
        return {
            "n_sensors": self.n_sensors,
            "n_proxies": self.n_proxies,
            "days": self.days,
            "query_rate_per_s": self.query_rate_per_s,
            "query_mix": dict(self.query_mix),
            "presto": {**BASE_PRESTO, **self.presto},
            "link": LINK,
            "federation": dict(self.federation),
            "serving": self.serving,
            "kills": [list(kill) for kill in self.kills],
        }


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="cell_day",
            why=(
                "single-cell write path in isolation (sample, model check, push, "
                "ingest, cache insert); routing, coding, offload and serving make zero calls"
            ),
            n_sensors=48,
            n_proxies=0,
            days=0.5,
            query_rate_per_s=1 / 120.0,
            quick={"n_sensors": 8, "days": 0.1},
        ),
        Workload(
            name="fed_armed",
            why=(
                "every feature armed at once (partitions, faults, rs sync, offload, "
                "serving): the interaction net and the headline sim-s per wall-s"
            ),
            n_sensors=128,
            n_proxies=16,
            days=0.2,
            query_rate_per_s=1 / 20.0,
            quick={"n_sensors": 16, "days": 0.07},
            presto={
                "storage_policy": "mcf_offload",
                "flash_capacity_bytes": 6_000,
                "flash_capacity_skew": 0.5,
            },
            federation={
                "partitions": 2,
                "replication_factor": 2,
                "replica_coding": "rs",
                "coding_k": 2,
                "coding_n": 3,
                "replica_sync_interval_s": 1_800.0,
            },
            serving={"offered_qps": 200.0, "duration_s": 600.0},
            kills=(("proxy15", 0.6),),
        ),
        Workload(
            name="query_storm",
            why=(
                "read path: routing, process_query, cache window reads, pulls, failover "
                "answers, report merge and serving dominate; sensing is under a tenth"
            ),
            n_sensors=32,
            n_proxies=16,
            days=0.2,
            query_rate_per_s=2.0,
            quick={
                "n_sensors": 16,
                "days": 0.07,
                "query_rate_per_s": 0.1,
                "serving": {"offered_qps": 200.0, "duration_s": 300.0, "memo_ttl_s": 0.5},
            },
            federation={
                "partitions": 2,
                "replication_factor": 1,
                "replica_sync_interval_s": 1_800.0,
            },
            serving={"offered_qps": 2_000.0, "duration_s": 600.0, "memo_ttl_s": 0.5},
            kills=(("proxy14", 0.5), ("proxy15", 0.7)),
        ),
        Workload(
            name="sync_coded",
            why=(
                "frequent rs(4,6) syncs of deep cache tails: snapshot export, serialise "
                "and GF(256) encode/decode are the largest share off the write path"
            ),
            n_sensors=32,
            n_proxies=16,
            days=0.35,
            query_rate_per_s=1 / 20.0,
            quick={"n_sensors": 16, "days": 0.07},
            presto={"push_delta": 2.0},
            federation={
                "partitions": 2,
                "wired_fraction": 0.4,
                "replica_coding": "rs",
                "coding_k": 4,
                "coding_n": 6,
                "replica_sync_interval_s": 120.0,
                "hot_entries_per_sensor": 2_048,
            },
            kills=(("proxy14", 0.5), ("proxy15", 0.7)),
        ),
        Workload(
            name="flash_pressure",
            why=(
                "many sensors per cell on tiny skewed flash: the min-cost offload "
                "planner, archive flushes and wavelet aging dominate; routing idles"
            ),
            n_sensors=64,
            n_proxies=2,
            days=0.2,
            query_rate_per_s=1 / 20.0,
            quick={"n_sensors": 8, "days": 0.15},
            # Points, not windows: a window over history the archive has
            # evicted has no answer by design (a point falls back to the
            # model), and no workload here may contain operations that fail.
            query_mix={
                "past_point_fraction": 0.4,
                "past_range_fraction": 0.0,
                "past_agg_fraction": 0.0,
            },
            presto={
                "storage_policy": "mcf_offload",
                "flash_capacity_bytes": 3_500,
                "flash_capacity_skew": 0.5,
                "segment_readings": 64,
                "push_delta": 2.0,
            },
            federation={"partitions": 2},
        ),
    )
}


def build(name: str, seed: int, scale: str = "full"):
    """Generate *name*'s inputs and construct its system.

    Returns ``(system, queries, horizon_s)``; the caller times
    ``system.run(queries=queries)`` and nothing else.  ``repro`` is imported
    here, not at module level, so the runner can list workloads without it
    and the import lands inside the child's ``setup_s``.

    After a proxy dies, history queries (PAST_*) for its sensors are left
    out of the stream: its replicas hold only state from before the death,
    so such a query is unanswerable by design and the benchmark's workloads
    are chosen so that no operation fails.  NOW queries still fail over.
    """
    from repro.core.config import FederationConfig, PrestoConfig
    from repro.core.federation import FederatedSystem
    from repro.core.system import PrestoSystem
    from repro.radio.link import LinkConfig
    from repro.serving.config import ServingConfig
    from repro.simulation.randomness import seeded_rng
    from repro.traces.intel_lab import IntelLabConfig, IntelLabGenerator
    from repro.traces.workload import (
        QueryKind,
        QueryWorkloadConfig,
        QueryWorkloadGenerator,
        ShardedWorkloadGenerator,
    )

    spec = WORKLOADS[name].at_scale(scale)
    horizon = spec.days * DAY_S
    trace = IntelLabGenerator(
        IntelLabConfig(n_sensors=spec.n_sensors, duration_s=horizon, epoch_s=EPOCH_S),
        seed=seed,
    ).generate()
    config = PrestoConfig(**{**BASE_PRESTO, **spec.presto}, link=LinkConfig(**LINK))
    query_config = QueryWorkloadConfig(
        arrival_rate_per_s=spec.query_rate_per_s, **spec.query_mix
    )
    query_rng = seeded_rng(seed + 1)
    if spec.n_proxies == 0:
        system = PrestoSystem(trace, config, seed=seed)
        generator = QueryWorkloadGenerator(spec.n_sensors, query_config, query_rng)
    else:
        system = FederatedSystem(
            trace,
            config,
            federation=FederationConfig(
                n_proxies=spec.n_proxies, partition_backend="inline", **spec.federation
            ),
            seed=seed,
            serving=ServingConfig(**spec.serving) if spec.serving else None,
        )
        generator = ShardedWorkloadGenerator(system.shards, query_config, query_rng)
    queries = generator.generate(QUERY_START_S, horizon)
    for proxy, fraction in spec.kills:
        died_at = fraction * horizon
        system.schedule_failure(proxy, died_at)
        orphaned = set(system.shards[system.proxy_names.index(proxy)])
        queries = [
            query
            for query in queries
            if query.kind is QueryKind.NOW
            or query.arrival_time < died_at
            or query.sensor not in orphaned
        ]
    return system, queries, horizon
