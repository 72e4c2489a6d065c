"""Query workload generation.

The architecture-comparison benchmarks (quantified Table 1) replay the same
query stream against every architecture.  Queries arrive as a Poisson
process; each query picks a sensor by a Zipf popularity law (users care
about a few hot spots), is NOW or PAST per a configured mix, and carries the
precision and latency requirements that PRESTO's query–sensor matching
consumes (Section 3).
"""

from __future__ import annotations

import enum
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from repro.simulation.randomness import seeded_rng


class QueryKind(enum.Enum):
    """Query families the PRESTO proxy distinguishes."""

    NOW = "now"                  # current value of a sensor
    PAST_POINT = "past_point"    # value at a historical instant
    PAST_RANGE = "past_range"    # series over a historical window
    PAST_AGG = "past_agg"        # aggregate (min/max/mean) over a window


@dataclass(frozen=True)
class Query:
    """One user query against the unified store."""

    query_id: int
    kind: QueryKind
    sensor: int
    arrival_time: float
    target_time: float           # instant queried (NOW: == arrival_time)
    window_s: float = 0.0        # PAST_RANGE / PAST_AGG window length
    precision: float = 0.5       # acceptable absolute error (signal units)
    latency_bound_s: float = 10.0
    aggregate: str = "mean"      # for PAST_AGG: mean | min | max

    def __post_init__(self) -> None:
        if self.precision <= 0:
            raise ValueError(f"precision must be positive, got {self.precision}")
        if self.latency_bound_s <= 0:
            raise ValueError(f"latency bound must be positive, got {self.latency_bound_s}")
        if self.kind in (QueryKind.PAST_RANGE, QueryKind.PAST_AGG) and self.window_s <= 0:
            raise ValueError(f"{self.kind.value} query needs a positive window")
        if self.aggregate not in ("mean", "min", "max"):
            raise ValueError(f"unknown aggregate {self.aggregate!r}")


@dataclass(frozen=True)
class QueryWorkloadConfig:
    """Knobs of the query stream."""

    arrival_rate_per_s: float = 1.0 / 60.0   # one query a minute
    now_fraction: float = 0.6
    past_point_fraction: float = 0.2
    past_range_fraction: float = 0.1
    past_agg_fraction: float = 0.1
    zipf_exponent: float = 1.1               # sensor popularity skew
    precision: float = 0.5
    precision_jitter: float = 0.25           # +/- fraction of precision
    latency_bound_s: float = 10.0
    past_horizon_s: float = 86_400.0         # how far back PAST queries reach
    window_s: float = 3_600.0                # PAST_RANGE/AGG window length

    def __post_init__(self) -> None:
        mix = (
            self.now_fraction,
            self.past_point_fraction,
            self.past_range_fraction,
            self.past_agg_fraction,
        )
        if not all(fraction >= 0.0 for fraction in mix):
            raise ValueError(f"query-mix fractions must be non-negative, got {mix}")
        # left to right: sum() compensates rounding from Python 3.12 on
        fractions = mix[0] + mix[1] + mix[2] + mix[3]
        if abs(fractions - 1.0) > 1e-9:
            raise ValueError(f"query-mix fractions sum to {fractions}, expected 1.0")
        if self.arrival_rate_per_s <= 0:
            raise ValueError("arrival rate must be positive")


_KINDS = (
    QueryKind.NOW,
    QueryKind.PAST_POINT,
    QueryKind.PAST_RANGE,
    QueryKind.PAST_AGG,
)
_AGGREGATES = ("mean", "min", "max")


def _cdf(weights: list[float] | np.ndarray) -> list[float]:
    """The table ``Generator.choice(n, p=weights)`` searches, built once.

    On every call ``choice`` re-validates ``p``, rebuilds ``cdf =
    p.cumsum(); cdf /= cdf[-1]`` and returns ``cdf.searchsorted(random(),
    side="right")``; ``bisect_right(cdf, u)`` over the same ``cdf`` and the
    same single ``random()`` draw ``u`` is the same index.
    """
    cdf = np.asarray(weights, dtype=np.float64).cumsum()
    cdf /= cdf[-1]
    return cdf.tolist()


def _zipf_cdf(n: int, exponent: float) -> list[float]:
    """CDF of the Zipf popularity law over ranks ``1 .. n``."""
    ranks = np.arange(1, n + 1, dtype=np.float64)
    weights = ranks ** (-exponent)
    return _cdf(weights / weights.sum())


class QueryWorkloadGenerator:
    """Seeded Poisson/Zipf query stream over a deployment.

    Every query makes, in order: one ``exponential`` draw (inter-arrival),
    ``2 + SENSOR_DRAWS`` uniform draws (kind, sensor, precision jitter),
    one more uniform draw for a PAST query's lookback, and one
    ``integers(0, 3)`` draw (aggregate).  Those are the bits the per-query
    ``rng.choice`` / ``rng.uniform`` formulation consumed, in the same
    order, so a given ``rng`` state yields the same queries and leaves the
    same state behind (``tests/reference_workload.py`` holds that form).
    """

    #: uniform draws :meth:`_draw_sensor` maps to a sensor
    SENSOR_DRAWS = 1

    def __init__(
        self,
        n_sensors: int,
        config: QueryWorkloadConfig | None = None,
        rng: np.random.Generator | None = None,
    ) -> None:
        if n_sensors < 1:
            raise ValueError(f"need >= 1 sensor, got {n_sensors}")
        self.n_sensors = int(n_sensors)
        self.config = config or QueryWorkloadConfig()
        # explicit deterministic fallback so an unseeded workload replays
        # identically across runs (seed 0 = the library default stream)
        self._rng = rng if rng is not None else seeded_rng(0)
        cfg = self.config
        self._kind_cdf = _cdf(
            [
                cfg.now_fraction,
                cfg.past_point_fraction,
                cfg.past_range_fraction,
                cfg.past_agg_fraction,
            ]
        )
        self._zipf_cdf = _zipf_cdf(self.n_sensors, cfg.zipf_exponent)

    def _draw_sensor(self, draws: list[float]) -> int:
        """Target sensor of one query from its uniform draws (Zipf rank)."""
        return bisect_right(self._zipf_cdf, draws[0])

    def generate(self, start_s: float, end_s: float) -> list[Query]:
        """All queries arriving in ``[start_s, end_s)``, time-ordered.

        PAST queries target instants up to ``past_horizon_s`` before their
        arrival (never before t=0), so early queries reach shallower history.
        """
        if end_s <= start_s:
            raise ValueError(f"empty interval [{start_s}, {end_s})")
        if start_s < 0:
            raise ValueError(f"query stream starts before t=0: {start_s}")
        cfg = self.config
        rng = self._rng
        mean_gap_s = 1.0 / cfg.arrival_rate_per_s
        n_draws = 2 + self.SENSOR_DRAWS
        queries: list[Query] = []
        time = start_s
        query_id = 0
        while True:
            time += rng.exponential(mean_gap_s)
            if time >= end_s:
                break
            # one size-k fill is k sequential random() draws
            draws = rng.random(n_draws).tolist()
            kind = _KINDS[bisect_right(self._kind_cdf, draws[0])]
            sensor = self._draw_sensor(draws[1:-1])
            # uniform(-1, 1) is -1 + 2u: the doubling is exact, one rounding
            precision = cfg.precision * (1.0 + cfg.precision_jitter * (-1.0 + 2.0 * draws[-1]))
            if kind is QueryKind.NOW:
                target = time
                window = 0.0
            else:
                # uniform(0, h) is 0 + h*u: one rounding
                lookback = min(cfg.past_horizon_s, time) * rng.random()
                target = max(time - lookback, 0.0)
                window = cfg.window_s if kind in (
                    QueryKind.PAST_RANGE, QueryKind.PAST_AGG
                ) else 0.0
                if window > 0:
                    target = max(target - window, 0.0)
            aggregate = _AGGREGATES[int(rng.integers(0, 3))]
            queries.append(
                Query(
                    query_id=query_id,
                    kind=kind,
                    sensor=sensor,
                    arrival_time=float(time),
                    target_time=float(target),
                    window_s=float(window),
                    precision=float(max(precision, 1e-3)),
                    latency_bound_s=cfg.latency_bound_s,
                    aggregate=aggregate,
                )
            )
            query_id += 1
        return queries


class ShardedWorkloadGenerator(QueryWorkloadGenerator):
    """Query stream over a *federated* deployment, shard-aware.

    The single-cell generator's global Zipf law concentrates almost all
    queries on the lowest sensor ids, which under contiguous sharding means
    one proxy sees all the traffic and the rest idle.  This generator picks
    a shard first (uniformly, or by ``shard_weights`` to model hot cells),
    then a sensor within the shard by the Zipf law — every proxy's sensors
    are targeted, which is what multi-cell routing and failover experiments
    need.  Sensor ids in the emitted queries are the *global* ids listed in
    ``shards``.
    """

    SENSOR_DRAWS = 2

    def __init__(
        self,
        shards: list[list[int]],
        config: QueryWorkloadConfig | None = None,
        rng: np.random.Generator | None = None,
        shard_weights: list[float] | None = None,
    ) -> None:
        if not shards or any(not shard for shard in shards):
            raise ValueError("need at least one sensor per shard")
        flat = [sensor for shard in shards for sensor in shard]
        if len(set(flat)) != len(flat):
            raise ValueError("shards must be disjoint")
        super().__init__(n_sensors=len(flat), config=config, rng=rng)
        self._shards = [[int(sensor) for sensor in shard] for shard in shards]
        if shard_weights is None:
            weights = np.full(len(shards), 1.0 / len(shards))
        else:
            if len(shard_weights) != len(shards):
                raise ValueError("one weight per shard required")
            weights = np.asarray(shard_weights, dtype=np.float64)
            if not np.isfinite(weights).all() or (weights < 0).any() or weights.sum() <= 0:
                raise ValueError("shard weights must be finite, non-negative, sum > 0")
            weights = weights / weights.sum()
        self._shard_cdf = _cdf(weights)
        exponent = self.config.zipf_exponent
        self._within_cdfs = [_zipf_cdf(len(shard), exponent) for shard in self._shards]

    def _draw_sensor(self, draws: list[float]) -> int:
        """Shard by weight, then Zipf rank within the shard."""
        shard = bisect_right(self._shard_cdf, draws[0])
        return self._shards[shard][bisect_right(self._within_cdfs[shard], draws[1])]
