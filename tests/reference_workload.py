"""The per-query ``choice`` workload generators, kept as the tests' reference.

Bit-for-bit the ``QueryWorkloadGenerator`` / ``ShardedWorkloadGenerator``
drawing code from before the generators drew from precomputed CDFs: every
query calls ``rng.choice(n, p=...)`` for its kind and sensor (re-validating
and re-accumulating the probability vector each time) and
``rng.uniform`` for its jitter and lookback.  Constructor validation is
left to the classes under test — both sides are built from the same
arguments.  ``test_workload_equivalence.py`` drives these and
:mod:`repro.traces.workload` from identically seeded generators.
"""

from __future__ import annotations

import numpy as np

from repro.traces.workload import Query, QueryKind, QueryWorkloadConfig


class ChoiceWorkloadGenerator:
    """Seeded Poisson/Zipf query stream over a deployment."""

    def __init__(
        self,
        n_sensors: int,
        config: QueryWorkloadConfig,
        rng: np.random.Generator,
    ) -> None:
        self.n_sensors = int(n_sensors)
        self.config = config
        self._rng = rng
        self._zipf_weights = self._make_zipf_weights()

    def _make_zipf_weights(self) -> np.ndarray:
        ranks = np.arange(1, self.n_sensors + 1, dtype=np.float64)
        weights = ranks ** (-self.config.zipf_exponent)
        return weights / weights.sum()

    def _draw_sensor(self, rng: np.random.Generator) -> int:
        """Pick the target sensor of one query (Zipf over the deployment)."""
        return int(rng.choice(self.n_sensors, p=self._zipf_weights))

    def generate(self, start_s: float, end_s: float) -> list[Query]:
        """All queries arriving in ``[start_s, end_s)``, time-ordered.

        PAST queries target instants up to ``past_horizon_s`` before their
        arrival (never before t=0), so early queries reach shallower history.
        """
        if end_s <= start_s:
            raise ValueError(f"empty interval [{start_s}, {end_s})")
        cfg = self.config
        rng = self._rng
        queries: list[Query] = []
        time = start_s
        query_id = 0
        kinds = (
            QueryKind.NOW,
            QueryKind.PAST_POINT,
            QueryKind.PAST_RANGE,
            QueryKind.PAST_AGG,
        )
        mix = np.asarray(
            [
                cfg.now_fraction,
                cfg.past_point_fraction,
                cfg.past_range_fraction,
                cfg.past_agg_fraction,
            ]
        )
        while True:
            time += rng.exponential(1.0 / cfg.arrival_rate_per_s)
            if time >= end_s:
                break
            kind = kinds[int(rng.choice(len(kinds), p=mix))]
            sensor = self._draw_sensor(rng)
            precision = cfg.precision * (
                1.0 + cfg.precision_jitter * float(rng.uniform(-1.0, 1.0))
            )
            if kind is QueryKind.NOW:
                target = time
                window = 0.0
            else:
                lookback = float(rng.uniform(0.0, min(cfg.past_horizon_s, time)))
                target = max(time - lookback, 0.0)
                window = cfg.window_s if kind in (
                    QueryKind.PAST_RANGE, QueryKind.PAST_AGG
                ) else 0.0
                if window > 0:
                    target = max(target - window, 0.0)
            aggregate = ("mean", "min", "max")[int(rng.integers(0, 3))]
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


class ChoiceShardedWorkloadGenerator(ChoiceWorkloadGenerator):
    """Query stream over a federated deployment: shard by weight, then Zipf."""

    def __init__(
        self,
        shards: list[list[int]],
        config: QueryWorkloadConfig,
        rng: np.random.Generator,
        shard_weights: list[float] | None = None,
    ) -> None:
        flat = [sensor for shard in shards for sensor in shard]
        super().__init__(n_sensors=len(flat), config=config, rng=rng)
        self._shards = [list(shard) for shard in shards]
        if shard_weights is None:
            weights = np.full(len(shards), 1.0 / len(shards))
        else:
            weights = np.asarray(shard_weights, dtype=np.float64)
            weights = weights / weights.sum()
        self._shard_weights = weights
        exponent = self.config.zipf_exponent
        self._within: list[np.ndarray] = []
        for shard in self._shards:
            ranks = np.arange(1, len(shard) + 1, dtype=np.float64)
            zipf = ranks ** (-exponent)
            self._within.append(zipf / zipf.sum())

    def _draw_sensor(self, rng: np.random.Generator) -> int:
        """Shard by weight, then Zipf rank within the shard."""
        shard = int(rng.choice(len(self._shards), p=self._shard_weights))
        rank = int(rng.choice(len(self._shards[shard]), p=self._within[shard]))
        return int(self._shards[shard][rank])
