"""Batched-admission query front-end with memoization and FIFO backends.

This models the production serving path over a federation: user queries
arrive continuously, are admitted in fixed batches (the admission tick is
the first latency component), deduplicated against a TTL'd answer memo
(overlapping windows quantize onto the same key), and surviving misses are
dispatched to the owning cell's simulation partition — each partition is
one FIFO backend whose queueing follows the Lindley recursion: a batch's
misses start at ``max(admission time, backend frontier)`` and each takes
one service time, so offered load past a partition's capacity grows the
frontier without bound and the p99 latency turns the saturation knee the
benchmarks chart.

Backend response cost is piecewise-constant per fault-timeline segment
(:class:`BackendSegments`), precomputed by the federation from its static
routing facts — ownership hops, proxy response latencies and replica
placement — so the front-end model is identical whichever partition
backend executed the cells.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.serving.config import ServingConfig, ServingReport
from repro.serving.traffic import generate_traffic

#: admission batch length — the first latency component of every query
ADMISSION_INTERVAL_S = 0.25

#: front-end lookup latency on a memo hit
MEMO_HIT_LATENCY_S = 0.0005

#: span of a window query, and the quantization of its memo key
WINDOW_S = 3_600.0
WINDOW_QUANT_S = 60.0

#: memo-key packing offsets: key = sensor * _KEY_STRIDE + (bucket + _BUCKET_BIAS) * 2 + kind
_BUCKET_BIAS = 1 << 20
_KEY_STRIDE = 1 << 24

#: prune expired memo entries every this many admission batches
_PRUNE_EVERY = 256


@dataclass(frozen=True)
class BackendSegments:
    """Piecewise-constant backend cost per sensor across the fault timeline.

    ``starts[i]`` opens segment ``i``; ``latencies[i, sensor]`` is the
    response latency a miss pays there, and ``served[i, sensor]`` is False
    when no live proxy (owner or replica host) can serve the sensor.
    """

    starts: np.ndarray             # (n_segments,) ascending, starts[0] == 0
    latencies: np.ndarray          # (n_segments, n_sensors) float64
    served: np.ndarray             # (n_segments, n_sensors) bool

    def segment_at(self, at_s: float) -> int:
        """Index of the segment covering virtual time *at_s*."""
        return int(np.searchsorted(self.starts, at_s, side="right") - 1)


class ServingFrontend:
    """Admit, memoize and dispatch one serving window of traffic."""

    def __init__(
        self,
        config: ServingConfig,
        n_sensors: int,
        n_partitions: int,
        partition_of_sensor: np.ndarray,
        segments: BackendSegments,
        rng: np.random.Generator,
    ) -> None:
        if n_partitions < 1:
            raise ValueError("need at least one partition")
        if partition_of_sensor.shape != (n_sensors,):
            raise ValueError("partition map must cover every sensor")
        self.config = config
        self.n_sensors = int(n_sensors)
        self.n_partitions = int(n_partitions)
        self.partition_of_sensor = partition_of_sensor
        self.segments = segments
        self.rng = rng

    def run(self, horizon: float) -> ServingReport:
        """Generate the window's traffic and push it through the front-end."""
        config = self.config
        traffic = generate_traffic(config, horizon, self.n_sensors, self.rng)
        n = len(traffic)
        if n == 0:
            return self._empty_report(traffic)
        # Memo keys: value queries bucket on arrival, window queries on the
        # quantized window start — overlapping windows collapse to one key.
        bucket = np.where(
            traffic.is_now,
            np.floor(traffic.arrival / WINDOW_QUANT_S),
            np.floor((traffic.arrival - WINDOW_S) / WINDOW_QUANT_S),
        ).astype(np.int64)
        keys = (
            traffic.sensor * _KEY_STRIDE
            + (bucket + _BUCKET_BIAS) * 2
            + traffic.is_now.astype(np.int64)
        )
        batch = np.floor(
            (traffic.arrival - traffic.t0) / ADMISSION_INTERVAL_S
        ).astype(np.int64)

        latencies = np.empty(n, dtype=np.float64)
        unserved_mask = np.zeros(n, dtype=bool)
        frontier = np.zeros(self.n_partitions, dtype=np.float64)
        memo: dict[int, float] = {}
        backend_requests = 0
        busy_s = 0.0
        service = config.service_time_s

        batch_bounds = np.searchsorted(batch, np.arange(batch[-1] + 2))
        for b in range(int(batch[-1]) + 1):
            lo, hi = int(batch_bounds[b]), int(batch_bounds[b + 1])
            if lo == hi:
                continue
            admit_at = traffic.t0 + (b + 1) * ADMISSION_INTERVAL_S
            slice_keys = keys[lo:hi]
            unique_keys, first, inverse = np.unique(
                slice_keys, return_index=True, return_inverse=True
            )
            completion = np.empty(unique_keys.size, dtype=np.float64)
            hit = np.array(
                [memo.get(int(key), -np.inf) >= admit_at for key in unique_keys]
            )
            completion[hit] = admit_at + MEMO_HIT_LATENCY_S
            # Misses go to their owner partition's FIFO backend, in arrival
            # order (Lindley recursion over the batch).
            miss_positions = np.flatnonzero(~hit)
            miss_positions = miss_positions[np.argsort(first[miss_positions])]
            miss_served = np.ones(miss_positions.size, dtype=bool)
            if miss_positions.size:
                seg = self.segments.segment_at(admit_at)
                miss_sensors = traffic.sensor[lo:hi][first[miss_positions]]
                parts = self.partition_of_sensor[miss_sensors]
                backend = self.segments.latencies[seg][miss_sensors]
                miss_served = self.segments.served[seg][miss_sensors]
                done = np.empty(miss_positions.size, dtype=np.float64)
                for p in np.unique(parts):
                    members = np.flatnonzero(parts == p)
                    start = max(admit_at, frontier[p])
                    done[members] = start + (np.arange(members.size) + 1) * service
                    frontier[p] = start + members.size * service
                    busy_s += members.size * service
                completion[miss_positions] = done + np.where(miss_served, backend, 0.0)
                backend_requests += int(miss_positions.size)
                for key, served in zip(unique_keys[miss_positions], miss_served):
                    if served:
                        memo[int(key)] = admit_at + config.memo_ttl_s
            served_unique = np.ones(unique_keys.size, dtype=bool)
            served_unique[miss_positions] = miss_served
            latencies[lo:hi] = completion[inverse] - traffic.arrival[lo:hi]
            unserved_mask[lo:hi] = ~served_unique[inverse]
            if b % _PRUNE_EVERY == _PRUNE_EVERY - 1 and memo:
                memo = {
                    key: expiry for key, expiry in memo.items() if expiry >= admit_at
                }

        unserved = int(unserved_mask.sum())
        # Latency statistics cover *served* queries only: an unserved query's
        # completion stops at the queue (no backend answer ever arrives), and
        # folding those queue-only times into the percentiles deflates the
        # distribution exactly where it matters, past the saturation knee.
        served_latencies = latencies[~unserved_mask]
        if served_latencies.size:
            p50, p95, p99 = np.percentile(served_latencies, [50.0, 95.0, 99.0])
            mean_latency = float(served_latencies.mean())
        else:
            p50 = p95 = p99 = mean_latency = float("nan")
        return ServingReport(
            offered_qps=config.offered_qps,
            achieved_qps=(n - unserved) / traffic.duration_s,
            n_queries=n,
            distinct_users=traffic.distinct_users,
            memo_hit_rate=1.0 - backend_requests / n,
            p50_latency_s=float(p50),
            p95_latency_s=float(p95),
            p99_latency_s=float(p99),
            mean_latency_s=mean_latency,
            utilization=busy_s / (self.n_partitions * traffic.duration_s),
            unserved=unserved,
            n_partitions=self.n_partitions,
            zipf_s=config.zipf_s,
            memo_ttl_s=config.memo_ttl_s,
        )

    def _empty_report(self, traffic) -> ServingReport:
        nan = float("nan")
        return ServingReport(
            offered_qps=self.config.offered_qps,
            achieved_qps=0.0,
            n_queries=0,
            distinct_users=0,
            memo_hit_rate=nan,
            p50_latency_s=nan,
            p95_latency_s=nan,
            p99_latency_s=nan,
            mean_latency_s=nan,
            utilization=0.0,
            unserved=0,
            n_partitions=self.n_partitions,
            zipf_s=self.config.zipf_s,
            memo_ttl_s=self.config.memo_ttl_s,
        )
