"""The per-batch serving front-end loop, kept as the tests' reference.

Line for line the ``ServingFrontend.run`` that admitted one batch at a
time: an ``np.unique`` per batch, a ``dict`` memo probed per distinct key,
the Lindley recursion per partition inside the batch.  Nothing under
``src`` imports it; ``test_serving_equivalence.py`` drives it and the
columnar :meth:`repro.serving.frontend.ServingFrontend.run` over the same
traffic and requires equal reports, field for field and bit for bit.
"""

from __future__ import annotations

import numpy as np

from repro.serving.config import ServingReport
from repro.serving.frontend import (
    ADMISSION_INTERVAL_S,
    MEMO_HIT_LATENCY_S,
    WINDOW_QUANT_S,
    WINDOW_S,
    ServingFrontend,
)
from repro.serving.traffic import generate_traffic

#: memo-key packing offsets: key = sensor * _KEY_STRIDE + (bucket + _BUCKET_BIAS) * 2 + kind
_BUCKET_BIAS = 1 << 20
_KEY_STRIDE = 1 << 24

#: prune expired memo entries every this many admission batches
_PRUNE_EVERY = 256


class LoopServingFrontend(ServingFrontend):
    """The front-end with its window admitted batch by batch."""

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
