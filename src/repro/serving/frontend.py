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

The window is computed as columns, in one pass rather than batch by batch
(a serving window is a million arrivals in thousands of batches):

* **Group.**  The sorted arrivals collapse into distinct ``(memo key,
  batch)`` rows; a batch answers all of a row's queries at once.
* **Renewal rule.**  Memo hit or miss is a renewal process per key.  A
  served miss admitted at ``admit[b]`` answers the key's every later row
  admitted by ``admit[b] + ttl``; an unserved miss (no live server)
  memoizes nothing.  The comparison is made on the floats the admission
  clock produces, not in whole batches — mid-run the sum rounds, and a TTL
  a hair under ``k`` intervals still covers the ``k``-th batch.
* **Queue.**  The misses, in arrival order, take one Lindley step per
  ``(batch, partition)`` group.  This recursion stays a scalar loop over
  the few thousand groups: a cumulative max/sum would associate the
  additions differently and drift in the last bits once a backend
  saturates, and the reports are pinned bit for bit.
* **Per query.**  Completion, latency and the unserved mask are gathers
  from the rows; the percentiles are taken over the served queries.

The per-batch loop this replaced is ``tests/reference_frontend.py``;
``tests/test_serving_equivalence.py`` requires equal reports from both.

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
from repro.serving.traffic import Traffic, generate_traffic

#: admission batch length — the first latency component of every query
ADMISSION_INTERVAL_S = 0.25

#: front-end lookup latency on a memo hit
MEMO_HIT_LATENCY_S = 0.0005

#: span of a window query, and the quantization of its memo key
WINDOW_S = 3_600.0
WINDOW_QUANT_S = 60.0


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

    def segment_at(self, at_s: float | np.ndarray) -> np.integer | np.ndarray:
        """Index of the segment covering virtual time *at_s* (one per element)."""
        return np.searchsorted(self.starts, at_s, side="right") - 1


@dataclass(frozen=True)
class _Rows:
    """The window's distinct ``(memo key, batch)`` pairs, key-major columns."""

    key: np.ndarray                # dense memo key: (sensor, bucket, kind)
    batch: np.ndarray              # admission batch index
    sensor: np.ndarray             # the key's sensor
    first: np.ndarray              # index of the row's earliest query
    n_batches: int


def _run_opens(ordered: np.ndarray) -> np.ndarray:
    """Mask of the positions where a run of equal values opens in *ordered*."""
    opens = np.empty(ordered.size, dtype=bool)
    opens[0] = True
    np.not_equal(ordered[1:], ordered[:-1], out=opens[1:])
    return opens


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
        rows, row_of_query = self._group_rows(traffic)
        # admit[b] is when batch b is admitted.  The memo compares these very
        # floats (expiry = admit + ttl), so the renewal rule indexes this one
        # array; integer batch arithmetic would round a ttl near a multiple
        # of the interval differently.
        admit = traffic.t0 + (np.arange(rows.n_batches) + 1) * ADMISSION_INTERVAL_S
        segment = self.segments.segment_at(admit)[rows.batch]
        row_served = self.segments.served[segment, rows.sensor]
        misses, done, busy_s = self._queue(
            rows, self._memo_misses(rows, row_served, admit), admit
        )

        completion = admit[rows.batch] + MEMO_HIT_LATENCY_S
        completion[misses] = done + np.where(
            row_served[misses],
            self.segments.latencies[segment[misses], rows.sensor[misses]],
            0.0,
        )
        row_unserved = np.zeros_like(row_served)
        row_unserved[misses] = ~row_served[misses]
        latencies = completion[row_of_query]
        latencies -= traffic.arrival
        unserved_mask = row_unserved[row_of_query]

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
            memo_hit_rate=1.0 - misses.size / n,
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

    def _group_rows(self, traffic: Traffic) -> tuple[_Rows, np.ndarray]:
        """Group the arrivals into distinct ``(memo key, batch)`` rows.

        Returns the rows, ordered by key and then batch, and each query's
        row.  Value queries bucket on arrival, window queries on the
        quantized window start, so overlapping windows collapse to one key.
        One in-place value sort does the grouping: each query's index rides
        in the low bits under its ``(key, batch)`` code, so the sorted array
        yields the groups, their members and each group's earliest query.
        """
        n = len(traffic)
        looks_back = np.where(traffic.is_now, 0.0, WINDOW_S)
        bucket = np.floor((traffic.arrival - looks_back) / WINDOW_QUANT_S).astype(
            np.int64
        )
        bucket -= bucket.min()
        n_buckets = int(bucket.max()) + 1
        batch = np.floor(
            (traffic.arrival - traffic.t0) / ADMISSION_INTERVAL_S
        ).astype(np.int64)
        n_batches = int(batch[-1]) + 1
        index_bits = n.bit_length()
        if (self.n_sensors * n_buckets * 2 * n_batches) << index_bits >= 1 << 63:
            raise ValueError("serving window too large to group in 64-bit codes")
        packed = traffic.sensor * n_buckets
        packed += bucket
        packed *= 2
        packed += traffic.is_now
        packed *= n_batches
        packed += batch
        del bucket, batch
        packed <<= index_bits
        packed |= np.arange(n)
        packed.sort()
        code = packed >> index_bits
        packed &= (1 << index_bits) - 1         # now: query indices, grouped
        opens = _run_opens(code)
        starts = np.flatnonzero(opens)
        key, row_batch = np.divmod(code[starts], n_batches)
        del code
        rows = _Rows(
            key=key,
            batch=row_batch,
            sensor=key // (2 * n_buckets),
            first=packed[starts],
            n_batches=n_batches,
        )
        row_of_sorted = np.cumsum(opens, dtype=np.int32)
        row_of_sorted -= 1
        row_of_query = np.empty(n, dtype=np.int32)
        row_of_query[packed] = row_of_sorted
        return rows, row_of_query

    def _memo_misses(
        self, rows: _Rows, row_served: np.ndarray, admit: np.ndarray
    ) -> np.ndarray:
        """Rows that miss the memo, by the per-key renewal rule.

        A key's first row misses.  A *served* miss at batch ``b`` answers
        every later batch admitted by ``admit[b] + ttl``, so the key's next
        miss is its first row past that; an unserved miss memoizes nothing
        and the key's very next row misses again.  Each round advances
        every key's chain by one miss; a key lives one quantization bucket,
        so the rounds are bounded by the batches in a bucket, not by the
        window.
        """
        covered_to = np.searchsorted(
            admit, admit + self.config.memo_ttl_s, side="right"
        )
        code = rows.key * rows.n_batches + rows.batch
        key_of = np.append(rows.key, -1)        # index len(rows): past the end
        current = np.flatnonzero(_run_opens(rows.key))
        chain = []
        while current.size:
            chain.append(current)
            key = rows.key[current]
            following = np.where(
                row_served[current],
                np.searchsorted(
                    code, key * rows.n_batches + covered_to[rows.batch[current]]
                ),
                current + 1,
            )
            current = following[key_of[following] == key]
        return np.concatenate(chain)

    def _queue(
        self, rows: _Rows, misses: np.ndarray, admit: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, float]:
        """The misses in queueing order, when each leaves its backend, busy time.

        A batch's misses queue on their owner partition in arrival order
        and start at ``max(admission, backend frontier)`` — the Lindley
        recursion, one step per ``(batch, partition)`` group.  It stays a
        scalar recursion: a cumulative max/sum over the groups would
        associate the additions differently and drift from the per-batch
        reference in the last bits, and ``busy_s`` must accumulate in the
        same batch-then-partition order.
        """
        service = self.config.service_time_s
        queue = (
            rows.batch[misses] * self.n_partitions
            + self.partition_of_sensor[rows.sensor[misses]]
        )
        order = np.lexsort((rows.first[misses], queue))
        misses, queue = misses[order], queue[order]
        opens = np.flatnonzero(_run_opens(queue))
        sizes = np.diff(np.append(opens, misses.size))
        batch, part = np.divmod(queue[opens], self.n_partitions)
        start = np.empty(opens.size, dtype=np.float64)
        frontier = [0.0] * self.n_partitions
        busy_s = 0.0
        admit_at = admit.tolist()
        for group, (b, p, size) in enumerate(
            zip(batch.tolist(), part.tolist(), sizes.tolist())
        ):
            start[group] = begin = max(admit_at[b], frontier[p])
            frontier[p] = begin + size * service
            busy_s += size * service
        place = np.arange(misses.size) - np.repeat(opens, sizes) + 1
        return misses, np.repeat(start, sizes) + place * service, busy_s

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
