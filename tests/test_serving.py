"""Unit tests for the serving front-end, independent of the federation."""

import numpy as np
import pytest

from repro.serving import (
    BackendSegments,
    ServingConfig,
    ServingFrontend,
    generate_traffic,
    zipf_weights,
)


def flat_segments(n_sensors, latency=0.1):
    return BackendSegments(
        starts=np.array([0.0]),
        latencies=np.full((1, n_sensors), latency),
        served=np.ones((1, n_sensors), dtype=bool),
    )


def make_frontend(config, n_sensors=4, n_partitions=2, segments=None, seed=5):
    partition_of_sensor = np.arange(n_sensors, dtype=np.int64) % n_partitions
    return ServingFrontend(
        config,
        n_sensors,
        n_partitions,
        partition_of_sensor,
        segments if segments is not None else flat_segments(n_sensors),
        rng=np.random.default_rng(seed),
    )


class TestZipfWeights:
    def test_normalized_and_decreasing(self):
        weights = zipf_weights(50, 1.1)
        assert weights.sum() == pytest.approx(1.0)
        assert np.all(np.diff(weights) < 0)

    def test_zero_exponent_is_uniform(self):
        weights = zipf_weights(10, 0.0)
        assert np.allclose(weights, 0.1)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            zipf_weights(0, 1.0)


class TestTraffic:
    def test_deterministic_for_fixed_seed(self):
        config = ServingConfig(offered_qps=100.0, duration_s=60.0)
        a = generate_traffic(config, 3600.0, 16, np.random.default_rng(9))
        b = generate_traffic(config, 3600.0, 16, np.random.default_rng(9))
        assert np.array_equal(a.arrival, b.arrival)
        assert np.array_equal(a.sensor, b.sensor)
        assert a.distinct_users == b.distinct_users > 0

    def test_window_centred_and_clamped(self):
        config = ServingConfig(offered_qps=50.0, duration_s=600.0)
        traffic = generate_traffic(config, 3600.0, 8, np.random.default_rng(1))
        assert traffic.t0 == pytest.approx(1500.0)
        assert traffic.arrival.min() >= traffic.t0
        assert traffic.arrival.max() <= traffic.t0 + 600.0
        short = generate_traffic(config, 120.0, 8, np.random.default_rng(1))
        assert short.t0 == 0.0
        assert short.duration_s == 120.0

    def test_zipf_skew_concentrates_on_low_ranks(self):
        config = ServingConfig(offered_qps=500.0, zipf_s=1.4, duration_s=120.0)
        traffic = generate_traffic(config, 3600.0, 64, np.random.default_rng(3))
        top = np.mean(traffic.sensor < 8)
        assert top > 0.5


class TestFrontend:
    def test_memoization_raises_hit_rate(self):
        cold = make_frontend(
            ServingConfig(offered_qps=200.0, duration_s=60.0, memo_ttl_s=0.0)
        ).run(3600.0)
        warm = make_frontend(
            ServingConfig(offered_qps=200.0, duration_s=60.0, memo_ttl_s=120.0)
        ).run(3600.0)
        assert warm.memo_hit_rate > cold.memo_hit_rate
        assert warm.p50_latency_s <= cold.p50_latency_s

    def test_unserved_sensor_counts_and_skips_memo(self):
        n_sensors = 4
        segments = BackendSegments(
            starts=np.array([0.0]),
            latencies=np.full((1, n_sensors), 0.1),
            served=np.array([[True, True, True, False]]),
        )
        config = ServingConfig(offered_qps=100.0, duration_s=60.0, zipf_s=0.0)
        report = make_frontend(config, n_sensors=n_sensors, segments=segments).run(
            3600.0
        )
        assert report.unserved > 0
        assert report.achieved_qps < report.offered_qps

    def test_unserved_queries_excluded_from_latency_stats(self):
        # Sensor 1 is never served; sensor 0 pays a 5 s backend answer.
        # Every *served* query therefore takes >= 5 s — if the unserved
        # queries' queue-only completion times leaked into the percentiles
        # (the old behaviour), p50 would collapse well below that.
        n_sensors = 2
        segments = BackendSegments(
            starts=np.array([0.0]),
            latencies=np.array([[5.0, 5.0]]),
            served=np.array([[True, False]]),
        )
        config = ServingConfig(
            offered_qps=100.0, duration_s=60.0, zipf_s=0.0, memo_ttl_s=0.0
        )
        report = make_frontend(config, n_sensors=n_sensors, segments=segments).run(
            3600.0
        )
        assert report.unserved > 0
        assert report.p50_latency_s >= 5.0
        assert report.mean_latency_s >= 5.0

    def test_all_unserved_yields_nan_latency_stats(self):
        n_sensors = 2
        segments = BackendSegments(
            starts=np.array([0.0]),
            latencies=np.full((1, n_sensors), 0.1),
            served=np.zeros((1, n_sensors), dtype=bool),
        )
        config = ServingConfig(offered_qps=50.0, duration_s=60.0, memo_ttl_s=0.0)
        report = make_frontend(config, n_sensors=n_sensors, segments=segments).run(
            3600.0
        )
        assert report.n_queries > 0
        assert report.unserved == report.n_queries
        assert report.achieved_qps == 0.0
        for value in (
            report.p50_latency_s,
            report.p95_latency_s,
            report.p99_latency_s,
            report.mean_latency_s,
        ):
            assert np.isnan(value)

    def test_fault_segment_changes_latency(self):
        n_sensors = 2
        segments = BackendSegments(
            starts=np.array([0.0, 1800.0]),
            latencies=np.array([[0.01, 0.01], [5.0, 5.0]]),
            served=np.ones((2, n_sensors), dtype=bool),
        )
        assert segments.segment_at(10.0) == 0
        assert segments.segment_at(1800.0) == 1
        config = ServingConfig(offered_qps=50.0, duration_s=3600.0, memo_ttl_s=0.0)
        report = make_frontend(config, n_sensors=n_sensors, segments=segments).run(
            3600.0
        )
        assert report.p95_latency_s > 1.0

    def test_empty_traffic_yields_empty_report(self):
        config = ServingConfig(offered_qps=1e-9, duration_s=1.0)
        report = make_frontend(config).run(3600.0)
        assert report.n_queries == 0
        assert np.isnan(report.p99_latency_s)

    def test_partition_map_must_cover_sensors(self):
        with pytest.raises(ValueError):
            ServingFrontend(
                ServingConfig(),
                4,
                2,
                np.zeros(3, dtype=np.int64),
                flat_segments(4),
                rng=np.random.default_rng(0),
            )
