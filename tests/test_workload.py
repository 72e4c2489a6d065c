"""Unit tests for the query workload generator."""

import numpy as np
import pytest

from repro.traces.workload import (
    Query,
    QueryKind,
    QueryWorkloadConfig,
    QueryWorkloadGenerator,
)


class TestQueryValidation:
    def test_valid_query(self):
        q = Query(
            query_id=0, kind=QueryKind.NOW, sensor=1, arrival_time=10.0,
            target_time=10.0,
        )
        assert q.precision > 0

    def test_invalid_precision(self):
        with pytest.raises(ValueError):
            Query(0, QueryKind.NOW, 1, 10.0, 10.0, precision=0.0)

    def test_range_needs_window(self):
        with pytest.raises(ValueError):
            Query(0, QueryKind.PAST_RANGE, 1, 10.0, 5.0, window_s=0.0)

    def test_unknown_aggregate(self):
        with pytest.raises(ValueError):
            Query(0, QueryKind.PAST_AGG, 1, 10.0, 5.0, window_s=10.0,
                  aggregate="median")


class TestWorkloadConfig:
    def test_fractions_must_sum_to_one(self):
        with pytest.raises(ValueError):
            QueryWorkloadConfig(now_fraction=0.9, past_point_fraction=0.3,
                                past_range_fraction=0.0, past_agg_fraction=0.0)

    def test_fractions_must_be_non_negative(self):
        with pytest.raises(ValueError, match="non-negative"):
            QueryWorkloadConfig(now_fraction=1.2, past_point_fraction=-0.2,
                                past_range_fraction=0.0, past_agg_fraction=0.0)

    def test_rate_must_be_positive(self):
        with pytest.raises(ValueError):
            QueryWorkloadConfig(arrival_rate_per_s=0.0)


class TestGeneration:
    def make(self, rate=1 / 60.0, seed=0, **kwargs):
        config = QueryWorkloadConfig(arrival_rate_per_s=rate, **kwargs)
        return QueryWorkloadGenerator(10, config, np.random.default_rng(seed))

    def test_arrivals_ordered_and_in_range(self):
        queries = self.make().generate(100.0, 10_000.0)
        times = [q.arrival_time for q in queries]
        assert times == sorted(times)
        assert all(100.0 <= t < 10_000.0 for t in times)

    def test_poisson_rate_approximate(self):
        queries = self.make(rate=0.1, seed=1).generate(0.0, 100_000.0)
        assert len(queries) == pytest.approx(10_000, rel=0.1)

    def test_mix_fractions_respected(self):
        queries = self.make(rate=0.05, seed=2).generate(0.0, 200_000.0)
        now = sum(q.kind is QueryKind.NOW for q in queries)
        assert now / len(queries) == pytest.approx(0.6, abs=0.05)

    def test_zipf_popularity_skew(self):
        queries = self.make(rate=0.05, seed=3).generate(0.0, 200_000.0)
        counts = np.bincount([q.sensor for q in queries], minlength=10)
        assert counts[0] > 2 * counts[5]

    def test_past_queries_target_history(self):
        queries = self.make(seed=4).generate(0.0, 50_000.0)
        for q in queries:
            if q.kind is not QueryKind.NOW:
                assert q.target_time <= q.arrival_time
                assert q.target_time >= 0.0

    def test_window_queries_have_windows(self):
        queries = self.make(seed=5).generate(0.0, 100_000.0)
        for q in queries:
            if q.kind in (QueryKind.PAST_RANGE, QueryKind.PAST_AGG):
                assert q.window_s > 0

    def test_deterministic_given_rng_seed(self):
        a = self.make(seed=7).generate(0.0, 10_000.0)
        b = self.make(seed=7).generate(0.0, 10_000.0)
        assert [(q.arrival_time, q.sensor) for q in a] == [
            (q.arrival_time, q.sensor) for q in b
        ]

    def test_ids_unique_and_sequential(self):
        queries = self.make(seed=8).generate(0.0, 10_000.0)
        assert [q.query_id for q in queries] == list(range(len(queries)))

    def test_empty_interval_rejected(self):
        with pytest.raises(ValueError):
            self.make().generate(10.0, 10.0)

    def test_negative_start_rejected(self):
        with pytest.raises(ValueError, match="before t=0"):
            self.make().generate(-10.0, 10.0)

    def test_precision_jitter_bounded(self):
        queries = self.make(seed=9).generate(0.0, 100_000.0)
        for q in queries:
            assert 0.3 <= q.precision <= 0.7  # 0.5 +/- 25% + floor
