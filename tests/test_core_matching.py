"""Unit tests for query-sensor matching."""

import dataclasses

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.config import PrestoConfig
from repro.core.matching import QueryProfile, QuerySensorMatcher
from repro.traces.workload import Query, QueryKind


def make_query(kind=QueryKind.NOW, precision=0.5, latency=10.0, arrival=100.0):
    return Query(
        query_id=0,
        kind=kind,
        sensor=0,
        arrival_time=arrival,
        target_time=arrival if kind is QueryKind.NOW else arrival - 100.0,
        window_s=0.0 if kind in (QueryKind.NOW, QueryKind.PAST_POINT) else 60.0,
        precision=precision,
        latency_bound_s=latency,
    )


@pytest.fixture
def matcher():
    return QuerySensorMatcher(PrestoConfig(sample_period_s=31.0))


class TestQueryProfile:
    def test_tracks_minima(self):
        profile = QueryProfile()
        profile.observe(make_query(precision=0.5, latency=10.0))
        profile.observe(make_query(precision=0.2, latency=60.0))
        assert profile.min_precision == 0.2
        assert profile.min_latency_bound_s == 10.0

    def test_now_fraction(self):
        profile = QueryProfile()
        profile.observe(make_query(QueryKind.NOW))
        profile.observe(make_query(QueryKind.PAST_POINT))
        assert profile.now_fraction == 0.5

    def test_arrival_rate(self):
        profile = QueryProfile()
        profile.observe(make_query(arrival=0.0))
        profile.observe(make_query(arrival=100.0))
        profile.observe(make_query(arrival=200.0))
        assert profile.arrival_rate_per_s == pytest.approx(0.01)


def observed_one_by_one(queries: list[Query]) -> QueryProfile:
    """The profile as the per-query rule built it, one query at a time."""
    profile = QueryProfile()
    for query in queries:
        profile.count += 1
        if query.kind is QueryKind.NOW:
            profile.now_count += 1
        profile.min_precision = min(profile.min_precision, query.precision)
        profile.min_latency_bound_s = min(profile.min_latency_bound_s, query.latency_bound_s)
        if profile._first_arrival is None:
            profile._first_arrival = query.arrival_time
        profile._last_arrival = query.arrival_time
        span = (profile._last_arrival - profile._first_arrival) or 1.0
        if profile.count > 1:
            profile.arrival_rate_per_s = (profile.count - 1) / span
    return profile


@given(
    drawn=st.lists(
        st.tuples(
            st.sampled_from(list(QueryKind)),
            st.floats(0.01, 5.0),
            st.floats(0.1, 1_000.0),
            st.floats(0.0, 10_000.0),
        ),
        max_size=12,
    ),
    cuts=st.lists(st.integers(0, 12), max_size=4),
)
def test_a_matcher_folds_its_queries_as_observing_them_one_by_one(drawn, cuts):
    """The matcher folds the queries it observed when its profile is read;
    however the reads fall, the profile is the per-query rule's."""
    queries = [
        make_query(kind, precision, latency, arrival)
        for kind, precision, latency, arrival in sorted(drawn, key=lambda q: q[3])
    ]
    matcher = QuerySensorMatcher(PrestoConfig(sample_period_s=31.0))
    for index, query in enumerate(queries):
        if index in cuts:
            matcher.profile  # noqa: B018  (a read folds what was observed)
        matcher.observe_query(query)
    expected = dataclasses.asdict(observed_one_by_one(queries))
    assert dataclasses.asdict(matcher.profile) == expected


class TestDerivation:
    def test_defaults_without_queries(self, matcher):
        point = matcher.derive_operating_point()
        assert point.check_interval_s == matcher.config.default_check_interval_s
        assert point.push_delta == matcher.config.push_delta

    def test_duty_cycle_follows_latency_bound(self, matcher):
        """The paper's example: 10-minute latency -> long check interval."""
        matcher.observe_query(make_query(latency=600.0))
        point = matcher.derive_operating_point()
        assert point.check_interval_s == pytest.approx(300.0)

    def test_check_interval_capped(self, matcher):
        matcher.observe_query(make_query(latency=1e6))
        point = matcher.derive_operating_point()
        assert point.check_interval_s <= QuerySensorMatcher.MAX_CHECK_INTERVAL_S

    def test_check_interval_floored(self, matcher):
        matcher.observe_query(make_query(latency=0.01))
        point = matcher.derive_operating_point()
        assert point.check_interval_s >= QuerySensorMatcher.MIN_CHECK_INTERVAL_S

    def test_delta_tracks_tightest_precision(self, matcher):
        matcher.observe_query(make_query(precision=0.4))
        point = matcher.derive_operating_point()
        assert point.push_delta == pytest.approx(0.3)  # 0.75 x precision

    def test_delta_never_exceeds_config(self, matcher):
        matcher.observe_query(make_query(precision=100.0))
        point = matcher.derive_operating_point()
        assert point.push_delta <= matcher.config.push_delta

    def test_quantisation_follows_precision(self, matcher):
        matcher.observe_query(make_query(precision=0.1))
        point = matcher.derive_operating_point()
        assert point.quant_step <= 0.05

    def test_batching_enabled_without_now_queries(self, matcher):
        for _ in range(6):
            matcher.observe_query(make_query(QueryKind.PAST_POINT, latency=120.0))
        point = matcher.derive_operating_point()
        assert point.batch_interval_s >= 120.0

    def test_batching_off_with_now_queries(self, matcher):
        for _ in range(5):
            matcher.observe_query(make_query(QueryKind.NOW))
        matcher.observe_query(make_query(QueryKind.PAST_POINT))
        point = matcher.derive_operating_point()
        assert point.batch_interval_s == matcher.config.batch_interval_s

    def test_wire_bytes_constant(self, matcher):
        assert matcher.derive_operating_point().wire_bytes == 19


class TestStandaloneRule:
    def test_latency_rule(self):
        assert QuerySensorMatcher.check_interval_for_latency(600.0) == 300.0

    def test_invalid_latency(self):
        with pytest.raises(ValueError):
            QuerySensorMatcher.check_interval_for_latency(0.0)
