"""Unit tests for query answers and provenance accounting."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_scoring import ground_truth as per_query_truth

from repro.baselines import BaselineReport
from repro.core.queries import PAST_KINDS, AnswerSource, QueryAnswer, ground_truth, ground_truths
from repro.core.system import SystemReport
from repro.traces.intel_lab import IntelLabConfig, TraceSet
from repro.traces.workload import Query, QueryKind


def make_query(precision=0.5, latency=10.0):
    return Query(
        query_id=0,
        kind=QueryKind.NOW,
        sensor=0,
        arrival_time=100.0,
        target_time=100.0,
        precision=precision,
        latency_bound_s=latency,
    )


class TestQueryAnswer:
    def test_answered_when_value_present(self):
        answer = QueryAnswer(
            query=make_query(), value=21.0, source=AnswerSource.CACHE, latency_s=0.01
        )
        assert answer.answered

    def test_failed_source_not_answered(self):
        answer = QueryAnswer(
            query=make_query(), value=None, source=AnswerSource.FAILED, latency_s=0.01
        )
        assert not answer.answered

    def test_value_with_failed_source_not_answered(self):
        answer = QueryAnswer(
            query=make_query(), value=21.0, source=AnswerSource.FAILED, latency_s=0.01
        )
        assert not answer.answered

    def test_met_latency(self):
        fast = QueryAnswer(
            query=make_query(latency=1.0), value=1.0,
            source=AnswerSource.CACHE, latency_s=0.5,
        )
        slow = QueryAnswer(
            query=make_query(latency=1.0), value=1.0,
            source=AnswerSource.SENSOR_PULL, latency_s=2.0,
        )
        assert fast.met_latency and not slow.met_latency

    def test_error_against_truth(self):
        answer = QueryAnswer(
            query=make_query(), value=21.5, source=AnswerSource.CACHE, latency_s=0.01
        )
        assert answer.error_against(21.0) == pytest.approx(0.5)

    def test_error_none_when_unanswered(self):
        answer = QueryAnswer(
            query=make_query(), value=None, source=AnswerSource.FAILED, latency_s=0.01
        )
        assert answer.error_against(21.0) is None

    def test_all_sources_have_distinct_values(self):
        values = {source.value for source in AnswerSource}
        assert len(values) == len(AnswerSource)


def scored_as(cls, answers, truths, **extra):
    """A *cls* report over a hand-built log (its ledger fields are zero)."""
    ledger = {
        f.name: 0
        for f in dataclasses.fields(cls)
        if f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING
    }
    return cls(**{**ledger, "answers": answers, "truths": truths, **extra})


def both_reports(answers, truths):
    return (
        scored_as(SystemReport, answers, truths),
        scored_as(BaselineReport, answers, truths, name="hand-built"),
    )


class TestOneScoringRule:
    """PRESTO's and the baselines' reports score a log by the same code."""

    @staticmethod
    def log():
        def query(kind, **kwargs):
            return Query(
                query_id=0, kind=kind, sensor=0, arrival_time=100.0, target_time=50.0,
                precision=0.5, latency_bound_s=1.0, **kwargs,
            )

        def answer(kind, value, latency_s=0.1, source=AnswerSource.CACHE, **kwargs):
            return QueryAnswer(
                query=query(kind, **kwargs), value=value, source=source, latency_s=latency_s
            )

        # (answer, truth, succeeded?)
        return [
            (answer(QueryKind.NOW, 20.2), 20.0, True),
            (answer(QueryKind.NOW, None, source=AnswerSource.FAILED), 20.0, False),   # unanswered
            (answer(QueryKind.NOW, 20.0, latency_s=2.0), 20.0, False),                # late
            (answer(QueryKind.PAST_POINT, 21.0), 20.0, False),                        # imprecise
            (answer(QueryKind.PAST_POINT, 21.0), None, True),                         # no truth
            (answer(QueryKind.PAST_RANGE, 20.4, window_s=60.0), 20.0, True),
            (answer(QueryKind.PAST_RANGE, 20.0, source=AnswerSource.FAILED, window_s=60.0),
             20.0, False),                                                            # value, FAILED
        ]

    def test_every_branch_scores_the_same_in_both_reports(self):
        entries = self.log()
        answers = [answer for answer, _, _ in entries]
        truths = [truth for _, truth, _ in entries]
        assert [a.succeeded_against(t) for a, t in zip(answers, truths)] == [
            expected for _, _, expected in entries
        ]
        system, baseline = both_reports(answers, truths)
        for report in (system, baseline):
            assert report.success_rate == 3 / 7
            assert report.success_rate_kind(QueryKind.NOW) == 1 / 3
            assert report.success_rate_kind(*PAST_KINDS) == 2 / 4
            assert report.success_rate_kind(QueryKind.PAST_RANGE) == 1 / 2
            assert math.isnan(report.success_rate_kind(QueryKind.PAST_AGG))
            assert report.answered_fraction == 5 / 7
            assert report.errors() == pytest.approx([0.2, 0.0, 1.0, 0.4, 0.0])
            assert report.mean_error == pytest.approx(1.6 / 5)
            assert report.mean_latency_s == pytest.approx((6 * 0.1 + 2.0) / 7)
            assert report.answer_mix() == {"cache": 5, "failed": 2}

    def test_an_empty_log_is_no_evidence_in_both_reports(self):
        for report in both_reports([], []):
            assert math.isnan(report.success_rate)
            assert math.isnan(report.success_rate_kind(QueryKind.NOW))
            assert math.isnan(report.answered_fraction)
            assert report.mean_latency_s == report.p95_latency_s == report.mean_error == 0.0
            assert report.errors() == [] and report.answer_mix() == {}


EPOCH_S = 31.0


@st.composite
def trace_and_log(draw):
    """A small trace with dropped readings and a log of every query kind:
    targets before its start and past its end, sensors it does not have."""
    n_sensors = draw(st.integers(1, 4))
    n_epochs = draw(st.integers(1, 60))
    start = draw(st.sampled_from([0.0, 7.5, 1000.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    values = rng.normal(20.0, 3.0, (n_sensors, n_epochs))
    values[rng.random(values.shape) < draw(st.sampled_from([0.0, 0.3, 1.0]))] = np.nan
    trace = TraceSet(
        timestamps=start + np.arange(n_epochs) * EPOCH_S,
        values=values,
        config=IntelLabConfig(
            n_sensors=n_sensors, duration_s=n_epochs * EPOCH_S, epoch_s=EPOCH_S
        ),
    )
    end = start + n_epochs * EPOCH_S
    instant = st.floats(start - 200.0, end + 200.0, allow_nan=False) | st.sampled_from(
        [start, end - EPOCH_S, start + 3 * EPOCH_S]
    )
    query = st.builds(
        Query,
        query_id=st.just(0),
        kind=st.sampled_from(QueryKind),
        sensor=st.integers(-2, n_sensors + 1),
        arrival_time=instant,
        target_time=instant,
        window_s=st.floats(1.0, 40 * EPOCH_S) | st.sampled_from([EPOCH_S, 10 * EPOCH_S]),
        aggregate=st.sampled_from(["mean", "min", "max"]),
    )
    return trace, draw(st.lists(query, max_size=40))


class TestGroundTruths:
    """One pass over a log scores it exactly as one call per query did."""

    @settings(max_examples=150, deadline=None)
    @given(trace_and_log())
    def test_batch_equals_per_query_rule(self, drawn):
        trace, queries = drawn
        expected = [per_query_truth(trace, query) for query in queries]
        batch = ground_truths(trace, queries)
        single = [ground_truth(trace, query) for query in queries]
        for truths in (batch, single):
            assert [type(t) for t in truths] == [type(t) for t in expected]
            assert [np.float64(t).tobytes() for t in truths if t is not None] == [
                np.float64(t).tobytes() for t in expected if t is not None
            ]

    def test_none_where_nothing_compares(self):
        values = np.array([[np.nan, 21.0, np.nan]])
        trace = TraceSet(
            timestamps=np.arange(3) * EPOCH_S,
            values=values,
            config=IntelLabConfig(n_sensors=1, duration_s=3 * EPOCH_S, epoch_s=EPOCH_S),
        )

        def query(kind, sensor=0, at=0.0, window_s=0.0):
            return Query(
                query_id=0, kind=kind, sensor=sensor, arrival_time=at,
                target_time=at, window_s=window_s,
            )

        assert ground_truths(trace, [
            query(QueryKind.NOW, at=-50.0),                    # before start: epoch 0, dropped
            query(QueryKind.PAST_POINT, at=40.0),
            query(QueryKind.NOW, at=500.0),                    # past the end: last, dropped
            query(QueryKind.PAST_RANGE, at=70.0, window_s=5.0),  # only a dropped reading
            query(QueryKind.PAST_AGG, at=0.0, window_s=62.0),
            query(QueryKind.NOW, sensor=1),                    # no such sensor
            query(QueryKind.PAST_RANGE, sensor=-1, window_s=5.0),
        ]) == [None, 21.0, None, None, 21.0, None, None]
        assert ground_truths(trace, []) == []
