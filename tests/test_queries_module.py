"""Unit tests for query answers and provenance accounting."""

import dataclasses
import math

import pytest

from repro.baselines import BaselineReport
from repro.core.queries import PAST_KINDS, AnswerSource, QueryAnswer
from repro.core.system import SystemReport
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
