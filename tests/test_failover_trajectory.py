"""Failover forecasts: one trajectory per frozen replica, per-query bits.

A wired replica answers for a dead wireless proxy from the tracker it
holds, frozen at sync time, so every NOW query for one sensor reads the
same forecast further along.  :class:`~repro.core.push.ForecastTrajectory`
computes that forecast once (growing it by doubling) and must hand back
exactly what one ``model.forecast(steps)`` per query did — kept as
``forecast_value`` in ``tests/reference_failover.py``.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_failover import PerQueryTrajectory, forecast_value
from test_model_step import FAMILIES, fitted_family

from repro.core.config import FederationConfig, PrestoConfig
from repro.core.federation import FederatedSystem, _RoutingCore
from repro.core.push import ForecastTrajectory, ModelUpdate, ProxyModelTracker
from repro.core.queries import AnswerSource
from repro.timeseries.arima import ARIMAModel
from repro.traces.intel_lab import IntelLabConfig, IntelLabGenerator
from repro.traces.workload import QueryKind, QueryWorkloadConfig, ShardedWorkloadGenerator

#: one step, a few, and several hundred
STEP_COUNTS = st.one_of(st.just(1), st.integers(1, 40), st.integers(100, 700))


def frozen_tracker(family: str, seed: int) -> ProxyModelTracker:
    """A replicated tracker as failover finds it: activated, then advanced."""
    rng = np.random.default_rng(seed)
    model, start = fitted_family(family, rng)
    tracker = ProxyModelTracker(ModelUpdate(model=model, delta=0.3, activation_epoch=40))
    for value in start + np.cumsum(rng.normal(0.0, 0.1, 6)):
        tracker.apply_push(float(value))
    tracker.advance_silent()
    return tracker


@settings(max_examples=40, deadline=None)
@given(
    family=st.sampled_from(FAMILIES),
    seed=st.integers(0, 2**16),
    steps=st.lists(STEP_COUNTS, min_size=1, max_size=12).flatmap(
        lambda drawn: st.sampled_from(
            [drawn, sorted(drawn), sorted(drawn, reverse=True), drawn + drawn]
        )
    ),
)
def test_trajectory_equals_one_forecast_per_query(family, seed, steps):
    """Rising, falling, repeated and mixed step counts read the same bytes
    as a fresh ``forecast(s)[-1]``, and leave the replica untouched."""
    tracker = frozen_tracker(family, seed)
    before = copy.deepcopy(tracker._model)
    trajectory = ForecastTrajectory(tracker)
    for count in steps:
        mean, std = trajectory.at(count)
        expected_mean, expected_std = forecast_value(tracker, count)
        assert type(mean) is float and type(std) is float
        assert np.float64(mean).tobytes() == np.float64(expected_mean).tobytes()
        assert np.float64(std).tobytes() == np.float64(expected_std).tobytes()
    assert tracker._model.predict_next() == before.predict_next()
    assert vars(tracker._model).keys() == vars(before).keys()


def test_trajectory_forecasts_once_while_steps_fit():
    tracker = frozen_tracker("arima", 5)
    calls = []
    model = tracker._model
    original = model.forecast
    model.forecast = lambda steps: calls.append(steps) or original(steps)
    trajectory = ForecastTrajectory(tracker)
    for count in (10, 3, 10, 11, 15, 20, 41, 1):
        trajectory.at(count)
    assert calls == [10, 20, 41]


def test_a_replica_that_cannot_forecast_falls_back_like_per_query():
    tracker = frozen_tracker("ar", 3)

    def refuse(steps):
        raise ValueError("no forecast")

    tracker._model.forecast = refuse
    trajectory = ForecastTrajectory(tracker)
    for steps in (4, 1, 9, 4):
        assert trajectory.at(steps) == forecast_value(tracker, steps)
    with pytest.raises(ValueError):
        trajectory.at(0)


# -- a failover-heavy federated run ------------------------------------------------

DURATION_S = 5 * 3600.0


def failover_run(monkeypatch, per_query: bool):
    """Two deaths of one wireless owner with a recovery (and fresh syncs)
    between them, so failover reads two generations of its replicas.

    With *per_query* every failover read builds the oracle afresh from the
    replica ``reconstruct`` returned, bypassing the routing core's
    trajectories.  Returns the report, how many failover reads the run made
    and how many ``forecast`` calls those reads cost.
    """
    counts = {"reads": 0, "forecasts": 0}
    reading = [False]
    original = ARIMAModel.forecast

    def counted_forecast(self, steps):
        counts["forecasts"] += reading[0]
        return original(self, steps)

    class Counted(PerQueryTrajectory if per_query else ForecastTrajectory):
        def at(self, steps):
            counts["reads"] += 1
            reading[0] = True
            try:
                return super().at(steps)
            finally:
                reading[0] = False

    monkeypatch.setattr(ARIMAModel, "forecast", counted_forecast)
    if per_query:
        monkeypatch.setattr(
            _RoutingCore, "_trajectory", lambda self, sensor, state: Counted(state.tracker)
        )
    else:
        monkeypatch.setattr("repro.core.federation.ForecastTrajectory", Counted)
    trace = IntelLabGenerator(
        IntelLabConfig(n_sensors=8, duration_s=DURATION_S, epoch_s=31.0), seed=7
    ).generate()
    system = FederatedSystem(
        trace,
        PrestoConfig(
            sample_period_s=31.0, refit_interval_s=3 * 3600.0, min_training_epochs=128
        ),
        FederationConfig(n_proxies=2, replica_sync_interval_s=1800.0),
        seed=3,
    )
    queries = ShardedWorkloadGenerator(
        system.shards,
        QueryWorkloadConfig(arrival_rate_per_s=1 / 20.0),
        np.random.default_rng(11),
    ).generate(0.0, DURATION_S)
    system.schedule_failure("proxy1", 2.2 * 3600.0)
    system.schedule_recovery("proxy1", 3.1 * 3600.0)
    system.schedule_failure("proxy1", 3.7 * 3600.0)
    return system.run(queries), counts["reads"], counts["forecasts"]


def test_federated_failover_matches_per_query_forecasts(monkeypatch):
    report, reads, forecasts = failover_run(monkeypatch, per_query=False)
    with monkeypatch.context() as patch:
        reference, reference_reads, reference_forecasts = failover_run(patch, per_query=True)

    def answers(run):
        return [(a.value, a.believed_std, a.source, a.latency_s) for a in run.answers]

    assert answers(report) == answers(reference)
    assert report.summary() == reference.summary()
    assert report.failovers > 150 and report.replica_hits > 100
    # the oracle forecasts once per read; a trajectory a few times per
    # replicated sensor and generation, however many queries read it
    assert reads == reference_reads == reference_forecasts > 100
    assert 0 < forecasts * 3 < reads
