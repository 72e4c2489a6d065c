"""``TimeSeriesModel.step`` — one protocol epoch — against its two halves.

The push protocol's sensor checker and proxy tracker advance their model
replicas through ``step`` alone.  The reference below is the sequence it
fused (``predict_next``, decide, ``observe``); every model family must
leave exactly the state that sequence leaves, down to the pickled bytes
of its state: the replicas travel in every replica-sync payload, so a
float that silently became an ``np.float64`` (or the reverse) would move
``coding.payload_bytes``.  :class:`ARIMAModel` builds ``predict_next`` and
``observe`` from ``step``'s own helpers, so its reference is the frozen
copy in ``tests/reference_arima.py``, not the code under test.
"""

from __future__ import annotations

import copy
import pickle

import numpy as np
import pytest
from reference_arima import ARIMAModel as ReferenceARIMAModel

from repro.timeseries.ar import ARModel
from repro.timeseries.arima import ARIMAModel
from repro.timeseries.base import TimeSeriesModel
from repro.timeseries.markov import MarkovChainModel
from repro.timeseries.sarima import SeasonalArimaModel
from repro.timeseries.seasonal import SeasonalProfileModel


def reference_step(model: TimeSeriesModel, value, delta: float) -> tuple[float, bool]:
    """The pre-fusion protocol epoch: predict, decide, observe."""
    predicted = model.predict_next()
    push = value is not None and abs(value - predicted) > delta
    model.observe(value if push else predicted)
    return predicted, bool(push)


def random_walk(rng: np.random.Generator, n: int) -> np.ndarray:
    return np.cumsum(rng.normal(0.0, 0.1, n)) + 20.0


def state_bytes(model: TimeSeriesModel) -> bytes:
    """The pickled attribute dict: a model's payload bytes minus its class path."""
    return pickle.dumps(vars(model), protocol=4)


def drive_in_lockstep(
    model: TimeSeriesModel, start: float, rng, steps: int, references=None
) -> int:
    """Step *model* and its *references* (default: a copy of *model*)
    through one random value/None sequence, each reference by
    :func:`reference_step`, asserting equality after every epoch; returns
    pushes seen."""
    references = references or [copy.deepcopy(model)]
    delta = float(rng.choice([0.0, 0.05, 0.2, 1.0]))
    level = start
    pushes = 0
    for _ in range(steps):
        level += float(rng.normal(0.0, 0.15))
        roll = rng.random()
        if roll < 0.3:
            value = None                      # silent / missed epoch
        elif roll < 0.65:
            value = level
        else:
            value = np.float64(level)         # readings arrive as either type
        predicted, pushed = model.step(value, delta)
        assert type(predicted) is float and type(pushed) is bool
        for reference in references:
            expected, expected_push = reference_step(reference, value, delta)
            assert predicted == expected
            assert pushed == expected_push
            assert state_bytes(model) == state_bytes(reference)
        pushes += pushed
    for reference in references:
        assert model.predict_next() == reference.predict_next()
    return pushes


ARIMA_ORDERS = [
    (p, d, q) for p in range(4) for d in range(3) for q in range(3) if p or q
]


@pytest.mark.parametrize("seed", range(12))
def test_arima_step_matches_predict_then_observe(seed):
    rng = np.random.default_rng(4200 + seed)
    pushes = 0
    for _ in range(3):
        order = ARIMA_ORDERS[int(rng.integers(0, len(ARIMA_ORDERS)))]
        x = random_walk(rng, 400)
        model = ARIMAModel(order=order).fit(x)
        frozen = ReferenceARIMAModel(order=order).fit(x)
        assert state_bytes(model) == state_bytes(frozen)
        keys = set(vars(model))
        # the frozen model, and this model's own predict_next / observe
        references = [frozen, copy.deepcopy(model)]
        pushes += drive_in_lockstep(model, float(x[-1]), rng, 120, references)
        assert set(vars(model)) == keys          # no attribute grown by stepping
        assert all(type(e) is np.float64 for e in model._recent_eps)
        assert all(type(w) is float for w in model._recent_w)
        assert all(type(t) is float for t in model._level_tail)
    assert pushes  # the sequences exercise both branches


def test_arima_overrides_the_default_step():
    assert ARIMAModel.step is not TimeSeriesModel.step


def fitted_family(family: str, rng: np.random.Generator) -> tuple[TimeSeriesModel, float]:
    if family == "arima":
        x = random_walk(rng, 400)
        return ARIMAModel(order=(2, 1, 1)).fit(x), float(x[-1])
    if family == "ar":
        x = random_walk(rng, 400)
        return ARModel(order=3).fit(x), float(x[-1])
    if family == "markov":
        x = random_walk(rng, 400)
        return MarkovChainModel(n_states=16).fit(x), float(x[-1])
    if family == "seasonal":
        t = np.arange(600) * 30.0
        x = 20.0 + np.sin(2 * np.pi * t / 3600.0) + rng.normal(0.0, 0.05, t.size)
        model = SeasonalProfileModel(bins=12, sample_period_s=30.0).fit(x, t)
        model.align_to_time(float(t[-1]) + 30.0)
        return model, float(x[-1])
    season = 24
    t = np.arange(4 * season + 16)
    x = 20.0 + np.sin(2 * np.pi * t / season) + rng.normal(0.0, 0.05, t.size)
    return SeasonalArimaModel(season_length=season).fit(x), float(x[-1])


@pytest.mark.parametrize("family", ["ar", "seasonal", "sarima", "markov"])
def test_default_step_matches_predict_then_observe(family):
    """Families without an override run the base-class default."""
    rng = np.random.default_rng(77)
    model, start = fitted_family(family, rng)
    assert type(model).step is TimeSeriesModel.step
    drive_in_lockstep(model, start, rng, steps=150)


FAMILIES = ["arima", "ar", "seasonal", "sarima", "markov"]


@pytest.mark.parametrize("family", FAMILIES)
def test_forecast_starts_where_predict_next_does(family):
    """After activation and a few epochs, the first forecast step is the
    one-step prediction: a failover forecast extrapolates from the
    replica's clock, not from the end of its training window."""
    rng = np.random.default_rng(91)
    model, start = fitted_family(family, rng)
    model.align_to_time(3 * 3600.0 + 600 * model.sample_period_s)
    for value in start + np.cumsum(rng.normal(0.0, 0.1, 5)):
        model.observe(float(value))
    assert model.forecast(1).mean[0] == model.predict_next()


@pytest.mark.parametrize("family", FAMILIES)
def test_forecast_is_prefix_stable(family):
    """``forecast(n)[:s]`` is ``forecast(s)`` bit for bit — what lets a
    failover trajectory answer every step count from one forecast."""
    rng = np.random.default_rng(92)
    model, _ = fitted_family(family, rng)
    long = model.forecast(300)
    for steps in (1, 2, 7, 64, 299):
        short = model.forecast(steps)
        assert long.mean[:steps].tobytes() == short.mean.tobytes()
        assert long.std[:steps].tobytes() == short.std.tobytes()
