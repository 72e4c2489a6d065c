"""Forecast variance of the linear families against a power-series oracle.

AR, ARIMA and seasonal ARIMA forecast through one recursion, whose std is
``sigma * sqrt(cumsum psi^2)`` for the psi weights of
``theta(B) / (phi(B) * prod (1 - B^s))``.  The oracle below expands that
ratio by long division, independently of the model's own recursion.
"""

from __future__ import annotations

import numpy as np
import pytest
from test_model_step import fitted_family, random_walk

from repro.timeseries.arima import ARIMAModel
from repro.timeseries.sarima import SeasonalArimaModel


def long_division(numerator: np.ndarray, denominator: np.ndarray, count: int) -> np.ndarray:
    """The first *count* coefficients of ``numerator / denominator`` (both
    polynomials in B, constant term first, ``denominator[0] == 1``)."""
    quotient = np.zeros(count)
    remainder = np.zeros(count)
    remainder[: min(count, numerator.size)] = numerator[:count]
    for j in range(count):
        quotient[j] = remainder[j]
        span = min(denominator.size, count - j)
        remainder[j : j + span] -= quotient[j] * denominator[:span]
    return quotient


def oracle_std(model, count: int) -> np.ndarray:
    numerator = np.zeros(max((*model._ma_lags, 0)) + 1)
    numerator[0] = 1.0
    numerator[list(model._ma_lags)] = model._theta
    denominator = np.concatenate([[1.0], -model._phi])
    for s in model._factors:
        factor = np.zeros(s + 1)
        factor[0], factor[s] = 1.0, -1.0
        denominator = np.convolve(denominator, factor)
    psi = long_division(numerator, denominator, count)
    return model.residual_std * np.sqrt(np.cumsum(psi**2))


def seasonal_model(q: int, seasonal_q: int):
    season = 12
    rng = np.random.default_rng(3)
    t = np.arange(8 * season + 16)
    x = 20.0 + np.sin(2 * np.pi * t / season) + rng.normal(0.0, 0.1, t.size)
    return SeasonalArimaModel(season_length=season, q=q, seasonal_q=seasonal_q).fit(x)


MODELS = {
    "ar": lambda: fitted_family("ar", np.random.default_rng(1))[0],
    "arima(2,1,1)": lambda: fitted_family("arima", np.random.default_rng(1))[0],
    "arima(1,2,2)": lambda: ARIMAModel(order=(1, 2, 2)).fit(
        random_walk(np.random.default_rng(2), 400)
    ),
    "sarima": lambda: fitted_family("sarima", np.random.default_rng(1))[0],
    "sarima(2,2,12)": lambda: seasonal_model(2, 2),
}


@pytest.mark.parametrize("name", MODELS)
def test_forecast_std_is_the_psi_weight_series(name):
    model = MODELS[name]()
    assert np.any(model._theta != 0.0) or not model._ma_lags   # theta is fitted
    std = model.forecast(100).std
    np.testing.assert_allclose(std, oracle_std(model, 100), rtol=1e-10, atol=0.0)
