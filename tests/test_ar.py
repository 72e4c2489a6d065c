"""Unit tests for AR models (Yule-Walker and OLS)."""

import numpy as np
import pytest

from repro.timeseries.ar import ARModel, autocovariance, fit_ar_ols, fit_ar_yule_walker


def make_ar2(n=5000, phi=(0.6, 0.2), sigma=0.5, mu=10.0, seed=1):
    rng = np.random.default_rng(seed)
    x = np.zeros(n)
    for t in range(2, n):
        x[t] = phi[0] * x[t - 1] + phi[1] * x[t - 2] + rng.normal(0, sigma)
    return x + mu


class TestEstimators:
    def test_autocovariance_lag0_is_variance(self):
        x = make_ar2()
        gamma = autocovariance(x, 3)
        assert gamma[0] == pytest.approx(np.var(x), rel=1e-6)

    def test_autocovariance_invalid_lag(self):
        with pytest.raises(ValueError):
            autocovariance(np.zeros(5) + 1.0, 5)

    def test_yule_walker_recovers_coefficients(self):
        x = make_ar2()
        phi, variance = fit_ar_yule_walker(x, 2)
        assert phi[0] == pytest.approx(0.6, abs=0.06)
        assert phi[1] == pytest.approx(0.2, abs=0.06)
        assert np.sqrt(variance) == pytest.approx(0.5, abs=0.05)

    def test_ols_recovers_coefficients(self):
        x = make_ar2()
        phi, intercept, variance = fit_ar_ols(x, 2)
        assert phi[0] == pytest.approx(0.6, abs=0.06)
        assert phi[1] == pytest.approx(0.2, abs=0.06)

    def test_constant_series_gives_zero_dynamics(self):
        phi, variance = fit_ar_yule_walker(np.full(100, 5.0), 2)
        assert np.allclose(phi, 0.0)
        assert variance == 0.0

    def test_invalid_order(self):
        with pytest.raises(ValueError):
            fit_ar_yule_walker(make_ar2(100), 0)


class TestARModel:
    def test_one_step_prediction_beats_mean(self):
        x = make_ar2()
        model = ARModel(order=2).fit(x[:4000])
        errors_model = []
        errors_mean = []
        mean = np.mean(x[:4000])
        for value in x[4000:4500]:
            errors_model.append(abs(model.predict_next() - value))
            errors_mean.append(abs(mean - value))
            model.observe(value)
        assert np.mean(errors_model) < 0.8 * np.mean(errors_mean)

    def test_forecast_converges_to_mean(self):
        x = make_ar2(mu=10.0)
        model = ARModel(order=2).fit(x)
        forecast = model.forecast(500)
        assert forecast.mean[-1] == pytest.approx(np.mean(x), abs=0.5)

    def test_forecast_std_grows_then_saturates(self):
        model = ARModel(order=2).fit(make_ar2())
        forecast = model.forecast(200)
        assert forecast.std[0] < forecast.std[10]
        assert forecast.std[-1] == pytest.approx(forecast.std[-20], rel=0.05)

    def test_forecast_std_first_step_is_sigma(self):
        model = ARModel(order=2).fit(make_ar2())
        forecast = model.forecast(5)
        assert forecast.std[0] == pytest.approx(model.residual_std, rel=1e-9)

    def test_replica_equivalence(self):
        import copy

        model = ARModel(order=3).fit(make_ar2())
        a, b = copy.deepcopy(model), copy.deepcopy(model)
        rng = np.random.default_rng(2)
        for _ in range(50):
            assert a.predict_next() == pytest.approx(b.predict_next(), abs=1e-12)
            value = float(rng.normal(10, 1))
            a.observe(value)
            b.observe(value)

    def test_too_short_window_rejected(self):
        with pytest.raises(ValueError):
            ARModel(order=5).fit(np.arange(5.0) + 1)

    def test_ols_method(self):
        model = ARModel(order=2, method="ols").fit(make_ar2())
        assert model.residual_std == pytest.approx(0.5, abs=0.1)

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            ARModel(order=2, method="magic")

    def test_spec_and_bytes(self):
        model = ARModel(order=4)
        assert model.spec().family == "ar"
        assert model.parameter_bytes == 4 * 6 + 2
        assert model.check_cycles < 500

    def test_unfitted_predict_raises(self):
        with pytest.raises(RuntimeError):
            ARModel(order=2).predict_next()
