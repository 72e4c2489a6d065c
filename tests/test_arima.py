"""Unit tests for the from-scratch ARIMA (Hannan-Rissanen)."""

import numpy as np
import pytest

from repro.timeseries.arima import ARIMAModel, difference, undifference
from repro.timeseries.base import Forecast


def make_arma11(n=6000, phi=0.7, theta=0.4, sigma=0.5, seed=3):
    rng = np.random.default_rng(seed)
    eps = rng.normal(0, sigma, n)
    x = np.zeros(n)
    for t in range(1, n):
        x[t] = phi * x[t - 1] + eps[t] + theta * eps[t - 1]
    return x


def make_random_walk_with_drift(n=4000, drift=0.01, sigma=0.3, seed=4):
    rng = np.random.default_rng(seed)
    return np.cumsum(drift + rng.normal(0, sigma, n)) + 50.0


class TestDifferencing:
    def test_difference_reduces_length(self):
        x = np.arange(10.0)
        assert difference(x, 1).shape == (9,)
        assert difference(x, 2).shape == (8,)

    def test_difference_of_line_is_constant(self):
        x = 3.0 * np.arange(10.0) + 1.0
        np.testing.assert_allclose(difference(x, 1), 3.0)

    def test_undifference_inverts(self):
        x = np.asarray([1.0, 3.0, 6.0, 10.0, 15.0])
        d = difference(x, 1)
        recon = undifference(d, np.asarray([x[0]]), 1)
        np.testing.assert_allclose(recon, x[1:])

    def test_undifference_d2(self):
        x = np.asarray([0.0, 1.0, 4.0, 9.0, 16.0, 25.0])
        d2 = difference(x, 2)
        tails = np.asarray([x[1], x[1] - x[0]])
        recon = undifference(d2, tails, 2)
        np.testing.assert_allclose(recon, x[2:])

    def test_undifference_wrong_tail_count(self):
        with pytest.raises(ValueError):
            undifference(np.zeros(3), np.zeros(1), 2)


class TestEstimation:
    def test_arma11_coefficients_recovered(self):
        x = make_arma11()
        model = ARIMAModel(order=(1, 0, 1)).fit(x)
        assert model._phi[0] == pytest.approx(0.7, abs=0.1)
        assert model._theta[0] == pytest.approx(0.4, abs=0.15)
        assert model.residual_std == pytest.approx(0.5, abs=0.07)

    def test_pure_ar_path(self):
        x = make_arma11(theta=0.0)
        model = ARIMAModel(order=(1, 0, 0)).fit(x)
        assert model._phi[0] == pytest.approx(0.7, abs=0.08)

    def test_integrated_series_needs_d1(self):
        x = make_random_walk_with_drift()
        model = ARIMAModel(order=(1, 1, 0)).fit(x)
        # one-step prediction of a random walk ~ the last value + drift
        prediction = model.predict_next()
        assert prediction == pytest.approx(x[-1], abs=1.5)

    def test_invalid_orders_rejected(self):
        with pytest.raises(ValueError):
            ARIMAModel(order=(0, 0, 0))
        with pytest.raises(ValueError):
            ARIMAModel(order=(1, 3, 0))
        with pytest.raises(ValueError):
            ARIMAModel(order=(-1, 0, 1))

    def test_too_short_window_rejected(self):
        with pytest.raises(ValueError):
            ARIMAModel(order=(2, 1, 2)).fit(np.arange(10.0) + 1)

    @pytest.mark.parametrize("order", [(1, 1, 0), (2, 0, 1)])
    def test_fit_filters_the_window_once(self, order, monkeypatch):
        """sigma and the streaming innovations come from one residual pass
        (the Python-loop filter is the costliest line of a refit)."""
        passes = []
        filter_window = ARIMAModel._in_sample_residuals

        def counted(self, centred):
            passes.append(filter_window(self, centred))
            return passes[-1]

        monkeypatch.setattr(ARIMAModel, "_in_sample_residuals", counted)
        model = ARIMAModel(order=order).fit(make_arma11(n=600))
        assert len(passes) == 1
        residuals = passes[0]
        assert model.residual_std == float(np.sqrt(np.mean(residuals**2)))
        assert list(model._eps) == [float(e) for e in residuals[-max(order[2], 1):]]


class TestStreaming:
    def test_one_step_tracks_level(self):
        x = make_random_walk_with_drift()
        model = ARIMAModel(order=(1, 1, 0)).fit(x[:3000])
        errors = []
        for value in x[3000:3200]:
            errors.append(abs(model.predict_next() - value))
            model.observe(value)
        # one-step error of a random walk ~ innovation scale, not drift scale
        assert np.mean(errors) < 0.6

    def test_replica_equivalence(self):
        import copy

        model = ARIMAModel(order=(1, 1, 1)).fit(make_random_walk_with_drift())
        a, b = copy.deepcopy(model), copy.deepcopy(model)
        rng = np.random.default_rng(5)
        value = 90.0
        for _ in range(100):
            assert a.predict_next() == pytest.approx(b.predict_next(), abs=1e-12)
            value += float(rng.normal(0, 0.3))
            a.observe(value)
            b.observe(value)

    def test_observe_then_predict_consistency(self):
        """After observing value v, the level state must update so the next
        prediction is anchored near v (random-walk-ish model)."""
        model = ARIMAModel(order=(1, 1, 0)).fit(make_random_walk_with_drift())
        model.observe(123.0)
        assert model.predict_next() == pytest.approx(123.0, abs=2.0)


def front_insert_forecast(model: ARIMAModel, steps: int) -> Forecast:
    """The forecast routine as it was: histories newest-first, grown at the front.

    The oracle for :meth:`ARIMAModel.forecast`, which appends instead (the
    front insert shuffled the whole history once per step).  Same
    multiply-add order, same operand types.
    """
    w_hist = list(model._w)[::-1]
    eps_hist = list(model._eps)[::-1]
    w_forecast = np.empty(steps, dtype=np.float64)
    for step in range(steps):
        prediction = 0.0
        for i in range(model.p):
            if i < len(w_hist):
                prediction += model._phi[i] * w_hist[i]
        for j in range(model.q):
            if j < len(eps_hist):
                prediction += model._theta[j] * eps_hist[j]
        w_forecast[step] = prediction
        w_hist.insert(0, prediction)
        eps_hist.insert(0, 0.0)  # future innovations have zero mean
    w_forecast = w_forecast + model._mu
    tails = np.asarray([level for tail in model._tails for level in tail])
    mean = undifference(w_forecast, tails, model.d)

    psi = np.zeros(steps)
    psi[0] = 1.0
    for j in range(1, steps):
        value = model._theta[j - 1] if j - 1 < model.q else 0.0
        for i in range(1, min(j, model.p) + 1):
            value += model._phi[i - 1] * psi[j - i]
        psi[j] = value
    if model.d == 0:
        cumulative = np.cumsum(psi**2)
    else:
        integrated = psi.copy()
        for _ in range(model.d):
            integrated = np.cumsum(integrated)
        cumulative = np.cumsum(integrated**2)
    std = model._sigma * np.sqrt(cumulative)
    return Forecast(mean=mean, std=std)


class TestForecast:
    @pytest.mark.parametrize(
        "p,q", [(p, q) for p in range(3) for q in range(3) if p or q]
    )
    def test_bit_equal_to_front_insert_oracle(self, p, q):
        # d rides along (0, 1, 2 by order) so the integration is covered too
        d = (p + q) % 3
        series = make_random_walk_with_drift(n=1500) if d else make_arma11(n=1500)
        model = ARIMAModel(order=(p, d, q)).fit(series)
        for value in series[-5:]:
            model.observe(value)
        state = (list(model._w), list(model._eps))
        for steps in range(1, 301):
            got = model.forecast(steps)
            want = front_insert_forecast(model, steps)
            assert got.mean.tobytes() == want.mean.tobytes(), steps
            assert got.std.tobytes() == want.std.tobytes(), steps
        assert (list(model._w), list(model._eps)) == state

    def test_forecast_horizon_shape(self):
        model = ARIMAModel(order=(1, 0, 1)).fit(make_arma11())
        forecast = model.forecast(25)
        assert forecast.horizon == 25
        assert forecast.mean.shape == forecast.std.shape == (25,)

    def test_integrated_forecast_std_grows(self):
        model = ARIMAModel(order=(1, 1, 0)).fit(make_random_walk_with_drift())
        forecast = model.forecast(50)
        # random-walk uncertainty grows without bound
        assert forecast.std[-1] > 2.0 * forecast.std[4]

    def test_stationary_forecast_converges_to_mean(self):
        x = make_arma11()
        model = ARIMAModel(order=(1, 0, 1)).fit(x)
        forecast = model.forecast(300)
        assert abs(forecast.mean[-1] - np.mean(x)) < 0.5


class TestMetadata:
    def test_spec(self):
        model = ARIMAModel(order=(2, 1, 1))
        spec = model.spec()
        assert spec.family == "arima"
        assert spec.order == (2, 1, 1)

    def test_parameter_bytes(self):
        assert ARIMAModel(order=(2, 1, 1)).parameter_bytes == 4 * 5 + 3

    def test_check_cycles_scale_with_order(self):
        small = ARIMAModel(order=(1, 0, 1)).check_cycles
        large = ARIMAModel(order=(4, 1, 4)).check_cycles
        assert large > small
