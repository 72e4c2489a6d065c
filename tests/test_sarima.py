"""Unit tests for the seasonal-differenced ARIMA model."""

import copy

import numpy as np
import pytest

from repro.timeseries.sarima import SeasonalArimaModel

SEASON = 288  # short "day" (e.g. 5-minute epochs) keeps tests fast


def make_seasonal_series(days=6, noise=0.15, front_std=0.8, seed=0):
    """Diurnal cycle + slow front + noise, SEASON samples per day."""
    rng = np.random.default_rng(seed)
    n = days * SEASON
    t = np.arange(n)
    diurnal = 4.0 * np.sin(2 * np.pi * t / SEASON)
    rho = np.exp(-1.0 / SEASON)
    front = np.empty(n)
    front[0] = 0.0
    shocks = rng.normal(0, front_std * np.sqrt(1 - rho**2), n)
    for i in range(1, n):
        front[i] = rho * front[i - 1] + shocks[i]
    return 20.0 + diurnal + front + rng.normal(0, noise, n)


@pytest.fixture(scope="module")
def series():
    return make_seasonal_series()


@pytest.fixture(scope="module")
def fitted(series):
    return SeasonalArimaModel(season_length=SEASON, sample_period_s=300.0).fit(
        series[: 4 * SEASON]
    )


class TestFit:
    def test_residual_near_noise_floor(self, fitted):
        # double differencing + MA should leave ~sqrt(4)x noise at worst
        assert fitted.residual_std < 0.6

    def test_too_short_window_rejected(self, series):
        with pytest.raises(ValueError):
            SeasonalArimaModel(season_length=SEASON).fit(series[: SEASON + 10])

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            SeasonalArimaModel(season_length=1)
        with pytest.raises(ValueError):
            SeasonalArimaModel(q=-1)
        with pytest.raises(ValueError, match="seasonal MA lag"):
            SeasonalArimaModel(season_length=4, q=4)

    def test_unfitted_predict_raises(self):
        with pytest.raises(RuntimeError):
            SeasonalArimaModel(season_length=SEASON).predict_next()


class TestPrediction:
    def test_one_step_tracks_cycle_and_front(self, series):
        model = SeasonalArimaModel(season_length=SEASON, sample_period_s=300.0).fit(
            series[: 4 * SEASON]
        )
        errors = []
        for value in series[4 * SEASON : 5 * SEASON]:
            errors.append(abs(model.predict_next() - value))
            model.observe(value)
        assert float(np.mean(errors)) < 0.45

    def test_beats_naive_repeat_yesterday(self, series):
        """The MA corrections must beat plain X(t-1)+X(t-S)-X(t-S-1) noise
        accumulation — otherwise the model adds nothing."""
        model = SeasonalArimaModel(season_length=SEASON, sample_period_s=300.0).fit(
            series[: 4 * SEASON]
        )
        model_errors = []
        naive_errors = []
        test = series[4 * SEASON : 5 * SEASON]
        for i, value in enumerate(test):
            model_errors.append(abs(model.predict_next() - value))
            model.observe(value)
            t = 4 * SEASON + i
            naive = series[t - 1] + series[t - SEASON] - series[t - SEASON - 1]
            naive_errors.append(abs(naive - value))
        assert np.mean(model_errors) < np.mean(naive_errors) * 1.05

    def test_replica_equivalence(self, series):
        model = SeasonalArimaModel(season_length=SEASON, sample_period_s=300.0).fit(
            series[: 4 * SEASON]
        )
        a, b = copy.deepcopy(model), copy.deepcopy(model)
        for value in series[4 * SEASON : 4 * SEASON + 100]:
            assert a.predict_next() == pytest.approx(b.predict_next(), abs=1e-12)
            a.observe(float(value))
            b.observe(float(value))

    def test_push_rate_low_on_seasonal_data(self, series):
        """End use: at delta=1 the checker should almost never push."""
        from repro.core.push import ModelUpdate, SensorModelChecker

        model = SeasonalArimaModel(season_length=SEASON, sample_period_s=300.0).fit(
            series[: 4 * SEASON]
        )
        checker = SensorModelChecker(ModelUpdate(model=model, delta=1.0))
        pushes = sum(
            checker.process(float(v)).push for v in series[4 * SEASON :]
        )
        assert pushes / (2 * SEASON) < 0.05


class TestForecast:
    def test_forecast_continues_cycle(self, series, fitted):
        model = copy.deepcopy(fitted)
        forecast = model.forecast(SEASON)
        # the forecast day should correlate strongly with the cycle shape
        template = 4.0 * np.sin(2 * np.pi * np.arange(SEASON) / SEASON)
        centred = forecast.mean - np.mean(forecast.mean)
        correlation = float(
            np.dot(centred, template)
            / (np.linalg.norm(centred) * np.linalg.norm(template))
        )
        assert correlation > 0.8

    def test_forecast_preserves_streaming_state(self, fitted):
        model = copy.deepcopy(fitted)
        before = model.predict_next()
        model.forecast(50)
        assert model.predict_next() == pytest.approx(before)

    def test_forecast_std_grows(self, fitted):
        forecast = copy.deepcopy(fitted).forecast(100)
        assert forecast.std[-1] > forecast.std[0]

    def test_invalid_steps(self, fitted):
        with pytest.raises(ValueError):
            copy.deepcopy(fitted).forecast(0)


class TestMetadata:
    def test_spec(self, fitted):
        spec = fitted.spec()
        assert spec.family == "sarima"
        assert spec.order == (1, 1, SEASON)

    def test_parameter_bytes_small(self, fitted):
        # the whole point: a powerful model that ships in a few bytes
        assert fitted.parameter_bytes < 32

    def test_check_cycles_cheap(self, fitted):
        assert fitted.check_cycles < 200


class TestEngineIntegration:
    def test_prediction_engine_builds_sarima(self):
        from repro.core.config import PrestoConfig
        from repro.core.prediction import PredictionEngine

        config = PrestoConfig(sample_period_s=300.0, model_kind="sarima")
        engine = PredictionEngine(config, 1)
        model = engine.make_model()
        assert model.spec().family == "sarima"
        assert model.season_length == 288

    def test_refit_fails_gracefully_on_short_window(self):
        from repro.core.config import PrestoConfig
        from repro.core.prediction import PredictionEngine

        config = PrestoConfig(
            sample_period_s=300.0, model_kind="sarima", min_training_epochs=64
        )
        engine = PredictionEngine(config, 1)
        values = np.full(100, 20.0)
        times = np.arange(100) * 300.0
        assert engine.refit(0, values, times) is None  # needs two seasons

    def test_config_rejects_a_window_shorter_than_two_seasons(self):
        """At 31 s a day is 2787 samples, and the 2880-sample default window
        holds barely one: every fit would fail and every reading push cold."""
        from repro.core.config import PrestoConfig, sarima_training_epochs

        with pytest.raises(ValueError, match="training_epochs >= 5590"):
            PrestoConfig(sample_period_s=31.0, model_kind="sarima")
        assert sarima_training_epochs(31.0) == 2 * 2787 + 16
        PrestoConfig(sample_period_s=31.0, model_kind="sarima", training_epochs=5590)
        # at 300 s two seasons (592 samples) fit in the default window
        assert PrestoConfig.for_model("sarima", sample_period_s=300.0).training_epochs == 2880

    def test_system_fits_and_pushes_at_the_computed_window(self):
        from repro.core import PrestoSystem
        from repro.core.config import PrestoConfig
        from repro.traces.intel_lab import IntelLabConfig, IntelLabGenerator

        trace = IntelLabGenerator(
            IntelLabConfig(n_sensors=4, duration_s=3 * 86_400.0, epoch_s=31.0), seed=7
        ).generate()
        config = PrestoConfig.for_model(
            "sarima", sample_period_s=31.0, refit_interval_s=6 * 3600.0
        )
        assert config.training_epochs == 5590
        report = PrestoSystem(trace, config, seed=7).run()
        assert report.pushes > 0                  # model-driven pushes, not only cold
        assert report.pushes + report.cold_pushes < report.n_sensors * trace.n_epochs
