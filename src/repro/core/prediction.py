"""The proxy's prediction engine.

Responsible for the three roles Section 3 assigns it:

* **model-driven push** — fit a model per sensor on the reconstructed
  stream and produce the :class:`~repro.core.push.ModelUpdate` to ship;
* **data extrapolation** — estimate a sensor's value at instants with no
  cache entry, temporally (forecast from the last known epoch) and
  spatially (condition a multivariate Gaussian on co-located sensors);
* **confidence** — every estimate carries a standard deviation so the proxy
  can honour query precision bounds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.cache import SummaryCache
from repro.core.config import PrestoConfig
from repro.core.push import ModelUpdate
from repro.timeseries.ar import ARModel
from repro.timeseries.arima import ARIMAModel
from repro.timeseries.base import TimeSeriesModel
from repro.timeseries.gaussian import MultivariateGaussianModel
from repro.timeseries.markov import MarkovChainModel
from repro.timeseries.sarima import SeasonalArimaModel, daily_season
from repro.timeseries.seasonal import SeasonalProfileModel

#: model orders of the families ``PrestoConfig.model_kind`` selects
AR_ORDER = 2
ARIMA_ORDER = (1, 1, 0)
MARKOV_STATES = 32


@dataclass(frozen=True)
class Estimate:
    """A value estimate with confidence."""

    value: float
    std: float


class PredictionEngine:
    """Per-sensor model management plus spatial correlation."""

    def __init__(self, config: PrestoConfig, n_sensors: int) -> None:
        self.config = config
        self.n_sensors = int(n_sensors)
        self._models: dict[int, TimeSeriesModel] = {}
        self._spatial: MultivariateGaussianModel | None = None
        self.refits = 0

    # -- model construction -------------------------------------------------

    def make_model(self) -> TimeSeriesModel:
        """Fresh, unfitted model of the configured family."""
        cfg = self.config
        if cfg.model_kind == "seasonal":
            return SeasonalProfileModel(
                bins=cfg.seasonal_bins, sample_period_s=cfg.sample_period_s
            )
        if cfg.model_kind == "ar":
            return ARModel(order=AR_ORDER, sample_period_s=cfg.sample_period_s)
        if cfg.model_kind == "arima":
            return ARIMAModel(order=ARIMA_ORDER, sample_period_s=cfg.sample_period_s)
        if cfg.model_kind == "markov":
            return MarkovChainModel(
                n_states=MARKOV_STATES, sample_period_s=cfg.sample_period_s
            )
        if cfg.model_kind == "sarima":
            return SeasonalArimaModel(
                season_length=daily_season(cfg.sample_period_s),
                sample_period_s=cfg.sample_period_s,
            )
        raise ValueError(f"unknown model kind {cfg.model_kind!r}")

    def refit(
        self,
        sensor: int,
        values: np.ndarray,
        timestamps: np.ndarray,
        delta: float | None = None,
    ) -> ModelUpdate | None:
        """Refit *sensor*'s model on a reconstructed window.

        *delta* is the push threshold to embed in the update — normally the
        matcher's current choice, so a retuned threshold survives refits.
        Returns the :class:`ModelUpdate` to ship, or None when the window is
        still too short or the fit fails (sensor keeps pushing everything).
        """
        if values.size < self.config.min_training_epochs:
            return None
        model = self.make_model()
        try:
            model.fit(np.asarray(values, dtype=np.float64),
                      np.asarray(timestamps, dtype=np.float64))
        except (ValueError, RuntimeError, np.linalg.LinAlgError):
            return None
        self._models[sensor] = model
        self.refits += 1
        return ModelUpdate(
            model=model,
            delta=self.config.push_delta if delta is None else float(delta),
        )

    def model_for(self, sensor: int) -> TimeSeriesModel | None:
        """The sensor's current fitted model, if any."""
        return self._models.get(sensor)

    # -- temporal extrapolation ------------------------------------------------

    def extrapolate_temporal(
        self, sensor: int, target_time: float, cache: SummaryCache
    ) -> Estimate | None:
        """Estimate the value at *target_time* from the cached series.

        Strategy: take the nearest cache entries around the target; if the
        model is seasonal, evaluate its profile directly at the target time
        and anchor it with the nearest actual offset; otherwise interpolate
        between neighbours / forecast from the latest entry, inflating the
        std with temporal distance.
        """
        model = self._models.get(sensor)
        period = self.config.sample_period_s
        nearest = cache.entry_at(sensor, target_time, tolerance_s=0.5 * period)
        if nearest is not None:
            return Estimate(value=nearest.value, std=nearest.std)

        if isinstance(model, SeasonalProfileModel):
            value = model.predict_at(target_time)
            return Estimate(value=value, std=model.residual_std)

        latest = cache.latest(sensor)
        if latest is None:
            return None
        gap_epochs = max(int(abs(target_time - latest.timestamp) / period), 1)
        if model is not None:
            try:
                forecast = model.forecast(min(gap_epochs, 4096))
                std = float(forecast.std[-1])
            except (RuntimeError, ValueError):
                std = (latest.std or 0.1) * np.sqrt(gap_epochs)
            # anchor on the cached value rather than the stale stream state
            value = latest.value
            return Estimate(value=value, std=max(std, latest.std))
        std = (latest.std if latest.std > 0 else 0.1) * np.sqrt(gap_epochs)
        return Estimate(value=latest.value, std=std)

    # -- spatial extrapolation -------------------------------------------------

    def fit_spatial(self, aligned_readings: np.ndarray) -> None:
        """Fit the joint Gaussian from (epochs x sensors) aligned data."""
        self._spatial = MultivariateGaussianModel().fit(aligned_readings)

    def extrapolate_spatial(
        self,
        sensor: int,
        target_time: float,
        cache: SummaryCache,
        tolerance_s: float | None = None,
    ) -> Estimate | None:
        """Condition the joint Gaussian on co-located sensors' cached values.

        Only *actual* (pushed/pulled) neighbour entries within the tolerance
        window are used as evidence — conditioning on other guesses would
        launder uncertainty.
        """
        if self._spatial is None:
            return None
        tolerance = tolerance_s if tolerance_s is not None else self.config.sample_period_s
        observed: dict[int, float] = {}
        for other in range(self.n_sensors):
            if other == sensor:
                continue
            # the nearest entry of any provenance is picked first, then
            # dropped unless it holds ground truth
            row = cache.entry_at(other, target_time, tolerance_s=tolerance)
            if row is not None and row.is_actual:
                observed[other] = row.value
        if not observed:
            return None
        try:
            value, std = self._spatial.estimate(sensor, observed)
        except (IndexError, np.linalg.LinAlgError):
            return None
        return Estimate(value=float(value), std=float(std))

    # -- combined ---------------------------------------------------------------

    def best_estimate(
        self, sensor: int, target_time: float, cache: SummaryCache
    ) -> tuple[Estimate, str] | None:
        """Lowest-std estimate across temporal and spatial extrapolation.

        Returns ``(estimate, method)`` with method in {"temporal",
        "spatial"}, or None when neither path has evidence.
        """
        temporal = self.extrapolate_temporal(sensor, target_time, cache)
        spatial = (
            self.extrapolate_spatial(sensor, target_time, cache)
            if self.config.spatial_extrapolation
            else None
        )
        candidates: list[tuple[Estimate, str]] = []
        if temporal is not None:
            candidates.append((temporal, "temporal"))
        if spatial is not None:
            candidates.append((spatial, "spatial"))
        if not candidates:
            return None
        return min(candidates, key=lambda pair: pair[0].std)
