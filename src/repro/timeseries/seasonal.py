"""Seasonal (time-of-day) profile model.

The paper's canonical example: "a model of temperature variations will
capture time-of-day effects ... only deviations from the normal temperature
for each hour of the day are reported."  The model is a table of per-bin
means over the daily cycle plus an optional linear drift term; a sensor
verifies a reading with one table lookup and one subtraction — the cheapest
possible model check, and the natural baseline for model-driven push.
"""

from __future__ import annotations

import numpy as np

from repro.timeseries.base import (
    Forecast,
    ModelSpec,
    TimeSeriesModel,
    as_float_array,
)

SECONDS_PER_DAY = 86_400.0


class SeasonalProfileModel(TimeSeriesModel):
    """Daily-profile model: per-bin means + linear trend + residual noise.

    Parameters
    ----------
    bins:
        Number of equal slots the day is divided into (48 = half-hourly).
    sample_period_s:
        Sampling interval of the series being modelled.
    fit_trend:
        Whether to remove/forecast a linear drift across days (captures the
        paper's "impact of seasons" over long windows).
    """

    def __init__(
        self, bins: int = 48, sample_period_s: float = 30.0, fit_trend: bool = True
    ) -> None:
        if bins < 1:
            raise ValueError(f"bins must be >= 1, got {bins}")
        self.bins = int(bins)
        self.sample_period_s = float(sample_period_s)
        self.fit_trend = bool(fit_trend)
        self._profile: np.ndarray | None = None
        self._trend_per_s: float = 0.0
        self._intercept: float = 0.0
        self._residual_std: float = 0.0
        self._clock: float = 0.0

    # -- fitting -----------------------------------------------------------

    def fit(
        self, values: np.ndarray, timestamps: np.ndarray | None = None
    ) -> "SeasonalProfileModel":
        """Fit bin means (and optional trend) to a timestamped window.

        Without explicit *timestamps*, samples are assumed evenly spaced at
        ``sample_period_s`` starting from t=0.
        """
        values = as_float_array(values)
        if timestamps is None:
            timestamps = np.arange(values.size, dtype=np.float64) * self.sample_period_s
        else:
            timestamps = as_float_array(timestamps, "timestamps")
            if timestamps.shape != values.shape:
                raise ValueError("timestamps and values must align")
        slope, intercept = self._fit_trend(values, timestamps)
        self._trend_per_s = slope
        self._intercept = intercept
        detrended = values - (slope * timestamps + intercept)

        bin_index = self._bin_of(timestamps)
        profile = np.zeros(self.bins, dtype=np.float64)
        counts = np.zeros(self.bins, dtype=np.int64)
        np.add.at(profile, bin_index, detrended)
        np.add.at(counts, bin_index, 1)
        filled = counts > 0
        profile[filled] /= counts[filled]
        if not np.all(filled):
            # Empty bins inherit the global mean so predictions stay finite.
            profile[~filled] = float(np.mean(detrended))
        self._profile = profile

        predictions = self._predict_at(timestamps)
        residuals = values - predictions
        self._residual_std = float(np.std(residuals))
        self._clock = float(timestamps[-1])
        return self

    def _fit_trend(
        self, values: np.ndarray, timestamps: np.ndarray
    ) -> tuple[float, float]:
        """Inter-day drift estimate.

        Fitting a raw regression line through less than two full cycles
        aliases the daily shape into a bogus slope (a one-day window of any
        asymmetric profile has nonzero OLS slope), so the trend is fitted on
        *daily means* and only when at least two sufficiently covered days
        exist; otherwise the model is flat at the window mean.
        """
        if not self.fit_trend or values.size < 2:
            return 0.0, float(np.mean(values))
        day_index = np.floor_divide(timestamps, SECONDS_PER_DAY).astype(np.int64)
        expected_per_day = max(SECONDS_PER_DAY / self.sample_period_s, 1.0)
        day_times: list[float] = []
        day_means: list[float] = []
        for day in np.unique(day_index):
            mask = day_index == day
            if mask.sum() >= 0.75 * expected_per_day:
                day_times.append(float(np.mean(timestamps[mask])))
                day_means.append(float(np.mean(values[mask])))
        if len(day_means) < 2:
            return 0.0, float(np.mean(values))
        slope, intercept = np.polyfit(day_times, day_means, deg=1)
        return float(slope), float(intercept)

    def _bin_of(self, timestamps: np.ndarray) -> np.ndarray:
        seconds_into_day = np.mod(timestamps, SECONDS_PER_DAY)
        index = (seconds_into_day / SECONDS_PER_DAY * self.bins).astype(np.int64)
        return np.clip(index, 0, self.bins - 1)

    def _predict_at(self, timestamps: np.ndarray) -> np.ndarray:
        if self._profile is None:
            raise RuntimeError("model not fitted")
        trend = self._trend_per_s * timestamps + self._intercept
        return trend + self._profile[self._bin_of(timestamps)]

    # -- prediction --------------------------------------------------------

    def predict_at(self, timestamp: float) -> float:
        """Prediction at an arbitrary absolute time (proxy extrapolation)."""
        return float(self._predict_at(np.asarray([timestamp], dtype=np.float64))[0])

    def forecast(self, steps: int) -> Forecast:
        """Forecast the *steps* epochs from the model's clock on.

        The first step is the instant :meth:`predict_next` targets: right
        after :meth:`fit` that is the epoch after the training window, and
        :meth:`align_to_time` / :meth:`observe` move it like they move the
        one-step prediction.
        """
        if self._profile is None:
            raise RuntimeError("model not fitted")
        if steps < 1:
            raise ValueError(f"steps must be >= 1, got {steps}")
        times = (
            self._clock
            + (np.arange(steps, dtype=np.float64) + 1.0) * self.sample_period_s
        )
        mean = self._predict_at(times)
        std = np.full(steps, self._residual_std, dtype=np.float64)
        return Forecast(mean=mean, std=std)

    def align_to_time(self, next_sample_time: float) -> None:
        """Set the clock so the next prediction targets *next_sample_time*."""
        self._clock = float(next_sample_time) - self.sample_period_s

    def predict_next(self) -> float:
        """One-step prediction at the model's internal clock."""
        return self.predict_at(self._clock + self.sample_period_s)

    def observe(self, value: float) -> None:
        """Advance the clock; the profile itself is static between refits."""
        self._clock += self.sample_period_s

    # -- metadata ----------------------------------------------------------

    def spec(self) -> ModelSpec:
        """Describe the model ("seasonal(bins)")."""
        return ModelSpec(
            family="seasonal",
            order=(self.bins,),
            n_params=self.bins + (2 if self.fit_trend else 1),
        )

    @property
    def parameter_bytes(self) -> int:
        """Profile table at 2 bytes/bin + trend (4) + intercept (4) + meta."""
        return 2 * self.bins + 4 + 4 + 4

    @property
    def residual_std(self) -> float:
        """In-sample residual standard deviation."""
        return self._residual_std

    @property
    def check_cycles(self) -> float:
        """Table lookup + multiply-add + compare: ~40 cycles."""
        return 40.0
