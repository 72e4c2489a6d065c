"""Seasonal-differenced ARIMA — the PRESTO successor's production model.

The NSDI'06 follow-up to this paper settled on a seasonal ARIMA of the form

    X(t) = X(t-1) + X(t-S) - X(t-S-1) + corrections

i.e. ARIMA(0,1,1)x(0,1,1)_S: today's change is predicted to repeat
yesterday's change at the same time of day, with two moving-average terms
absorbing transients.  The model is ideal for model-driven push because the
sensor-side check is four lookups and two MACs, yet it captures *both* the
diurnal cycle and weather fronts — the two failure modes that break plain
seasonal profiles and plain ARs respectively.

Estimation: the doubly differenced series
``w(t) = (1-B)(1-B^S) X(t)`` is computed, and the two MA coefficients are
fitted by the innovations-style regression used in
:mod:`repro.timeseries.arima` (long-AR residual proxies, then OLS).
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.timeseries.base import (
    Forecast,
    ModelSpec,
    TimeSeriesModel,
    as_float_array,
)


class SeasonalArimaModel(TimeSeriesModel):
    """ARIMA(0,1,q)x(0,1,Q)_S with q = Q = 1 by default.

    Parameters
    ----------
    season_length:
        Samples per season (2785 ≈ one day at 31 s epochs).  For training
        windows shorter than ~2 seasons, fitting fails and the caller
        should fall back to a non-seasonal model.
    """

    def __init__(
        self,
        season_length: int = 2_785,
        q: int = 1,
        seasonal_q: int = 1,
        sample_period_s: float = 31.0,
    ) -> None:
        if season_length < 2:
            raise ValueError(f"season length must be >= 2, got {season_length}")
        if q < 0 or seasonal_q < 0:
            raise ValueError("MA orders must be >= 0")
        self.season_length = int(season_length)
        self.q = int(q)
        self.seasonal_q = int(seasonal_q)
        self.sample_period_s = float(sample_period_s)
        self._theta = np.zeros(self.q)
        self._seasonal_theta = np.zeros(self.seasonal_q)
        self._sigma = 0.0
        self._fitted = False
        # streaming state: the last S+1 level values and recent innovations
        self._levels: deque[float] = deque(maxlen=self.season_length + 1)
        self._eps: deque[float] = deque(
            maxlen=max(self.q, self.seasonal_q * self.season_length, 1)
        )

    # -- estimation -----------------------------------------------------------

    def fit(
        self, values: np.ndarray, timestamps: np.ndarray | None = None
    ) -> "SeasonalArimaModel":
        """Fit MA terms on the doubly differenced window."""
        values = as_float_array(values)
        s = self.season_length
        if values.size < 2 * s + 16:
            raise ValueError(
                f"need >= {2 * s + 16} samples (two seasons), got {values.size}"
            )
        # w(t) = x(t) - x(t-1) - x(t-S) + x(t-S-1)
        x = values
        w = x[s + 1:] - x[s : -1] - x[1 : -s] + x[: -s - 1]

        if self.q == 0 and self.seasonal_q == 0:
            eps = w.copy()
        else:
            eps = self._fit_ma(w)
        self._sigma = float(np.sqrt(np.mean(eps**2)))
        self._fitted = True

        self._levels.clear()
        for value in values[-(s + 1):]:
            self._levels.append(float(value))
        self._eps.clear()
        needed = self._eps.maxlen or 1
        for e in eps[-needed:]:
            self._eps.append(float(e))
        return self

    def _fit_ma(self, w: np.ndarray) -> np.ndarray:
        """Hannan–Rissanen-style MA estimation on the differenced series."""
        s = self.season_length
        long_order = min(max(16, s // 64), w.size // 4)
        rows = w.size - long_order
        design = np.empty((rows, long_order))
        for lag in range(1, long_order + 1):
            design[:, lag - 1] = w[long_order - lag : w.size - lag]
        coeffs, *_ = np.linalg.lstsq(design, w[long_order:], rcond=None)
        eps_hat = np.zeros_like(w)
        eps_hat[long_order:] = w[long_order:] - design @ coeffs

        # regress w on lagged innovation proxies (non-seasonal + seasonal)
        start = max(self.q, self.seasonal_q * s, long_order)
        if start >= w.size - 8:
            # window too short for the seasonal MA term: keep zero thetas
            return eps_hat
        columns = []
        for lag in range(1, self.q + 1):
            columns.append(eps_hat[start - lag : w.size - lag])
        for lag in range(1, self.seasonal_q + 1):
            columns.append(eps_hat[start - lag * s : w.size - lag * s])
        design2 = np.stack(columns, axis=1)
        target = w[start:]
        solution, *_ = np.linalg.lstsq(design2, target, rcond=None)
        self._theta = np.asarray(solution[: self.q])
        self._seasonal_theta = np.asarray(solution[self.q :])
        residual = target - design2 @ solution
        eps = np.zeros_like(w)
        eps[start:] = residual
        return eps

    # -- streaming ---------------------------------------------------------------

    def _require_fit(self) -> None:
        if not self._fitted:
            raise RuntimeError("model not fitted")

    def predict_next(self) -> float:
        """X̂(t) = X(t-1) + X(t-S) - X(t-S-1) + MA corrections."""
        self._require_fit()
        levels = self._levels
        if len(levels) < self.season_length + 1:
            return levels[-1] if levels else 0.0
        x_prev = levels[-1]
        x_season = levels[1]        # x(t-S)
        x_season_prev = levels[0]   # x(t-S-1)
        prediction = x_prev + x_season - x_season_prev
        eps = list(self._eps)[::-1]  # most recent first
        for lag in range(1, self.q + 1):
            if lag - 1 < len(eps):
                prediction += self._theta[lag - 1] * eps[lag - 1]
        for lag in range(1, self.seasonal_q + 1):
            index = lag * self.season_length - 1
            if index < len(eps):
                prediction += self._seasonal_theta[lag - 1] * eps[index]
        return float(prediction)

    def observe(self, value: float) -> None:
        """Record the realised (or substituted) level."""
        self._require_fit()
        innovation = float(value) - self.predict_next()
        self._levels.append(float(value))
        self._eps.append(innovation)

    def forecast(self, steps: int) -> Forecast:
        """Iterated forecast; variance via the integrated random-walk bound."""
        self._require_fit()
        if steps < 1:
            raise ValueError(f"steps must be >= 1, got {steps}")
        saved_levels = list(self._levels)
        saved_eps = list(self._eps)
        mean = np.empty(steps)
        for step in range(steps):
            prediction = self.predict_next()
            mean[step] = prediction
            self._levels.append(prediction)
            self._eps.append(0.0)
        # restore streaming state
        self._levels.clear()
        self._levels.extend(saved_levels)
        self._eps.clear()
        self._eps.extend(saved_eps)
        std = self._sigma * np.sqrt(np.cumsum(np.ones(steps)))
        return Forecast(mean=mean, std=std)

    # -- declared state -----------------------------------------------------------

    def state(self) -> tuple:
        """``(season length, q, Q, period, sigma, fitted, theta, seasonal
        theta, levels, innovations)``."""
        return (
            float(self.season_length),
            float(self.q),
            float(self.seasonal_q),
            self.sample_period_s,
            self._sigma,
            float(self._fitted),
            np.array(self._theta, dtype=np.float64),
            np.array(self._seasonal_theta, dtype=np.float64),
            np.array(self._levels, dtype=np.float64),
            np.array(self._eps, dtype=np.float64),
        )

    @classmethod
    def from_state(cls, state: tuple) -> "SeasonalArimaModel":
        """The seasonal ARIMA model whose :meth:`state` is *state*."""
        season, q, seasonal_q, period, sigma, fitted, theta, seasonal_theta, levels, eps = (
            state
        )
        model = cls(int(season), int(q), int(seasonal_q), float(period))
        model._sigma, model._fitted = float(sigma), bool(fitted)
        model._theta = np.array(theta, dtype=np.float64)
        model._seasonal_theta = np.array(seasonal_theta, dtype=np.float64)
        model._levels.extend(np.asarray(levels, dtype=np.float64).tolist())
        model._eps.extend(np.asarray(eps, dtype=np.float64).tolist())
        return model

    # -- metadata -----------------------------------------------------------------

    def spec(self) -> ModelSpec:
        """Describe the model ("sarima(q,Q,S)")."""
        return ModelSpec(
            family="sarima",
            order=(self.q, self.seasonal_q, self.season_length),
            n_params=self.q + self.seasonal_q + 1,
        )

    @property
    def parameter_bytes(self) -> int:
        """thetas + sigma + season length, 4 bytes each + meta."""
        return 4 * (self.q + self.seasonal_q + 2) + 3

    @property
    def residual_std(self) -> float:
        """Innovation standard deviation."""
        return self._sigma

    @property
    def check_cycles(self) -> float:
        """Four table lookups + (q + Q) MACs + compare."""
        return 30.0 + 20.0 * (self.q + self.seasonal_q)
