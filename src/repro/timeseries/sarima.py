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
:mod:`repro.timeseries.arima` (long-AR residual proxies, then OLS).  The
fitted model is a :class:`~repro.timeseries.linear.LinearRecursion` with
MA lags ``1..q`` and ``S, 2S, .., QS`` and the factors ``(1 - B)`` and
``(1 - B^S)``; its forecast variance comes from those psi weights.
"""

from __future__ import annotations

import numpy as np

from repro.timeseries.base import ModelSpec, as_float_array
from repro.timeseries.linear import LinearRecursion


def daily_season(sample_period_s: float) -> int:
    """Samples per day at *sample_period_s*: the season a deployment uses."""
    return max(int(round(86_400.0 / sample_period_s)), 2)


def two_season_minimum(season_length: int) -> int:
    """The fewest samples a fit accepts: two seasons and 16 more."""
    return 2 * season_length + 16


class SeasonalArimaModel(LinearRecursion):
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
        if q >= season_length:
            raise ValueError(f"q = {q} reaches the seasonal MA lag {season_length}")
        self.season_length = int(season_length)
        self.q = int(q)
        self.seasonal_q = int(seasonal_q)
        self.sample_period_s = float(sample_period_s)
        s = self.season_length
        seasonal_lags = range(s, self.seasonal_q * s + 1, s)
        super().__init__(0, (*range(1, self.q + 1), *seasonal_lags), (1, s))

    # -- estimation -----------------------------------------------------------

    def fit(
        self, values: np.ndarray, timestamps: np.ndarray | None = None
    ) -> "SeasonalArimaModel":
        """Fit MA terms on the doubly differenced window."""
        values = as_float_array(values)
        s = self.season_length
        if values.size < two_season_minimum(s):
            raise ValueError(
                f"need >= {two_season_minimum(s)} samples (two seasons), got {values.size}"
            )
        # w(t) = x(t) - x(t-1) - x(t-S) + x(t-S-1)
        w = values[s + 1 :] - values[s:-1] - values[1:-s] + values[: -s - 1]
        eps = self._fit_ma(w) if self._theta.size else w
        self._sigma = float(np.sqrt(np.mean(eps**2)))
        self._start(values, w, eps)
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
        self._theta = np.asarray(solution, dtype=np.float64)
        residual = target - design2 @ solution
        eps = np.zeros_like(w)
        eps[start:] = residual
        return eps

    # -- declared state -----------------------------------------------------------

    def _state_header(self) -> tuple:
        """``(season length, q, Q, period)``."""
        return (float(self.season_length), float(self.q), float(self.seasonal_q),
                self.sample_period_s)

    @classmethod
    def _from_header(cls, header: tuple) -> "SeasonalArimaModel":
        season, q, seasonal_q, period = header
        return cls(int(season), int(q), int(seasonal_q), float(period))

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
    def check_cycles(self) -> float:
        """Four table lookups + (q + Q) MACs + compare."""
        return 30.0 + 20.0 * (self.q + self.seasonal_q)
