"""ARIMA(p, d, q) implemented from scratch (Hannan–Rissanen estimation).

statsmodels is unavailable offline, so the classic two-stage Hannan–Rissanen
procedure is implemented directly on numpy:

1. difference the series ``d`` times;
2. fit a long AR model by least squares and take its residuals as proxies
   for the unobserved innovations;
3. regress the differenced series on ``p`` of its own lags and ``q`` lagged
   residual proxies to obtain the ARMA coefficients.

The fitted model is a :class:`~repro.timeseries.linear.LinearRecursion`
with ``d`` differencing factors ``(1 - B)``: it streams the one-step
check, forecasts with psi-weight variance and declares its state there.
"""

from __future__ import annotations

import numpy as np

from repro.timeseries.ar import fit_ar_ols
from repro.timeseries.base import ModelSpec, as_float_array
from repro.timeseries.linear import LinearRecursion, integrate


def difference(values: np.ndarray, d: int) -> np.ndarray:
    """Apply ``d`` rounds of first differencing."""
    values = np.asarray(values, dtype=np.float64)
    for _ in range(d):
        values = np.diff(values)
    return values


def undifference(
    forecast_diff: np.ndarray, tail_values: np.ndarray, d: int
) -> np.ndarray:
    """Integrate a forecast of the ``d``-times differenced series.

    ``tail_values`` are the last ``d`` levels of the *original* series (or
    enough of its partial differences) — concretely the last value of each
    difference order 0..d-1, oldest order first.
    """
    if d and tail_values.shape[0] != d:
        raise ValueError(f"need {d} tail values, got {tail_values.shape[0]}")
    result = np.array(forecast_diff, dtype=np.float64)
    for level in range(d - 1, -1, -1):
        result = integrate(result, 1, tail_values[level : level + 1])
    return result


class ARIMAModel(LinearRecursion):
    """ARIMA(p, d, q) via Hannan–Rissanen, with streaming one-step state."""

    def __init__(
        self,
        order: tuple[int, int, int] = (2, 0, 1),
        sample_period_s: float = 30.0,
        long_ar_order: int | None = None,
    ) -> None:
        p, d, q = order
        if p < 0 or d < 0 or q < 0 or (p == 0 and q == 0):
            raise ValueError(f"invalid ARIMA order {order!r}")
        if d > 2:
            raise ValueError(f"d > 2 is not supported (got {d})")
        self.p, self.d, self.q = int(p), int(d), int(q)
        self.sample_period_s = float(sample_period_s)
        self._long_ar_order = long_ar_order
        super().__init__(self.p, tuple(range(1, self.q + 1)), (1,) * self.d)

    # -- estimation ----------------------------------------------------------

    def fit(self, values: np.ndarray, timestamps: np.ndarray | None = None) -> "ARIMAModel":
        """Fit by Hannan–Rissanen on evenly spaced *values*."""
        values = as_float_array(values)
        w = difference(values, self.d)
        min_needed = max(self.p, self.q) + self.q + self.p + 8
        if w.size < min_needed:
            raise ValueError(
                f"need at least {min_needed} differenced samples, got {w.size}"
            )
        self._mu = float(w.mean())
        centred = w - self._mu

        if self.q == 0:
            phi, _, variance = fit_ar_ols(centred + self._mu, self.p) if self.p else (
                np.zeros(0), 0.0, float(np.var(centred)))
            self._phi = np.asarray(phi, dtype=np.float64)
            self._theta = np.zeros(0, dtype=np.float64)
        else:
            long_order = self._long_ar_order or max(
                2 * (self.p + self.q), int(np.floor(np.log(w.size) ** 2))
            )
            long_order = min(long_order, w.size // 3)
            long_order = max(long_order, self.p + self.q)
            eps_hat = self._long_ar_residuals(centred, long_order)
            self._stage2_regression(centred, eps_hat, long_order)
        residuals = self._in_sample_residuals(centred)
        self._sigma = float(np.sqrt(np.mean(residuals**2)))
        self._start(values, centred, residuals)
        return self

    def _long_ar_residuals(self, centred: np.ndarray, long_order: int) -> np.ndarray:
        """Stage 1: residuals of a long AR fit (innovation proxies)."""
        rows = centred.size - long_order
        design = np.empty((rows, long_order), dtype=np.float64)
        for lag in range(1, long_order + 1):
            design[:, lag - 1] = centred[long_order - lag : centred.size - lag]
        target = centred[long_order:]
        coeffs, *_ = np.linalg.lstsq(design, target, rcond=None)
        eps = np.zeros_like(centred)
        eps[long_order:] = target - design @ coeffs
        return eps

    def _stage2_regression(
        self, centred: np.ndarray, eps_hat: np.ndarray, long_order: int
    ) -> None:
        """Stage 2: joint OLS on p AR lags and q innovation lags."""
        start = max(self.p, self.q, long_order)
        rows = centred.size - start
        design = np.empty((rows, self.p + self.q), dtype=np.float64)
        for lag in range(1, self.p + 1):
            design[:, lag - 1] = centred[start - lag : centred.size - lag]
        for lag in range(1, self.q + 1):
            design[:, self.p + lag - 1] = eps_hat[start - lag : eps_hat.size - lag]
        target = centred[start:]
        solution, *_ = np.linalg.lstsq(design, target, rcond=None)
        self._phi = np.asarray(solution[: self.p], dtype=np.float64)
        self._theta = np.asarray(solution[self.p :], dtype=np.float64)

    def _in_sample_residuals(self, centred: np.ndarray) -> np.ndarray:
        """Filter the series through the fitted ARMA to recover residuals.

        Each residual sums the same terms in the same order as a scalar
        loop — AR lags 1..p, then MA lags 1..q, each over the lags that
        exist — so it has the same bits: the AR terms add up in whole-array
        passes, the MA recursion runs on Python floats.
        """
        prediction = np.zeros_like(centred)
        for lag, coefficient in enumerate(self._phi, start=1):
            prediction[lag:] += coefficient * centred[:-lag]
        if not self.q:
            return centred - prediction
        theta = self._theta.tolist()
        partial, series = prediction.tolist(), centred.tolist()
        eps = [0.0] * len(series)
        for t, value in enumerate(series):
            total = partial[t]
            for j in range(1, min(self.q, t) + 1):
                total += theta[j - 1] * eps[t - j]
            eps[t] = value - total
        return np.array(eps)

    # -- declared state ---------------------------------------------------------

    def _state_header(self) -> tuple:
        """``(p, d, q, period, long AR order)``; a long AR order of 0 means
        the default."""
        p, d, q, long_order = self.p, self.d, self.q, self._long_ar_order or 0
        return (float(p), float(d), float(q), self.sample_period_s, float(long_order))

    @classmethod
    def _from_header(cls, header: tuple) -> "ARIMAModel":
        p, d, q, period, long_order = header
        return cls((int(p), int(d), int(q)), float(period), int(long_order) or None)

    # -- metadata ---------------------------------------------------------------

    def spec(self) -> ModelSpec:
        """Describe the model ("arima(p,d,q)")."""
        return ModelSpec(
            family="arima",
            order=(self.p, self.d, self.q),
            n_params=self.p + self.q + 2,
        )

    @property
    def parameter_bytes(self) -> int:
        """phi + theta + mu + sigma at 4 bytes each, plus 3 meta bytes."""
        return 4 * (self.p + self.q + 2) + 3

    @property
    def check_cycles(self) -> float:
        """(p + q) multiply-accumulates + differencing + compare."""
        return 20.0 * (self.p + self.q) + 10.0 * self.d + 20.0
