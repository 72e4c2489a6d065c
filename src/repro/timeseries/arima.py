"""ARIMA(p, d, q) implemented from scratch (Hannan–Rissanen estimation).

statsmodels is unavailable offline, so the classic two-stage Hannan–Rissanen
procedure is implemented directly on numpy:

1. difference the series ``d`` times;
2. fit a long AR model by least squares and take its residuals as proxies
   for the unobserved innovations;
3. regress the differenced series on ``p`` of its own lags and ``q`` lagged
   residual proxies to obtain the ARMA coefficients.

Forecasting runs the ARMA recursion forward (future innovations = 0) and
integrates the differences back.  Forecast variance uses the psi-weight
expansion.  This covers everything the PRESTO proxy needs: multi-step
extrapolation with confidence, one-step prediction for push checks, and a
compact parameter set to ship to sensors.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.timeseries.ar import fit_ar_ols
from repro.timeseries.base import Forecast, ModelSpec, TimeSeriesModel, as_float_array


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
    if d == 0:
        return np.asarray(forecast_diff, dtype=np.float64).copy()
    if tail_values.shape[0] != d:
        raise ValueError(f"need {d} tail values, got {tail_values.shape[0]}")
    result = np.asarray(forecast_diff, dtype=np.float64)
    for level in range(d - 1, -1, -1):
        result = tail_values[level] + np.cumsum(result)
    return result


class ARIMAModel(TimeSeriesModel):
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
        self._phi = np.zeros(self.p, dtype=np.float64)
        self._theta = np.zeros(self.q, dtype=np.float64)
        self._mu = 0.0
        self._sigma = 0.0
        self._fitted = False
        # streaming state: recent *differenced* values and innovations,
        # plus the tail needed to undifference predictions back to levels
        self._recent_w: deque[float] = deque(maxlen=max(self.p, 1))
        self._recent_eps: deque[float] = deque(maxlen=max(self.q, 1))
        self._level_tail: deque[float] = deque(maxlen=max(self.d, 1))

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

        self._fitted = True
        self._reset_streaming_state(values, centred, residuals)
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

    def _reset_streaming_state(
        self, values: np.ndarray, centred: np.ndarray, residuals: np.ndarray
    ) -> None:
        self._recent_w.clear()
        for v in centred[-max(self.p, 1):]:
            self._recent_w.append(float(v))
        self._recent_eps.clear()
        for e in residuals[-max(self.q, 1):]:
            self._recent_eps.append(float(e))
        self._level_tail.clear()
        # last value of each difference order 0..d-1 (level, first diff, ...)
        series = values
        for _ in range(self.d):
            self._level_tail.append(float(series[-1]))
            series = np.diff(series)

    # -- prediction ------------------------------------------------------------

    def _require_fit(self) -> None:
        if not self._fitted:
            raise RuntimeError("model not fitted")

    def _one_step_centred(self) -> float:
        """Prediction of the next centred differenced value.

        Lag 1 first, AR terms before MA terms, summed on Python floats:
        the same products and sums — so the same bits — as on the numpy
        scalars the state holds.
        """
        w, eps = self._recent_w, self._recent_eps   # lag i is [-1 - i]
        one_step = 0.0
        for i, coefficient in enumerate(self._phi.tolist()):
            one_step += coefficient * w[-1 - i]
        if self.q:
            for j, coefficient in enumerate(self._theta.tolist()):
                one_step += coefficient * float(eps[-1 - j])
        return one_step

    def _level_of(self, one_step: float, tails: list[float]) -> float:
        """Integrate a one-step centred prediction back to a level."""
        prediction = one_step + self._mu
        for level in range(self.d - 1, -1, -1):
            prediction = tails[level] + prediction
        return prediction

    def _advance(self, value: float, one_step: float, tails: list[float]) -> None:
        """Fold the level *value* into the streaming state.

        *one_step* and *tails* are read before the state moves: the
        innovation is measured against the one-step prediction, and the
        level is differenced down against the old tails.  The innovation is
        held as an ``np.float64``, the type the replica-sync payload pins.
        """
        current = value
        new_tails: list[float] = []
        for level in range(self.d):
            new_tails.append(current)
            current = current - tails[level]
        w_actual = current - self._mu
        self._recent_w.append(w_actual)
        self._recent_eps.append(np.float64(w_actual - one_step))
        if self.d:
            self._level_tail.clear()
            self._level_tail.extend(new_tails)

    def predict_next(self) -> float:
        """One-step-ahead prediction in original (level) units."""
        self._require_fit()
        return self._level_of(self._one_step_centred(), list(self._level_tail))

    def observe(self, value: float) -> None:
        """Advance streaming state with the realised level value."""
        self._require_fit()
        self._advance(float(value), self._one_step_centred(), list(self._level_tail))

    def step(self, value: float | None, delta: float) -> tuple[float, bool]:
        """One protocol epoch: :meth:`predict_next`, decide, :meth:`observe`.

        The two halves fused on Python floats, with the one-step term and
        the tails computed once.  The streaming state is pickled into every
        replica-sync payload, so the float types held by the deques are
        part of the contract (see :meth:`_advance`).
        """
        if not self._fitted:
            raise RuntimeError("model not fitted")
        w, eps, tail = self._recent_w, self._recent_eps, self._level_tail
        one_step = 0.0
        for i, coefficient in enumerate(self._phi.tolist()):
            one_step += coefficient * w[-1 - i]
        if self.q:
            for j, coefficient in enumerate(self._theta.tolist()):
                one_step += coefficient * float(eps[-1 - j])
        mu = self._mu
        predicted = one_step + mu
        tails = list(tail)
        for level in range(self.d - 1, -1, -1):
            predicted = tails[level] + predicted
        pushed = value is not None and abs(value - predicted) > delta
        current = float(value) if pushed else predicted
        if tails:
            tail.clear()
            for old in tails:
                tail.append(current)
                current = current - old
        w_actual = current - mu
        w.append(w_actual)
        eps.append(np.float64(w_actual - one_step))
        return predicted, bool(pushed)

    def forecast(self, steps: int) -> Forecast:
        """Multi-step forecast in level units with psi-weight variance."""
        self._require_fit()
        if steps < 1:
            raise ValueError(f"steps must be >= 1, got {steps}")
        # Most recent last, as the streaming state holds them: lag i is
        # [-1 - i], and each step appends its prediction.
        w_hist = list(self._recent_w)
        eps_hist = list(self._recent_eps)
        p, q, phi, theta = self.p, self.q, self._phi, self._theta
        w_forecast = np.empty(steps, dtype=np.float64)
        for step in range(steps):
            prediction = 0.0
            for i in range(p):
                if i < len(w_hist):
                    prediction += phi[i] * w_hist[-1 - i]
            for j in range(q):
                if j < len(eps_hist):
                    prediction += theta[j] * eps_hist[-1 - j]
            w_forecast[step] = prediction
            w_hist.append(prediction)
            eps_hist.append(0.0)  # future innovations have zero mean
        w_forecast = w_forecast + self._mu
        tails = np.asarray(list(self._level_tail), dtype=np.float64)
        mean = undifference(w_forecast, tails, self.d)

        psi = self._psi_weights(steps)
        if self.d == 0:
            cumulative = np.cumsum(psi**2)
        else:
            # integrated psi weights: cumulative sums per differencing round
            integrated = psi.copy()
            for _ in range(self.d):
                integrated = np.cumsum(integrated)
            cumulative = np.cumsum(integrated**2)
        std = self._sigma * np.sqrt(cumulative)
        return Forecast(mean=mean, std=std)

    def _psi_weights(self, count: int) -> np.ndarray:
        """psi_0..psi_{count-1} of the ARMA part."""
        psi = np.zeros(count, dtype=np.float64)
        psi[0] = 1.0
        for j in range(1, count):
            value = self._theta[j - 1] if j - 1 < self.q else 0.0
            for i in range(1, min(j, self.p) + 1):
                value += self._phi[i - 1] * psi[j - i]
            psi[j] = value
        return psi

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
    def residual_std(self) -> float:
        """Innovation standard deviation (differenced domain)."""
        return self._sigma

    @property
    def check_cycles(self) -> float:
        """(p + q) multiply-accumulates + differencing + compare."""
        return 20.0 * (self.p + self.q) + 10.0 * self.d + 20.0
