"""``ARIMAModel`` with ``step`` beside its own ``predict_next`` / ``observe``.

Bit-for-bit the ARIMA model from before ``predict_next`` and ``observe``
were rebuilt as the two halves of ``step``: each of the three methods
spells out its own one-step, integration and differencing arithmetic, and
``observe`` still builds its write-only ``diffs`` list.  The class is
copied verbatim; only its module differs.  ``test_model_step.py`` holds
:class:`repro.timeseries.arima.ARIMAModel` to it: the same predictions and
push flags, and the same pickled state bytes after every epoch.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.timeseries.ar import fit_ar_ols
from repro.timeseries.arima import difference, undifference
from repro.timeseries.base import Forecast, ModelSpec, TimeSeriesModel, as_float_array


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
        """Filter the series through the fitted ARMA to recover residuals."""
        eps = np.zeros_like(centred)
        for t in range(centred.size):
            prediction = 0.0
            for i in range(1, min(self.p, t) + 1):
                prediction += self._phi[i - 1] * centred[t - i]
            for j in range(1, min(self.q, t) + 1):
                prediction += self._theta[j - 1] * eps[t - j]
            eps[t] = centred[t] - prediction
        return eps

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
        """Prediction of the next centred differenced value."""
        w = self._recent_w   # most recent last: lag i is w[-1 - i]
        eps = self._recent_eps
        prediction = 0.0
        for i in range(min(self.p, len(w))):
            prediction += self._phi[i] * w[-1 - i]
        for j in range(min(self.q, len(eps))):
            prediction += self._theta[j] * eps[-1 - j]
        return prediction

    def predict_next(self) -> float:
        """One-step-ahead prediction in original (level) units."""
        self._require_fit()
        w_next = self._one_step_centred() + self._mu
        if self.d == 0:
            return float(w_next)
        # integrate: new level = last level + ... + predicted difference
        tails = list(self._level_tail)
        prediction = w_next
        for level in range(self.d - 1, -1, -1):
            prediction = tails[level] + prediction
        return float(prediction)

    def observe(self, value: float) -> None:
        """Advance streaming state with the realised level value."""
        self._require_fit()
        value = float(value)
        # convert the level into the d-times differenced domain
        tails = list(self._level_tail)
        diffs: list[float] = []
        current = value
        for level in range(self.d):
            diff = current - tails[level]
            diffs.append(current)
            current = diff
        w_actual = current - self._mu
        innovation = w_actual - self._one_step_centred()
        self._recent_w.append(w_actual)
        self._recent_eps.append(innovation)
        if self.d:
            # update level tails: new level, new first difference, ...
            new_tails: list[float] = []
            running = value
            for level in range(self.d):
                new_tails.append(running)
                running = running - tails[level]
            self._level_tail.clear()
            self._level_tail.extend(new_tails)

    def step(self, value: float | None, delta: float) -> tuple[float, bool]:
        """One protocol epoch with the one-step term computed once.

        Same arithmetic, operand types and resulting state as
        :meth:`predict_next` followed by :meth:`observe`: the streaming
        state is pickled into every replica-sync payload, so even the float
        types held by the deques must not change.
        """
        self._require_fit()
        one_step = self._one_step_centred()
        tails = list(self._level_tail)
        prediction = one_step + self._mu
        for level in range(self.d - 1, -1, -1):
            prediction = tails[level] + prediction
        predicted = float(prediction)
        pushed = value is not None and bool(abs(value - predicted) > delta)
        # difference the observed level down to the centred ARMA domain,
        # collecting the new level tails (level, first difference, ...)
        current = float(value) if pushed else predicted
        new_tails: list[float] = []
        for level in range(self.d):
            new_tails.append(current)
            current = current - tails[level]
        w_actual = current - self._mu
        self._recent_w.append(w_actual)
        self._recent_eps.append(w_actual - one_step)
        if self.d:
            self._level_tail.clear()
            self._level_tail.extend(new_tails)
        return predicted, pushed

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
