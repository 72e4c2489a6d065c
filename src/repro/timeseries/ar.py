"""Autoregressive models fitted by Yule–Walker or ordinary least squares.

AR(p) is the workhorse "time-series analysis technique" of Section 3: the
proxy fits the coefficients, ships ``p`` floats to the sensor, and both
sides run the same ``p``-tap inner product per reading — cheap enough to
satisfy the paper's asymmetry requirement.
"""

from __future__ import annotations

from collections import deque

import numpy as np
from scipy.linalg import solve_toeplitz

from repro.timeseries.base import (
    Forecast,
    ModelSpec,
    TimeSeriesModel,
    as_float_array,
)


def autocovariance(values: np.ndarray, max_lag: int) -> np.ndarray:
    """Biased sample autocovariances ``gamma_0 .. gamma_max_lag``."""
    values = as_float_array(values)
    n = values.size
    if max_lag >= n:
        raise ValueError(f"max_lag {max_lag} >= series length {n}")
    centred = values - values.mean()
    gamma = np.empty(max_lag + 1, dtype=np.float64)
    for lag in range(max_lag + 1):
        gamma[lag] = np.dot(centred[: n - lag], centred[lag:]) / n
    return gamma


def fit_ar_yule_walker(values: np.ndarray, order: int) -> tuple[np.ndarray, float]:
    """Solve the Yule–Walker equations for AR(*order*).

    Returns ``(coefficients, innovation_variance)``.  Uses the Levinson-type
    Toeplitz solver from scipy for numerical stability.
    """
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    gamma = autocovariance(values, order)
    if gamma[0] <= 0:
        # Constant series: no dynamics to fit.
        return np.zeros(order, dtype=np.float64), 0.0
    coeffs = solve_toeplitz(gamma[:order], gamma[1 : order + 1])
    variance = float(gamma[0] - np.dot(coeffs, gamma[1 : order + 1]))
    return np.asarray(coeffs, dtype=np.float64), max(variance, 0.0)


def fit_ar_ols(values: np.ndarray, order: int) -> tuple[np.ndarray, float, float]:
    """Least-squares AR fit with intercept.

    Returns ``(coefficients, intercept, residual_variance)``.  Preferred
    for short windows where Yule–Walker bias matters.
    """
    values = as_float_array(values)
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    if values.size <= order + 1:
        raise ValueError(
            f"need more than {order + 1} samples to fit AR({order}), got {values.size}"
        )
    rows = values.size - order
    design = np.empty((rows, order + 1), dtype=np.float64)
    design[:, 0] = 1.0
    for lag in range(1, order + 1):
        design[:, lag] = values[order - lag : values.size - lag]
    target = values[order:]
    solution, *_ = np.linalg.lstsq(design, target, rcond=None)
    intercept = float(solution[0])
    coeffs = solution[1:]
    residuals = target - design @ solution
    variance = float(np.mean(residuals**2))
    return np.asarray(coeffs, dtype=np.float64), intercept, variance


class ARModel(TimeSeriesModel):
    """AR(p) model with a mean term.

    ``x_t - mu = sum_i phi_i (x_{t-i} - mu) + eps_t``.

    The one-step loop keeps the last ``p`` observed (or substituted) values
    in a deque — this is exactly the state a PRESTO sensor maintains.
    """

    def __init__(
        self,
        order: int = 2,
        sample_period_s: float = 30.0,
        method: str = "yule-walker",
    ) -> None:
        if order < 1:
            raise ValueError(f"order must be >= 1, got {order}")
        if method not in ("yule-walker", "ols"):
            raise ValueError(f"unknown fit method {method!r}")
        self.order = int(order)
        self.sample_period_s = float(sample_period_s)
        self.method = method
        self._phi: np.ndarray | None = None
        self._mu: float = 0.0
        self._sigma: float = 0.0
        self._history: deque[float] = deque(maxlen=order)

    def fit(self, values: np.ndarray, timestamps: np.ndarray | None = None) -> "ARModel":
        """Fit coefficients on *values*; timestamps are ignored (even spacing)."""
        values = as_float_array(values)
        if values.size <= self.order + 1:
            raise ValueError(
                f"need more than {self.order + 1} samples, got {values.size}"
            )
        self._mu = float(values.mean())
        if self.method == "yule-walker":
            phi, variance = fit_ar_yule_walker(values, self.order)
            self._phi = phi
            self._sigma = float(np.sqrt(variance))
        else:
            phi, intercept, variance = fit_ar_ols(values, self.order)
            self._phi = phi
            denom = 1.0 - float(np.sum(phi))
            self._mu = intercept / denom if abs(denom) > 1e-9 else float(values.mean())
            self._sigma = float(np.sqrt(variance))
        self._history = deque(
            (float(v) for v in values[-self.order :]), maxlen=self.order
        )
        return self

    def _require_fit(self) -> np.ndarray:
        if self._phi is None:
            raise RuntimeError("model not fitted")
        return self._phi

    def predict_next(self) -> float:
        """One-step prediction from the rolling history."""
        phi = self._require_fit()
        history = list(self._history)
        if len(history) < self.order:
            return self._mu
        centred = np.asarray(history[::-1], dtype=np.float64) - self._mu
        return float(self._mu + np.dot(phi, centred))

    def observe(self, value: float) -> None:
        """Append the realised (or substituted) value to the history."""
        self._history.append(float(value))

    def forecast(self, steps: int) -> Forecast:
        """Iterated multi-step forecast with cumulative error growth.

        Forecast variance uses the standard psi-weight recursion for AR
        processes: ``var_h = sigma^2 * sum_{j<h} psi_j^2``.
        """
        phi = self._require_fit()
        if steps < 1:
            raise ValueError(f"steps must be >= 1, got {steps}")
        history = list(self._history)[::-1]  # most recent first
        centred = [h - self._mu for h in history]
        mean = np.empty(steps, dtype=np.float64)
        for step in range(steps):
            lagged = np.asarray(centred[: self.order][: self.order], dtype=np.float64)
            if lagged.size < self.order:
                lagged = np.concatenate(
                    [lagged, np.zeros(self.order - lagged.size)]
                )
            prediction = float(np.dot(phi, lagged))
            mean[step] = self._mu + prediction
            centred.insert(0, prediction)
        psi = self._psi_weights(steps)
        cumulative = np.cumsum(psi**2)
        std = self._sigma * np.sqrt(cumulative)
        return Forecast(mean=mean, std=std)

    def _psi_weights(self, count: int) -> np.ndarray:
        """MA(inf) weights psi_0..psi_{count-1} from the AR recursion."""
        phi = self._require_fit()
        psi = np.zeros(count, dtype=np.float64)
        psi[0] = 1.0
        for j in range(1, count):
            upto = min(j, self.order)
            psi[j] = float(np.dot(phi[:upto], psi[j - 1 :: -1][:upto]))
        return psi

    def spec(self) -> ModelSpec:
        """Describe the model ("ar(p)")."""
        return ModelSpec(family="ar", order=(self.order,), n_params=self.order + 2)

    @property
    def parameter_bytes(self) -> int:
        """p coefficients + mean + sigma at 4 bytes each, plus 2 meta bytes."""
        return 4 * (self.order + 2) + 2

    @property
    def residual_std(self) -> float:
        """Innovation standard deviation."""
        return self._sigma

    @property
    def check_cycles(self) -> float:
        """p multiply-accumulates + compare; ~20 cycles per tap."""
        return 20.0 * self.order + 20.0
