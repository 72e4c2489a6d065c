"""The one linear recursion behind the AR, ARIMA and seasonal ARIMA models.

Each of the three is an ARMA model of a differenced series,

    phi(B) (w_t - mu) = theta(B) eps_t,    w = prod_k (1 - B^s_k) x,

with AR coefficients on lags ``1..p``, MA coefficients on a (possibly
sparse) increasing set of lags, and the differencing polynomial a product
of ``(1 - B^s)`` factors: AR(p) has none, ARIMA(p, d, q) has ``d``
factors ``s = 1``, and the seasonal ARIMA the factors ``s = 1`` and
``s = S``.  Each factor is undone from its own tail — the last ``s``
values of the series it differences — so the one-step check a sensor runs
reads nothing but those tails and the recent ``w`` and ``eps``.

:class:`LinearRecursion` holds the coefficients and that streaming state
and runs everything after the fit: the fused protocol ``step`` and its two
halves, the non-mutating multi-step ``forecast``, the psi weights of its
variance, and the declared ``state``.  A family supplies ``fit``, its
metadata and its state header.

:class:`LinearBatch` is the same one-step loop over many models of one
shape at once: their streaming states are rows of matrices, and each
column operation runs the scalar code's float operations in the scalar
code's order, so every row steps bit for bit as its model would.
"""

from __future__ import annotations

import abc
from collections import deque

import numpy as np

from repro.timeseries.base import Forecast, TimeSeriesModel


def integrate(series: np.ndarray, s: int, tail: np.ndarray | None = None) -> np.ndarray:
    """Undo one ``(1 - B^s)`` factor: ``y_h = series_h + y_(h-s)``.

    *tail* holds the ``s`` values of ``y`` before the first step, oldest
    first (zeros when omitted).  Each phase of the season accumulates in
    one sequential ``cumsum``, so ``s = 1`` is ``tail + cumsum(series)``.
    """
    rows = -(-series.size // s)
    padded = np.zeros(rows * s)
    padded[: series.size] = series
    summed = np.cumsum(padded.reshape(rows, s), axis=0)
    if tail is not None:
        summed = tail + summed
    return summed.ravel()[: series.size]


class LinearRecursion(TimeSeriesModel):
    """``phi(B) (w - mu) = theta(B) eps`` on ``w = prod (1 - B^s) x``, streamed.

    Subclasses set ``_phi``, ``_theta``, ``_mu`` and ``_sigma`` in ``fit``
    and finish it with :meth:`_start`.
    """

    def __init__(self, p: int, ma_lags: tuple[int, ...], factors: tuple[int, ...]) -> None:
        self._phi = np.zeros(p)
        self._theta = np.zeros(len(ma_lags))
        self._ma_lags, self._factors = ma_lags, factors
        self._mu, self._sigma, self._fitted = 0.0, 0.0, False
        # streaming state, newest last: centred w, innovations, factor tails
        self._w: deque[float] = deque(maxlen=max(p, 1))
        self._eps: deque[float] = deque(maxlen=max((*ma_lags, 1)))
        self._tails: list[deque[float]] = [deque(maxlen=s) for s in factors]

    def _start(self, levels: np.ndarray, centred: np.ndarray, residuals: np.ndarray) -> None:
        """Mark the model fitted, its state the end of a training window:
        the *levels*, their differenced and centred values, and the
        in-sample innovations (zeros stand in for any the window lacks)."""
        self._fitted = True
        self._w.clear()
        self._w.extend(centred[-max(self._phi.size, 1) :].tolist())
        memory = self._eps.maxlen or 1
        eps = residuals[-memory:].tolist()
        self._eps.clear()
        self._eps.extend([0.0] * (memory - len(eps)) + eps)
        series = levels
        for s, tail in zip(self._factors, self._tails):
            tail.clear()
            tail.extend(series[-s:].tolist())
            series = series[s:] - series[:-s]

    def _require_fit(self) -> None:
        if not self._fitted:
            raise RuntimeError("model not fitted")

    # -- the one-step loop ------------------------------------------------------

    def _predict(self) -> tuple[float, float]:
        """The one-step prediction of centred ``w``, and of the level.

        AR lags 1..p, then the MA lags, summed on Python floats; then each
        factor adds back its value from ``s`` epochs ago, the last first.
        """
        w, eps = self._w, self._eps
        one_step = 0.0
        for i, coefficient in enumerate(self._phi.tolist()):
            one_step += coefficient * w[-1 - i]
        for lag, coefficient in zip(self._ma_lags, self._theta.tolist()):
            one_step += coefficient * eps[-lag]
        level = one_step + self._mu
        for tail in reversed(self._tails):
            level = tail[0] + level
        return one_step, level

    def _advance(self, level: float, one_step: float) -> None:
        """Fold the observed *level* in: difference it down through each
        factor's tail, then record ``w`` and its innovation."""
        for tail in self._tails:
            previous = tail[0]
            tail.append(level)
            level = level - previous
        w = level - self._mu
        self._w.append(w)
        self._eps.append(w - one_step)

    def predict_next(self) -> float:
        """One-step-ahead prediction in level units."""
        self._require_fit()
        return self._predict()[1]

    def observe(self, value: float) -> None:
        """Advance the streaming state with the realised level *value*."""
        self._require_fit()
        self._advance(float(value), self._predict()[0])

    def step(self, value: float | None, delta: float) -> tuple[float, bool]:
        """One protocol epoch — predict, decide, observe — on one prediction."""
        self._require_fit()
        one_step, predicted = self._predict()
        observed, pushed = predicted, False
        if value is not None and abs(value - predicted) > delta:
            observed, pushed = float(value), True
        self._advance(observed, one_step)
        return predicted, pushed

    # -- forecasting --------------------------------------------------------------

    def forecast(self, steps: int) -> Forecast:
        """The recursion run *steps* epochs on with zero future innovations,
        integrated through the factors; the state is left as it was."""
        self._require_fit()
        if steps < 1:
            raise ValueError(f"steps must be >= 1, got {steps}")
        w, eps = list(self._w), list(self._eps)
        phi, theta = self._phi.tolist(), self._theta.tolist()
        w_forecast = np.empty(steps)
        for step in range(steps):
            prediction = 0.0
            for i, coefficient in enumerate(phi):
                prediction += coefficient * w[-1 - i]
            for lag, coefficient in zip(self._ma_lags, theta):
                prediction += coefficient * eps[-lag]
            w_forecast[step] = prediction
            w.append(prediction)
            eps.append(0.0)
        mean = w_forecast + self._mu
        for s, tail in zip(reversed(self._factors), reversed(self._tails)):
            mean = integrate(mean, s, np.array(tail))
        std = self._sigma * np.sqrt(np.cumsum(self._psi_weights(steps) ** 2))
        return Forecast(mean=mean, std=std)

    def _psi_weights(self, count: int) -> np.ndarray:
        """psi_0..psi_(count-1) of ``theta(B) / (phi(B) prod (1 - B^s))``:
        the ARMA recursion, then each factor integrated in."""
        phi = self._phi
        ma = np.zeros(count)
        for lag, coefficient in zip(self._ma_lags, self._theta):
            if lag < count:
                ma[lag] = coefficient
        psi = np.zeros(count)
        psi[0] = 1.0
        for j in range(1, count):
            value = ma[j]
            for i in range(1, min(j, phi.size) + 1):
                value += phi[i - 1] * psi[j - i]
            psi[j] = value
        for s in self._factors:
            psi = integrate(psi, s)
        return psi

    # -- declared state -------------------------------------------------------------

    @abc.abstractmethod
    def _state_header(self) -> tuple:
        """The family's constructor arguments, as floats."""

    @classmethod
    @abc.abstractmethod
    def _from_header(cls, header: tuple) -> LinearRecursion:
        """The unfitted model :meth:`_state_header` describes."""

    def state(self) -> tuple:
        """The family's header, then ``(mu, sigma, fitted, phi, theta, w,
        eps, factor tails)``."""
        tails = [level for tail in self._tails for level in tail]
        arrays = (self._phi, self._theta, self._w, self._eps, tails)
        return (
            *self._state_header(),
            self._mu,
            self._sigma,
            float(self._fitted),
            *(np.array(values, dtype=np.float64) for values in arrays),
        )

    @classmethod
    def from_state(cls, state: tuple) -> LinearRecursion:
        """The model whose :meth:`state` is *state*."""
        *header, mu, sigma, fitted, phi, theta, w, eps, tails = state
        model = cls._from_header(tuple(header))
        model._mu, model._sigma, model._fitted = float(mu), float(sigma), bool(fitted)
        model._phi = np.array(phi, dtype=np.float64)
        model._theta = np.array(theta, dtype=np.float64)
        model._w.extend(np.asarray(w, dtype=np.float64).tolist())
        model._eps.extend(np.asarray(eps, dtype=np.float64).tolist())
        levels = np.asarray(tails, dtype=np.float64).tolist()
        for s, tail in zip(model._factors, model._tails):
            tail.extend(levels[:s])
            levels = levels[s:]
        return model

    @property
    def residual_std(self) -> float:
        """Innovation standard deviation (in the differenced domain)."""
        return self._sigma


def batch_shape(model: TimeSeriesModel) -> tuple | None:
    """The :class:`LinearBatch` shape *model* steps in, or None when it has
    no batched form (another family, or a streaming state not yet full)."""
    if not isinstance(model, LinearRecursion) or not model._fitted:
        return None
    deques = (model._w, model._eps, *model._tails)
    if any(len(values) != values.maxlen for values in deques):
        return None
    return model._phi.size, model._ma_lags, model._factors


class LinearBatch:
    """The one-step loop of many :class:`LinearRecursion` models of one
    shape — AR order, MA lags, differencing factors — stepped together.

    Row *i* holds one model's coefficients and streaming state.  Each
    history (centred ``w``, innovations, each factor's tail) is a ring of
    columns: every row steps on every call, so one head per ring serves
    all rows, and a column read replaces the deque index of the scalar
    code.  Rows are added and removed freely; removal moves the last row
    into the gap.
    """

    def __init__(self, shape: tuple) -> None:
        p, ma_lags, factors = shape
        self.shape = shape
        self.size = 0
        self._p, self._ma_lags, self._factors = p, ma_lags, factors
        self._lengths = (max(p, 1), max((*ma_lags, 1)), *factors)
        self._heads = [0] * len(self._lengths)
        self._phi = np.zeros((0, p))
        self._theta = np.zeros((0, len(ma_lags)))
        self._mu = np.zeros(0)
        self._rings = [np.zeros((0, length)) for length in self._lengths]

    def _grow(self) -> None:
        capacity = max(2 * self._mu.size, 1)

        def grown(array: np.ndarray) -> np.ndarray:
            bigger = np.zeros((capacity, *array.shape[1:]))
            bigger[: array.shape[0]] = array
            return bigger

        self._phi, self._theta, self._mu = grown(self._phi), grown(self._theta), grown(self._mu)
        self._rings = [grown(ring) for ring in self._rings]

    def add(self, model: LinearRecursion) -> int:
        """Append *model*'s coefficients and state as a new row; returns it."""
        if batch_shape(model) != self.shape:
            raise ValueError(f"model shape {batch_shape(model)} is not {self.shape}")
        if self.size == self._mu.size:
            self._grow()
        row = self.size
        self.size += 1
        self._phi[row] = model._phi
        self._theta[row] = model._theta
        self._mu[row] = model._mu
        histories = (model._w, model._eps, *model._tails)
        for ring, head, values in zip(self._rings, self._heads, histories):
            # the oldest value at the head, as the deque holds it oldest first
            ordered = list(values)
            ring[row, head:] = ordered[: len(ordered) - head]
            ring[row, :head] = ordered[len(ordered) - head :]
        return row

    def store(self, row: int, model: LinearRecursion) -> None:
        """Write row *row*'s streaming state back into *model*."""
        histories = (model._w, model._eps, *model._tails)
        for ring, head, values in zip(self._rings, self._heads, histories):
            values.clear()
            values.extend(ring[row, head:].tolist())
            values.extend(ring[row, :head].tolist())

    def remove(self, row: int) -> None:
        """Drop row *row*; the last row moves into its place."""
        last = self.size - 1
        for array in (self._phi, self._theta, self._mu, *self._rings):
            array[row] = array[last]
        self.size = last

    def predict(self) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`LinearRecursion._predict` of every row: centred ``w``'s
        one-step prediction, and the level's."""
        n = self.size
        w, eps, *tails = self._rings
        w_head, eps_head, *tail_heads = self._heads
        one_step = np.zeros(n)
        for i in range(self._p):
            one_step = one_step + self._phi[:n, i] * w[:n, (w_head - 1 - i) % w.shape[1]]
        for j, lag in enumerate(self._ma_lags):
            one_step = one_step + self._theta[:n, j] * eps[:n, (eps_head - lag) % eps.shape[1]]
        level = one_step + self._mu[:n]
        for tail, head in zip(reversed(tails), reversed(tail_heads)):
            level = tail[:n, head] + level
        return one_step, level

    def advance(self, level: np.ndarray, one_step: np.ndarray) -> None:
        """:meth:`LinearRecursion._advance` of every row with its observed *level*."""
        n = self.size
        heads = self._heads
        for k in range(2, len(heads)):
            tail, head = self._rings[k], heads[k]
            previous = tail[:n, head]
            differenced = level - previous
            tail[:n, head] = level
            heads[k] = (head + 1) % tail.shape[1]
            level = differenced
        w = level - self._mu[:n]
        for k, values in ((0, w), (1, w - one_step)):
            ring = self._rings[k]
            ring[:n, heads[k]] = values
            heads[k] = (heads[k] + 1) % ring.shape[1]
