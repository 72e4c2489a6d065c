"""Discretised Markov-chain model for the temporal axis.

Section 3 points at "a combination of multivariate models for the spatial
axis and Markov model for the temporal axis" (the BBQ design).  The value
range is discretised into bins; transitions between consecutive readings are
counted with Laplace smoothing; prediction is the expected value of the next
state's bin centre.  Sensors can verify a reading against this model with a
single table row lookup.
"""

from __future__ import annotations

import numpy as np

from repro.timeseries.base import (
    Forecast,
    ModelSpec,
    TimeSeriesModel,
    as_float_array,
)


class MarkovChainModel(TimeSeriesModel):
    """First-order Markov chain over a uniform value discretisation."""

    def __init__(
        self,
        n_states: int = 32,
        sample_period_s: float = 30.0,
        smoothing: float = 0.5,
    ) -> None:
        if n_states < 2:
            raise ValueError(f"need >= 2 states, got {n_states}")
        if smoothing < 0:
            raise ValueError(f"smoothing must be >= 0, got {smoothing}")
        self.n_states = int(n_states)
        self.sample_period_s = float(sample_period_s)
        self.smoothing = float(smoothing)
        self._low = 0.0
        self._high = 1.0
        self._transition: np.ndarray | None = None
        self._centres: np.ndarray | None = None
        self._residual_std = 0.0
        self._current_state = 0

    # -- discretisation ------------------------------------------------------

    def state_of(self, value: float) -> int:
        """Bin index of *value* (clipped to the training range)."""
        if self._centres is None:
            raise RuntimeError("model not fitted")
        span = self._high - self._low
        if span <= 0:
            return 0
        index = int((value - self._low) / span * self.n_states)
        return min(max(index, 0), self.n_states - 1)

    # -- fitting ---------------------------------------------------------------

    def fit(
        self, values: np.ndarray, timestamps: np.ndarray | None = None
    ) -> "MarkovChainModel":
        """Estimate the transition matrix from consecutive pairs."""
        values = as_float_array(values)
        if values.size < 3:
            raise ValueError(f"need >= 3 samples, got {values.size}")
        self._low = float(values.min())
        self._high = float(values.max())
        if self._high <= self._low:
            self._high = self._low + 1e-6
        width = (self._high - self._low) / self.n_states
        self._centres = (
            self._low + (np.arange(self.n_states, dtype=np.float64) + 0.5) * width
        )
        counts = np.full(
            (self.n_states, self.n_states), self.smoothing, dtype=np.float64
        )
        states = np.asarray([self.state_of(v) for v in values], dtype=np.int64)
        np.add.at(counts, (states[:-1], states[1:]), 1.0)
        row_sums = counts.sum(axis=1, keepdims=True)
        # never-visited rows (possible with zero smoothing) become uniform
        empty = row_sums[:, 0] == 0.0
        counts[empty] = 1.0
        row_sums[empty] = float(self.n_states)
        self._transition = counts / row_sums

        predictions = self._centres[
            np.argmax(self._transition[states[:-1]], axis=1)
        ]
        self._residual_std = float(np.std(values[1:] - predictions))
        self._current_state = int(states[-1])
        return self

    # -- prediction ---------------------------------------------------------------

    def _require_fit(self) -> np.ndarray:
        if self._transition is None or self._centres is None:
            raise RuntimeError("model not fitted")
        return self._transition

    def predict_next(self) -> float:
        """Expected value of the next reading given the current state."""
        transition = self._require_fit()
        row = transition[self._current_state]
        return float(np.dot(row, self._centres))

    def observe(self, value: float) -> None:
        """Move to the state of the realised value."""
        self._require_fit()
        self._current_state = self.state_of(float(value))

    def forecast(self, steps: int) -> Forecast:
        """h-step forecast by powering the chain from the current state."""
        transition = self._require_fit()
        if steps < 1:
            raise ValueError(f"steps must be >= 1, got {steps}")
        distribution = np.zeros(self.n_states, dtype=np.float64)
        distribution[self._current_state] = 1.0
        mean = np.empty(steps, dtype=np.float64)
        std = np.empty(steps, dtype=np.float64)
        for step in range(steps):
            distribution = distribution @ transition
            mean[step] = float(np.dot(distribution, self._centres))
            second = float(np.dot(distribution, self._centres**2))
            std[step] = float(np.sqrt(max(second - mean[step] ** 2, 0.0)))
        return Forecast(mean=mean, std=std)

    def stationary_distribution(self, iterations: int = 200) -> np.ndarray:
        """Approximate stationary distribution by power iteration."""
        transition = self._require_fit()
        distribution = np.full(self.n_states, 1.0 / self.n_states)
        for _ in range(iterations):
            nxt = distribution @ transition
            if np.allclose(nxt, distribution, atol=1e-12):
                distribution = nxt
                break
            distribution = nxt
        return distribution

    # -- declared state ---------------------------------------------------------

    def state(self) -> tuple:
        """``(states, period, smoothing, low, high, residual std, current
        state, transition (row-major), centres)``; both arrays empty before
        :meth:`fit`."""
        return (
            float(self.n_states),
            self.sample_period_s,
            self.smoothing,
            self._low,
            self._high,
            self._residual_std,
            float(self._current_state),
            np.array(
                [] if self._transition is None else self._transition.ravel(),
                dtype=np.float64,
            ),
            np.array([] if self._centres is None else self._centres, dtype=np.float64),
        )

    @classmethod
    def from_state(cls, state: tuple) -> "MarkovChainModel":
        """The Markov chain model whose :meth:`state` is *state*."""
        n, period, smoothing, low, high, residual_std, current, transition, centres = state
        model = cls(int(n), float(period), float(smoothing))
        model._low, model._high = float(low), float(high)
        model._residual_std, model._current_state = float(residual_std), int(current)
        if len(transition):
            model._transition = np.array(transition, dtype=np.float64).reshape(
                model.n_states, model.n_states
            )
            model._centres = np.array(centres, dtype=np.float64)
        return model

    # -- metadata --------------------------------------------------------------

    def spec(self) -> ModelSpec:
        """Describe the model ("markov(states)")."""
        return ModelSpec(
            family="markov",
            order=(self.n_states,),
            n_params=self.n_states * (self.n_states - 1),
        )

    @property
    def parameter_bytes(self) -> int:
        """Transition matrix quantised to 1 byte/cell + range (8) + meta."""
        return self.n_states * self.n_states + 8 + 2

    @property
    def residual_std(self) -> float:
        """In-sample one-step residual standard deviation."""
        return self._residual_std

    @property
    def check_cycles(self) -> float:
        """Bin index + row lookup + expected value: ~n_states MACs."""
        return 4.0 * self.n_states + 30.0
