"""Common interfaces for prediction models.

Every model exposes the same three capabilities the PRESTO proxy needs:

* :meth:`TimeSeriesModel.fit` — train on a window of historical readings;
* :meth:`TimeSeriesModel.forecast` — mean + standard deviation for the next
  ``h`` sampling epochs (used for extrapolation and confidence-aware query
  answering);
* :meth:`TimeSeriesModel.step` — one epoch of the cheap one-step loop that
  both the proxy and the sensor replicate so a value the sensor *doesn't*
  push is substituted identically on both sides (the model-driven push
  protocol of Section 2); :meth:`TimeSeriesModel.predict_next` and
  :meth:`TimeSeriesModel.observe` are its two halves, for callers that
  need only one of them.

Models also report ``parameter_bytes`` — the cost of shipping their
parameters to a sensor — which the push protocol charges to the radio.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class Forecast:
    """Multi-step forecast: per-step mean and standard deviation."""

    mean: np.ndarray
    std: np.ndarray

    def __post_init__(self) -> None:
        if self.mean.shape != self.std.shape:
            raise ValueError(
                f"mean/std shape mismatch: {self.mean.shape} vs {self.std.shape}"
            )

    @property
    def horizon(self) -> int:
        """Number of forecast steps."""
        return int(self.mean.shape[0])


@dataclass(frozen=True)
class ModelSpec:
    """Lightweight description of a model for logging and selection."""

    family: str
    order: tuple[int, ...] = ()
    n_params: int = 0
    extras: dict = field(default_factory=dict)

    def __str__(self) -> str:
        order = ",".join(str(o) for o in self.order)
        return f"{self.family}({order})" if order else self.family


class TimeSeriesModel(abc.ABC):
    """Abstract base for all temporal models in the prediction engine."""

    #: seconds between consecutive samples; set by fit() callers that know it
    sample_period_s: float = 30.0

    @abc.abstractmethod
    def fit(self, values: np.ndarray, timestamps: np.ndarray | None = None) -> "TimeSeriesModel":
        """Train on *values* (optionally timestamped); returns self."""

    @abc.abstractmethod
    def forecast(self, steps: int) -> Forecast:
        """Forecast the next *steps* epochs after the training window."""

    @abc.abstractmethod
    def predict_next(self) -> float:
        """One-step-ahead prediction given everything observed so far."""

    @abc.abstractmethod
    def observe(self, value: float) -> None:
        """Advance the one-step loop with the realised value.

        The sensor calls this with the *actual* reading; the proxy calls it
        with the actual reading when pushed, or with :meth:`predict_next`'s
        output when the sensor stayed silent — keeping the two copies of the
        model state bit-identical.
        """

    def step(self, value: float | None, delta: float) -> tuple[float, bool]:
        """Advance one protocol epoch; returns ``(predicted, pushed)``.

        Predict the epoch's value, decide whether the reading *value*
        breaches *delta* (``None`` — a silent or missed epoch — never
        does), then observe the reading if it was pushed and the
        prediction otherwise.  Subclasses may fuse the two halves but
        must leave exactly the state ``predict_next`` + ``observe`` would.
        """
        predicted = self.predict_next()
        if value is not None and abs(value - predicted) > delta:
            self.observe(value)
            return predicted, True
        self.observe(predicted)
        return predicted, False

    def align_to_time(self, next_sample_time: float) -> None:
        """Align internal clocks so :meth:`predict_next` targets
        *next_sample_time*.

        Purely temporal models (AR/ARIMA/Markov) carry no wall clock and
        ignore this; time-of-day models override it.  The push protocol
        calls it on both replicas at activation so a model fitted at epoch
        ``E`` but activated at epoch ``A > E`` predicts the right bin.
        """

    def state(self) -> tuple:
        """The model's declared state: scalars and one-dimensional float64
        arrays.

        Everything :meth:`from_state` needs to rebuild a model that
        predicts, steps and forecasts bit for bit like this one — the
        parameters and the one-step loop's streaming state.  A replica
        sync ships it; nothing else about the object crosses the wire.
        """
        raise NotImplementedError(f"{type(self).__name__} declares no state")

    @classmethod
    def from_state(cls, state: tuple) -> "TimeSeriesModel":
        """The model whose :meth:`state` is *state* (arrays are copied)."""
        raise NotImplementedError(f"{cls.__name__} declares no state")

    @abc.abstractmethod
    def spec(self) -> ModelSpec:
        """Describe the fitted model."""

    @property
    @abc.abstractmethod
    def parameter_bytes(self) -> int:
        """Wire size of the parameters a proxy ships to a sensor."""

    @property
    @abc.abstractmethod
    def residual_std(self) -> float:
        """In-sample one-step residual standard deviation."""

    @property
    @abc.abstractmethod
    def check_cycles(self) -> float:
        """CPU cycles a sensor spends verifying one reading against the
        model — the paper's asymmetry requirement made measurable."""


def as_float_array(values: np.ndarray, name: str = "values") -> np.ndarray:
    """Validate and convert a 1-D float input array."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be 1-D, got shape {arr.shape}")
    if arr.size == 0:
        raise ValueError(f"{name} must be non-empty")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr
