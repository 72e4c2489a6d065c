"""Reference: failover forecasts, one full forecast per query.

``forecast_value`` is ``ProxyModelTracker.forecast_value`` as it was before
failover answers read a :class:`~repro.core.push.ForecastTrajectory`: one
``model.forecast(steps)`` per query.  ``PerQueryTrajectory`` puts it behind
the trajectory's interface, so a federated run can be replayed with it
monkeypatched in.
"""

from __future__ import annotations

from repro.core.push import ProxyModelTracker


def forecast_value(tracker: ProxyModelTracker, steps: int) -> tuple[float, float]:
    """Mean and std *steps* epochs past the tracker's last known state."""
    if steps < 1:
        raise ValueError(f"need >= 1 forecast step, got {steps}")
    try:
        forecast = tracker._model.forecast(steps)
        return float(forecast.mean[-1]), float(forecast.std[-1])
    except (RuntimeError, ValueError):
        return (
            float(tracker._model.predict_next()),
            tracker.predicted_std() * (steps ** 0.5),
        )


class PerQueryTrajectory:
    """``ForecastTrajectory``'s interface over :func:`forecast_value`."""

    def __init__(self, tracker: ProxyModelTracker) -> None:
        self._tracker = tracker

    def at(self, steps: int) -> tuple[float, float]:
        return forecast_value(self._tracker, steps)
