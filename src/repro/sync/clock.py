"""Drifting/skewed clock models for remote sensors.

A mote clock reads ``local = offset + (1 + skew) * true``.  Crystal skews
of tens of ppm accumulate to seconds per day — enough to misorder readings
between neighbouring sensors, which is why proxies correct timestamps
before merging them into one ordered view.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ClockModel:
    """Statistical parameters of a clock population."""

    offset_std_s: float = 0.5          # initial desynchronisation
    skew_ppm_std: float = 40.0         # crystal tolerance (ppm)


class DriftingClock:
    """One sensor's clock.

    ``read(true_time)`` converts simulator (true) time to the sensor's local
    time; ``invert(local_time)`` is the exact inverse, available only to
    test code and the sync estimator's ground-truth checks.
    """

    def __init__(
        self, model: ClockModel, rng: np.random.Generator, node_name: str = "sensor"
    ) -> None:
        self.model = model
        self.node_name = node_name
        self._offset = float(rng.normal(0.0, model.offset_std_s))
        self._skew = float(rng.normal(0.0, model.skew_ppm_std * 1e-6))

    @property
    def offset_s(self) -> float:
        """Constant offset component."""
        return self._offset

    @property
    def skew(self) -> float:
        """Fractional rate error (dimensionless, e.g. 40e-6)."""
        return self._skew

    def read(self, true_time: float) -> float:
        """Local clock reading at *true_time*."""
        return self._offset + (1.0 + self._skew) * true_time

    def invert(self, local_time: float) -> float:
        """True time corresponding to *local_time* (oracle inverse)."""
        return (local_time - self._offset) / (1.0 + self._skew)
