"""Reference-broadcast time synchronisation at the proxy.

The proxy periodically broadcasts its own (tethered, authoritative) time;
each sensor replies with its local clock reading at reception.  Collecting
``(proxy_time, local_time)`` pairs, the proxy fits ``local ≈ a * proxy + b``
by least squares and corrects any sensor timestamp via the inverse map.
With two or more exchanges this recovers both offset and skew; residual
error is bounded by the (small) broadcast jitter.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class SyncEstimate:
    """Fitted clock map for one sensor: ``local = rate * true + offset``."""

    rate: float = 1.0
    offset: float = 0.0
    n_samples: int = 0
    residual_std_s: float = 0.0

    def correct(self, local_time: float) -> float:
        """Map a sensor-local timestamp back to proxy (true) time."""
        return (local_time - self.offset) / self.rate

    def project(self, proxy_time: float) -> float:
        """Map a proxy (true) instant into the sensor's local frame.

        Exact inverse of :meth:`correct` — used to translate query windows
        into the frame the sensor's reported timestamps live in.
        """
        return self.rate * proxy_time + self.offset


class TimeSyncProtocol:
    """Per-sensor sample collection and least-squares clock fitting.

    Recording an exchange only appends to the sensor's window; the fit
    runs on the first read (:meth:`estimate_for`, :meth:`correct`,
    :meth:`project`, :meth:`max_residual_s`) after new samples, so a run
    that never asks for corrected time never fits.  Every read sees the
    estimate a fit after each exchange would have produced.
    """

    def __init__(self, min_samples: int = 2, window: int = 32) -> None:
        if min_samples < 2:
            raise ValueError(f"need >= 2 samples to fit skew, got {min_samples}")
        if window < min_samples:
            raise ValueError(
                f"window {window} can never hold min_samples={min_samples} exchanges"
            )
        self.min_samples = int(min_samples)
        self.window = int(window)
        self._samples: dict[str, list[tuple[float, float]]] = {}
        self._estimates: dict[str, SyncEstimate] = {}
        # sensors whose window changed since their last fit
        self._dirty: set[str] = set()

    def record_exchange(
        self, sensor: str, proxy_time: float, sensor_local_time: float
    ) -> None:
        """Store one (proxy, local) observation for *sensor*."""
        proxy_time = float(proxy_time)
        bucket = self._samples.setdefault(sensor, [])
        if bucket and bucket[-1][0] == proxy_time:
            # A repeated proxy time can leave the window with no spread, and
            # such a window keeps the estimate of the window before it:
            # settle that one while its samples are still here.  (A new
            # proxy time always leaves a fittable window, which overwrites.)
            self._flush(sensor)
        bucket.append((proxy_time, float(sensor_local_time)))
        if len(bucket) > self.window:
            del bucket[0]
        if len(bucket) >= self.min_samples:
            self._dirty.add(sensor)

    def _flush(self, sensor: str) -> None:
        """Fit *sensor*'s window if it changed since the last fit."""
        if sensor in self._dirty:
            self._dirty.remove(sensor)
            self._fit(sensor)

    def _fit(self, sensor: str) -> None:
        pairs = np.asarray(self._samples[sensor], dtype=np.float64)
        proxy_times = pairs[:, 0]
        local_times = pairs[:, 1]
        if np.ptp(proxy_times) <= 0:
            return
        rate, offset = np.polyfit(proxy_times, local_times, deg=1)
        predicted = rate * proxy_times + offset
        residual = float(np.std(local_times - predicted))
        self._estimates[sensor] = SyncEstimate(
            rate=float(rate),
            offset=float(offset),
            n_samples=int(pairs.shape[0]),
            residual_std_s=residual,
        )

    def estimate_for(self, sensor: str) -> SyncEstimate | None:
        """Current estimate, or None before enough exchanges."""
        self._flush(sensor)
        return self._estimates.get(sensor)

    def correct(self, sensor: str, local_time: float) -> float:
        """Correct a local timestamp; identity until an estimate exists."""
        estimate = self.estimate_for(sensor)
        if estimate is None:
            return local_time
        return estimate.correct(local_time)

    def project(self, sensor: str, proxy_time: float) -> float:
        """Map a proxy instant into *sensor*'s local frame (inverse of
        :meth:`correct`); identity until an estimate exists."""
        estimate = self.estimate_for(sensor)
        if estimate is None:
            return proxy_time
        return estimate.project(proxy_time)

    def max_residual_s(self) -> float:
        """Worst residual std across sensors (sync quality indicator)."""
        for sensor in sorted(self._dirty):
            self._flush(sensor)
        if not self._estimates:
            return 0.0
        return max(e.residual_std_s for e in self._estimates.values())
