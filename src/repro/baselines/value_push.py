"""Value-driven push as a full architecture.

The sensor-side rule is Figure 2's "Value-Driven Push": transmit whenever
the reading moves more than Δ from the last transmitted value.  As an
architecture it sits between streaming and PRESTO: the proxy's view is a
zero-order hold of the pushed values (error bounded by Δ), there is no
model and no sensor archive, so PAST queries are answered from the push log
with Δ-bounded error — but only for the time range the log covers.
"""

from __future__ import annotations

import math

import numpy as np

from repro.baselines.common import (
    READING_BYTES,
    SERVER_PROCESSING_S,
    BaselineArchitecture,
    BaselineReport,
)
from repro.core.cache import aggregate
from repro.core.queries import AnswerSource, QueryAnswer
from repro.energy.radio_energy import transfer_energy
from repro.traces.workload import Query, QueryKind


class ValuePushArchitecture(BaselineArchitecture):
    """Δ-threshold push with a proxy-side push log."""

    def __init__(self, *args, delta: float = 1.0, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        if delta <= 0:
            raise ValueError(f"delta must be positive, got {delta}")
        self.delta = float(delta)
        self.name = f"value_push_d{delta:g}"
        # push log per sensor: (timestamps array, values array) built in run()
        self._log_times: dict[int, np.ndarray] = {}
        self._log_values: dict[int, np.ndarray] = {}

    def run(self, queries: list[Query], duration_s: float) -> BaselineReport:
        """Simulate pushes over the trace, then answer the workload."""
        per_push = transfer_energy(self.profile.radio, READING_BYTES)
        horizon_epochs = int(duration_s // self.trace.config.epoch_s)
        for sensor in range(self.trace.n_sensors):
            series = self.trace.values[sensor, :horizon_epochs]
            times: list[float] = []
            values: list[float] = []
            last: float | None = None
            for epoch, value in enumerate(series):
                if math.isnan(value):
                    continue
                if last is None or abs(value - last) > self.delta:
                    last = float(value)
                    times.append(float(self.trace.timestamps[epoch]))
                    values.append(last)
            self._log_times[sensor] = np.asarray(times)
            self._log_values[sensor] = np.asarray(values)
            self.meters[sensor].record("radio.push", per_push, len(times))
            self.messages += len(times)
        self.charge_idle(duration_s)

        answers: list[QueryAnswer] = []
        for query in queries:
            if query.arrival_time >= duration_s:
                continue
            answers.append(self._answer(query))
        return self.build_report(answers, duration_s)

    # -- proxy-side zero-order hold --------------------------------------------------

    def _held_value(self, sensor: int, timestamp: float) -> float | None:
        times = self._log_times.get(sensor)
        if times is None or times.size == 0:
            return None
        index = int(np.searchsorted(times, timestamp, side="right")) - 1
        if index < 0:
            return None
        return float(self._log_values[sensor][index])

    def _answer(self, query: Query) -> QueryAnswer:
        sensor = query.sensor
        if query.kind in (QueryKind.NOW, QueryKind.PAST_POINT):
            target = (
                query.arrival_time
                if query.kind is QueryKind.NOW
                else query.target_time
            )
            value = self._held_value(sensor, target)
            if value is None:
                return QueryAnswer(
                    query=query,
                    value=None,
                    source=AnswerSource.FAILED,
                    latency_s=SERVER_PROCESSING_S,
                )
            return QueryAnswer(
                query=query,
                value=value,
                source=AnswerSource.CACHE,
                latency_s=SERVER_PROCESSING_S,
                believed_std=self.delta / 2.0,
            )
        start, end = query.target_time, query.target_time + query.window_s
        times = self._log_times.get(sensor)
        if times is None or times.size == 0:
            return QueryAnswer(
                query=query,
                value=None,
                source=AnswerSource.FAILED,
                latency_s=SERVER_PROCESSING_S,
            )
        # Sample the hold signal at epoch resolution across the window.
        step = self.trace.config.epoch_s
        sample_times = np.arange(start, end + step / 2, step)
        held = [self._held_value(sensor, float(t)) for t in sample_times]
        window = np.asarray([v for v in held if v is not None])
        if window.size == 0:
            return QueryAnswer(
                query=query,
                value=None,
                source=AnswerSource.FAILED,
                latency_s=SERVER_PROCESSING_S,
            )
        value = aggregate(window, query.aggregate)
        return QueryAnswer(
            query=query,
            value=value,
            source=AnswerSource.CACHE,
            latency_s=SERVER_PROCESSING_S,
            believed_std=self.delta / 2.0,
        )
