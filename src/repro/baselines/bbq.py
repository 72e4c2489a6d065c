"""Model-driven *pull* (TinyDB / BBQ [5, 6]).

Table 1: proxy querying, archival at the proxy, prediction **yes** — but
acquisition is pull-based: the server maintains a multivariate Gaussian over
the sensors and answers queries from the model posterior when its confidence
meets the precision; otherwise it *acquires* the needed reading(s).  Nothing
is pushed, so the proxy only ever sees data it asked for — the exact gap
PRESTO's push protocol fills ("a pure pull-based approach ... will likely
fail to capture [unexpected events]").

The model is refreshed by periodic acquisition rounds (one reading per
sensor per round), mirroring BBQ's epoch observations.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.common import (
    QUERY_BYTES,
    READING_BYTES,
    SERVER_PROCESSING_S,
    BaselineArchitecture,
    BaselineReport,
)
from repro.core.cache import aggregate
from repro.core.queries import AnswerSource, QueryAnswer
from repro.timeseries.gaussian import MultivariateGaussianModel
from repro.traces.workload import Query, QueryKind


class BbqArchitecture(BaselineArchitecture):
    """BBQ-style model-driven acquisition on our substrate."""

    name = "tinydb_bbq"

    def __init__(
        self,
        *args,
        observation_interval_s: float = 3600.0,
        training_epochs: int = 512,
        staleness_inflation: float = 1.15,
        **kwargs,
    ) -> None:
        super().__init__(*args, **kwargs)
        if observation_interval_s <= 0:
            raise ValueError("observation interval must be positive")
        self.observation_interval_s = float(observation_interval_s)
        self.training_epochs = int(training_epochs)
        self.staleness_inflation = float(staleness_inflation)
        self.model: MultivariateGaussianModel | None = None
        # proxy-side archive: sensor -> sorted [(timestamp, value)]
        self._proxy_archive: dict[int, list[tuple[float, float]]] = {
            s: [] for s in range(self.trace.n_sensors)
        }
        self._last_observation: dict[int, tuple[float, float]] = {}

    # -- acquisition --------------------------------------------------------------

    def _train(self) -> None:
        epochs = min(self.training_epochs, self.trace.n_epochs)
        matrix = self.trace.values[:, :epochs].T
        complete = ~np.isnan(matrix).any(axis=1)
        if complete.sum() >= 8:
            self.model = MultivariateGaussianModel().fit(matrix[complete])

    def _acquire(self, sensor: int, timestamp: float) -> float | None:
        """Pull one reading: sensor pays RX(request) + TX(reading)."""
        value = self.reading_at(sensor, timestamp)
        self.charge_downlink_rx(sensor, QUERY_BYTES)
        if value is None:
            return None
        self.charge_uplink(sensor, READING_BYTES, "radio.acquire")
        self._proxy_archive[sensor].append((timestamp, value))
        self._last_observation[sensor] = (timestamp, value)
        return value

    def _observation_round(self, timestamp: float) -> None:
        for sensor in range(self.trace.n_sensors):
            self._acquire(sensor, timestamp)

    # -- run ---------------------------------------------------------------------

    def run(self, queries: list[Query], duration_s: float) -> BaselineReport:
        """Training pass, periodic observation rounds, then the workload."""
        self._train()
        rounds = np.arange(0.0, duration_s, self.observation_interval_s)
        answers: list[QueryAnswer] = []
        queue = sorted(queries, key=lambda q: q.arrival_time)
        position = 0
        for i, round_time in enumerate(rounds):
            self._observation_round(float(round_time))
            window_end = (
                rounds[i + 1] if i + 1 < rounds.shape[0] else duration_s
            )
            while position < len(queue) and queue[position].arrival_time < window_end:
                query = queue[position]
                position += 1
                if query.arrival_time >= duration_s:
                    continue
                answers.append(self._answer(query))
        self.charge_idle(duration_s)
        return self.build_report(answers, duration_s)

    # -- answering -----------------------------------------------------------------

    def _posterior(self, sensor: int, at_time: float) -> tuple[float, float] | None:
        """Conditional (mean, std) given the freshest observations."""
        if self.model is None:
            return None
        observed: dict[int, float] = {}
        for other, (ts, value) in self._last_observation.items():
            if other != sensor and at_time - ts <= self.observation_interval_s:
                observed[other] = value
        mean, std = self.model.estimate(sensor, observed)
        own = self._last_observation.get(sensor)
        if own is not None:
            staleness = max(at_time - own[0], 0.0)
            rounds_stale = staleness / self.observation_interval_s
            # shrink toward the last direct reading, inflating with staleness
            weight = max(1.0 - rounds_stale, 0.0)
            mean = weight * own[1] + (1.0 - weight) * mean
            std = std * (self.staleness_inflation ** min(rounds_stale, 16.0))
        return float(mean), float(std)

    def _answer(self, query: Query) -> QueryAnswer:
        if query.kind is QueryKind.NOW:
            return self._answer_now(query)
        return self._answer_past(query)

    def _answer_now(self, query: Query) -> QueryAnswer:
        sensor = query.sensor
        posterior = self._posterior(sensor, query.arrival_time)
        if posterior is not None and posterior[1] <= query.precision:
            return QueryAnswer(
                query=query,
                value=posterior[0],
                source=AnswerSource.PREDICTION,
                latency_s=SERVER_PROCESSING_S,
                believed_std=posterior[1],
            )
        before = self.meters[sensor].total_j
        value = self._acquire(sensor, query.arrival_time)
        latency = (
            SERVER_PROCESSING_S
            + self.downlink_latency_s(QUERY_BYTES)
            + self.uplink_latency_s(READING_BYTES)
        )
        if value is None:
            return QueryAnswer(
                query=query,
                value=posterior[0] if posterior else None,
                source=AnswerSource.PREDICTION if posterior else AnswerSource.FAILED,
                latency_s=latency,
                believed_std=posterior[1] if posterior else 0.0,
            )
        return QueryAnswer(
            query=query,
            value=value,
            source=AnswerSource.SENSOR_PULL,
            latency_s=latency,
            sensor_energy_j=self.meters[sensor].total_j - before,
            pulled_bytes=READING_BYTES,
        )

    def _answer_past(self, query: Query) -> QueryAnswer:
        """PAST queries: only the proxy-side archive of acquired data exists.

        There is no sensor archive to fall back to, so accuracy is limited
        to whatever the observation rounds happened to capture.
        """
        sensor = query.sensor
        archive = self._proxy_archive[sensor]
        if not archive:
            return QueryAnswer(
                query=query,
                value=None,
                source=AnswerSource.FAILED,
                latency_s=SERVER_PROCESSING_S,
            )
        times = np.asarray([t for t, _ in archive])
        values = np.asarray([v for _, v in archive])
        if query.kind is QueryKind.PAST_POINT:
            nearest = int(np.argmin(np.abs(times - query.target_time)))
            return QueryAnswer(
                query=query,
                value=float(values[nearest]),
                source=AnswerSource.CACHE,
                latency_s=SERVER_PROCESSING_S,
                believed_std=0.0,
            )
        start, end = query.target_time, query.target_time + query.window_s
        mask = (times >= start) & (times <= end)
        if not mask.any():
            # no observation round fell inside the window
            nearest = int(np.argmin(np.abs(times - (start + end) / 2.0)))
            return QueryAnswer(
                query=query,
                value=float(values[nearest]),
                source=AnswerSource.CACHE,
                latency_s=SERVER_PROCESSING_S,
            )
        window = values[mask]
        value = aggregate(window, query.aggregate)
        return QueryAnswer(
            query=query,
            value=value,
            source=AnswerSource.CACHE,
            latency_s=SERVER_PROCESSING_S,
        )
