"""Stream-everything architecture (Aurora / Medusa [7]).

Table 1: proxy querying, archival at the server, no prediction, **not**
energy-aware.  Every sensor transmits every reading to the server as it is
taken; the server archives the stream and answers every query locally.
Queries are therefore fast and always answerable — at maximal sensor energy,
which is exactly the trade PRESTO's intro criticises ("this model is less
energy efficient since it does not exploit the fact that only a subset of
sensor data may be actually queried").
"""

from __future__ import annotations

import numpy as np

from repro.baselines.common import (
    READING_BYTES,
    SERVER_PROCESSING_S,
    BaselineArchitecture,
    BaselineReport,
)
from repro.core.queries import AnswerSource, QueryAnswer, ground_truth
from repro.energy.radio_energy import transfer_energy
from repro.traces.workload import Query, QueryKind


class StreamingArchitecture(BaselineArchitecture):
    """Continuous data streaming into a server-side archive."""

    name = "streaming"

    def run(self, queries: list[Query], duration_s: float) -> BaselineReport:
        """Charge the full stream, then answer queries from the server."""
        per_reading = transfer_energy(self.profile.radio, READING_BYTES)
        horizon_epochs = int(duration_s // self.trace.config.epoch_s)
        for sensor in range(self.trace.n_sensors):
            series = self.trace.values[sensor, :horizon_epochs]
            sent = int(np.count_nonzero(~np.isnan(series)))
            self.meters[sensor].charge("radio.stream", sent * per_reading)
            self.messages += sent
        self.charge_idle(duration_s)

        answers: list[QueryAnswer] = []
        for query in queries:
            if query.arrival_time >= duration_s:
                continue
            answers.append(self._answer(query))
        return self.build_report(answers, duration_s)

    def _answer(self, query: Query) -> QueryAnswer:
        """The server holds the whole stream: answer from local archive."""
        if query.kind in (QueryKind.NOW, QueryKind.PAST_POINT):
            target = (
                query.arrival_time
                if query.kind is QueryKind.NOW
                else query.target_time
            )
            value = self.reading_at(query.sensor, target)
        else:
            value = ground_truth(self.trace, query)  # server archive == trace window
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
        )
