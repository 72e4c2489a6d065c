"""Direct sensor querying (Directed Diffusion [2] / Cougar [1]).

Table 1 characterises both rows as: NOW queries by direct sensor querying,
**no archival**, no prediction, energy-aware, flat (non-hierarchical).
Each query travels to the sensor itself and the reply travels back, so

* latency includes waking the duty-cycled sensor (half a check interval on
  average) — the paper's "unusable for interactive use" argument;
* PAST queries **fail**: nothing is archived anywhere;
* sensors spend idle-listening energy to stay reachable.

The two variants differ in dissemination: Diffusion floods interest to the
whole cell (every sensor pays an RX per query) before the gradient draws
the reply; Cougar routes the query point-to-point to the one sensor.
"""

from __future__ import annotations

from repro.baselines.common import (
    QUERY_BYTES,
    READING_BYTES,
    SERVER_PROCESSING_S,
    BaselineArchitecture,
    BaselineReport,
)
from repro.core.queries import AnswerSource, QueryAnswer
from repro.traces.workload import Query, QueryKind


class DirectQueryingArchitecture(BaselineArchitecture):
    """Diffusion-style (``flood=True``) or Cougar-style (``flood=False``)."""

    def __init__(self, *args, flood: bool = True, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.flood = flood
        self.name = "diffusion" if flood else "cougar"

    def run(self, queries: list[Query], duration_s: float) -> BaselineReport:
        """Replay the workload; sensors only ever transmit when queried."""
        answers: list[QueryAnswer] = []
        for query in queries:
            if query.arrival_time >= duration_s:
                continue
            answers.append(self._answer(query))
        self.charge_idle(duration_s)
        return self.build_report(answers, duration_s)

    def _answer(self, query: Query) -> QueryAnswer:
        if query.kind is not QueryKind.NOW:
            # No archival tier exists anywhere in this architecture.
            return QueryAnswer(
                query=query,
                value=None,
                source=AnswerSource.FAILED,
                latency_s=SERVER_PROCESSING_S,
            )
        sensor = query.sensor
        before = self.meters[sensor].total_j
        if self.flood:
            # Interest dissemination: every sensor in the cell hears it.
            for other in range(self.trace.n_sensors):
                self.charge_downlink_rx(other, QUERY_BYTES)
        else:
            self.charge_downlink_rx(sensor, QUERY_BYTES)
        value = self.reading_at(sensor, query.arrival_time)
        latency = (
            SERVER_PROCESSING_S
            + self.downlink_latency_s(QUERY_BYTES)
            + self.uplink_latency_s(READING_BYTES)
        )
        if value is None:
            return QueryAnswer(
                query=query,
                value=None,
                source=AnswerSource.FAILED,
                latency_s=latency,
                sensor_energy_j=self.meters[sensor].total_j - before,
            )
        self.charge_uplink(sensor, READING_BYTES, "radio.reply")
        return QueryAnswer(
            query=query,
            value=value,
            source=AnswerSource.SENSOR_PULL,
            latency_s=latency,
            sensor_energy_j=self.meters[sensor].total_j - before,
            pulled_bytes=READING_BYTES,
        )
