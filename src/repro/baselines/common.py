"""Shared machinery for the Table 1 architecture comparison.

Every baseline runs over the *same* trace, query workload, radio/energy
constants and link model as PRESTO itself, and reports through the same
:class:`BaselineReport` so the comparison benchmark can print one table.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.queries import PAST_KINDS, QueryAnswer, ScoredAnswers, ground_truths
from repro.energy.constants import MICA2_PROFILE, NodeEnergyProfile
from repro.energy.duty_cycle import DutyCycleConfig, lpl_average_power
from repro.energy.meter import EnergyMeter
from repro.energy.radio_energy import receive_energy, transfer_energy
from repro.simulation.randomness import seeded_rng
from repro.traces.intel_lab import TraceSet
from repro.traces.workload import QueryKind

#: bytes of one pushed/streamed reading record (value + epoch header)
READING_BYTES = 12
#: bytes of a query/interest message
QUERY_BYTES = 16
#: proxy/server-side processing latency
SERVER_PROCESSING_S = 0.02


@dataclass
class BaselineReport(ScoredAnswers):
    """Comparable outcome of one architecture run.

    Scored by the same :class:`~repro.core.queries.ScoredAnswers` rule
    against the same ground truth as PRESTO's ``SystemReport``.
    """

    name: str
    per_sensor_energy_j: list[float]
    messages: int

    def summary(self) -> dict[str, float]:
        """Flat dict for the comparison table."""
        return {
            "sensor_energy_per_day_j": self.sensor_energy_per_day_j,
            "mean_latency_s": self.mean_latency_s,
            "success_rate": self.success_rate,
            "now_success": self.success_rate_kind(QueryKind.NOW),
            "past_success": self.success_rate_kind(*PAST_KINDS),
            "mean_error": self.mean_error,
            "answered_fraction": self.answered_fraction,
            "messages": float(self.messages),
        }


class BaselineArchitecture:
    """Base class: trace access and energy helpers."""

    name = "baseline"

    def __init__(
        self,
        trace: TraceSet,
        profile: NodeEnergyProfile = MICA2_PROFILE,
        check_interval_s: float = 1.0,
        rng: np.random.Generator | None = None,
    ) -> None:
        self.trace = trace
        self.profile = profile
        self.duty_cycle = DutyCycleConfig(check_interval_s=check_interval_s)
        # explicit deterministic fallback: baseline comparisons replay the
        # same loss/backoff draws when no generator is threaded in
        self.rng = rng if rng is not None else seeded_rng(0)
        self.meters = [EnergyMeter(f"sensor{i}") for i in range(trace.n_sensors)]
        self.messages = 0

    # -- trace helpers ----------------------------------------------------------

    def reading_at(self, sensor: int, timestamp: float) -> float | None:
        """Trace value at the epoch containing *timestamp* (None if dropped)."""
        epoch = self.trace.epoch_of(min(timestamp, self.trace.timestamps[-1]))
        value = self.trace.values[sensor, epoch]
        return None if np.isnan(value) else float(value)

    # -- energy helpers -----------------------------------------------------------

    def charge_uplink(self, sensor: int, payload_bytes: int, category: str) -> None:
        """Sensor→server transfer (short preamble, server always on)."""
        self.meters[sensor].charge(
            category, transfer_energy(self.profile.radio, payload_bytes)
        )
        self.messages += 1

    def charge_downlink_rx(self, sensor: int, payload_bytes: int) -> None:
        """Sensor-side RX cost of hearing a server message."""
        self.meters[sensor].charge(
            "radio.rx", receive_energy(self.profile.radio, payload_bytes)
        )

    def charge_idle(self, duration_s: float) -> None:
        """LPL idle listening for the whole fleet."""
        power = lpl_average_power(self.profile.radio, self.duty_cycle)
        for meter in self.meters:
            meter.charge("radio.lpl", power * duration_s)

    def downlink_latency_s(self, payload_bytes: int = QUERY_BYTES) -> float:
        """Mean latency to wake + deliver a message to a duty-cycled sensor."""
        airtime = (
            self.duty_cycle.lpl_preamble_bytes(self.profile.radio) + payload_bytes
        ) * self.profile.radio.byte_time_s
        return self.duty_cycle.check_interval_s / 2.0 + airtime

    def uplink_latency_s(self, payload_bytes: int) -> float:
        """Latency of a sensor→server transfer."""
        radio = self.profile.radio
        overhead = radio.preamble_bytes + radio.header_bytes + radio.crc_bytes
        return (overhead + payload_bytes) * radio.byte_time_s

    # -- report -------------------------------------------------------------------

    def build_report(
        self, answers: list[QueryAnswer], duration_s: float
    ) -> BaselineReport:
        """Assemble the comparable report, scoring *answers* against the trace."""
        return BaselineReport(
            name=self.name,
            duration_s=duration_s,
            n_sensors=self.trace.n_sensors,
            answers=answers,
            truths=ground_truths(self.trace, [answer.query for answer in answers]),
            sensor_energy_j=float(sum(m.total_j for m in self.meters)),
            per_sensor_energy_j=[m.total_j for m in self.meters],
            messages=self.messages,
        )
