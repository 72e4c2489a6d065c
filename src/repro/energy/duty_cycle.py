"""Low-power-listening (LPL) duty-cycle energy model.

PRESTO's query–sensor matching (Section 3) tunes the radio *check interval*
to the worst-case notification latency a query tolerates: a 10-minute latency
bound lets the sensor wake its radio rarely, cutting idle-listening energy.
This module provides the B-MAC-style arithmetic: the receiver samples the
channel briefly every ``check_interval``; senders stretch their preamble to
cover one full interval so the receiver cannot miss it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.energy.constants import RadioConstants


@dataclass(frozen=True)
class DutyCycleConfig:
    """LPL configuration for a sensor radio.

    ``check_interval_s`` — how often the radio wakes to sample the channel.
    ``check_duration_s`` — how long each channel sample keeps the radio in RX.
    """

    check_interval_s: float
    check_duration_s: float = 3.0e-3

    def __post_init__(self) -> None:
        if self.check_interval_s <= 0:
            raise ValueError(f"check interval must be positive: {self.check_interval_s!r}")
        if self.check_duration_s <= 0:
            raise ValueError(f"check duration must be positive: {self.check_duration_s!r}")
        if self.check_duration_s > self.check_interval_s:
            raise ValueError("check duration longer than the interval itself")

    @property
    def duty_fraction(self) -> float:
        """Fraction of time the radio is awake just for channel checks."""
        return self.check_duration_s / self.check_interval_s

    def lpl_preamble_bytes(self, radio: RadioConstants) -> int:
        """Preamble length a sender must use so this receiver hears it."""
        bytes_per_interval = math.ceil(self.check_interval_s / radio.byte_time_s)
        return max(radio.preamble_bytes, bytes_per_interval)


def lpl_check_energy(radio: RadioConstants, config: DutyCycleConfig) -> float:
    """Joules for a single channel check: startup + brief RX sample."""
    return (
        radio.startup_time_s * radio.startup_power_w
        + config.check_duration_s * radio.rx_power_w
    )


def lpl_average_power(radio: RadioConstants, config: DutyCycleConfig) -> float:
    """Average watts of an idle radio under *config* (checks + sleep)."""
    per_check = lpl_check_energy(radio, config)
    sleep_time = config.check_interval_s - config.check_duration_s
    sleep_energy = sleep_time * radio.sleep_power_w
    return (per_check + sleep_energy) / config.check_interval_s
