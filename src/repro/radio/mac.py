"""Low-power-listening MAC.

The sensor radio sleeps almost always, waking every ``check_interval`` for a
few milliseconds of channel sampling (B-MAC).  Senders stretch their
preamble to one full check interval so a sleeping receiver is guaranteed to
catch it.  The proxy, being tethered, listens continuously.

PRESTO's query–sensor matching manipulates exactly this check interval: a
relaxed query latency bound lets the proxy push a longer interval to the
sensor, shrinking both the sensor's idle-listening power *and* (because
downlink preambles stretch) raising the proxy-to-sensor cost — an asymmetry
the proxy is happy to accept since it is not energy constrained.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.energy.constants import RadioConstants
from repro.energy.duty_cycle import DutyCycleConfig, lpl_average_power
from repro.energy.meter import EnergyMeter
from repro.radio.link import LinkConfig, LossyLink, TransferOutcome


@dataclass
class MacStats:
    """Frames sent each way."""

    uplink_frames: int = 0
    downlink_frames: int = 0


class LplMac:
    """MAC endpoint pair between one sensor and its proxy.

    Uplink (sensor→proxy) frames use the short preamble — the proxy is
    always listening.  Downlink (proxy→sensor) frames pay the stretched LPL
    preamble.  Idle listening at the sensor is accounted in bulk via
    :meth:`account_idle`, called by the simulation harness once per
    accounting period (exactness does not require per-check events).
    """

    def __init__(
        self,
        radio: RadioConstants,
        link_config: LinkConfig,
        duty_cycle: DutyCycleConfig,
        rng: np.random.Generator,
        sensor_meter: EnergyMeter,
        proxy_meter: EnergyMeter,
    ) -> None:
        self.radio = radio
        self.duty_cycle = duty_cycle
        self.stats = MacStats()
        self._sensor_meter = sensor_meter
        self._uplink = LossyLink(
            radio, link_config, rng, sender_meter=sensor_meter, receiver_meter=proxy_meter
        )
        self._downlink = LossyLink(
            radio, link_config, rng, sender_meter=proxy_meter, receiver_meter=sensor_meter
        )

    def set_check_interval(self, check_interval_s: float) -> None:
        """Retune the sensor's LPL check interval (proxy-directed)."""
        self.duty_cycle = DutyCycleConfig(
            check_interval_s=check_interval_s,
            check_duration_s=self.duty_cycle.check_duration_s,
        )

    def set_link_config(self, link_config: LinkConfig) -> None:
        """Swap both directions' link parameters (channel-condition change).

        Used by the scenario engine to model interference bursts: the link
        objects and their statistics persist, only the loss/retry regime
        changes from the next transfer on.
        """
        self._uplink.config = link_config
        self._downlink.config = link_config

    @property
    def link_config(self) -> LinkConfig:
        """The link regime currently governing both directions."""
        return self._uplink.config

    def send_uplink(
        self, payload_bytes: int, energy_category: str = "radio.tx"
    ) -> TransferOutcome:
        """Sensor → proxy frame (short preamble; proxy always on)."""
        self.stats.uplink_frames += 1
        return self._uplink.transfer(
            payload_bytes, lpl_preamble_bytes=0, energy_category=energy_category
        )

    def send_downlink(
        self, payload_bytes: int, energy_category: str = "radio.tx"
    ) -> TransferOutcome:
        """Proxy → sensor frame (stretched preamble covers the sleep cycle).

        Latency additionally includes the expected wait for the sensor's
        next channel check (half the interval on average).
        """
        self.stats.downlink_frames += 1
        preamble = self.duty_cycle.lpl_preamble_bytes(self.radio)
        outcome = self._downlink.transfer(
            payload_bytes,
            lpl_preamble_bytes=preamble,
            energy_category=energy_category,
        )
        wakeup_wait = self.duty_cycle.check_interval_s / 2.0
        return outcome._replace(latency_s=outcome.latency_s + wakeup_wait)

    def account_idle(self, duration_s: float) -> None:
        """Record *duration_s* of the sensor's LPL idle listening, at the
        average power of its current duty cycle (a negative duration is
        rejected by the meter)."""
        power = lpl_average_power(self.radio, self.duty_cycle)
        self._sensor_meter.record("radio.lpl", power, duration_s)
