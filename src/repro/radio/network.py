"""Star network between a proxy and its sensors.

The PRESTO middle tier manages "several tens of lower-tier sensors in its
vicinity"; within one cell the topology is a star (sensor ↔ proxy, one hop).
The network object owns one :class:`~repro.radio.mac.LplMac` per sensor and
runs each frame's ARQ when it is sent, every MAC drawing from the star's
one loss stream.  A frame is its payload: no envelope is built for it.

Uplinks leave as runs: :meth:`Network.send_uplinks` sends frames of one
shape from sensors to the proxy — a sampling pass's pushes of one cell, or
one sensor's batch — each frame's ARQ on its sensor's uplink, in order, and
hands every delivered payload to the proxy's ``accept`` with its arrival
instant, at send time.  A downlink (:meth:`Network.send`) runs the
sensor's downlink ARQ and, if delivered, schedules the sensor's
``on_receive`` as a simulator event at the arrival, so the LPL wake-up
latency holds back what the sensor acts on.  The network counts frames
sent, delivered and dropped; frames and their energy are the links'
ledgers.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.energy.constants import RadioConstants
from repro.energy.duty_cycle import DutyCycleConfig
from repro.energy.meter import EnergyMeter
from repro.radio.link import LinkConfig, TransferOutcome
from repro.radio.mac import LplMac
from repro.simulation.kernel import Simulator


@dataclass
class NetworkNode:
    """One addressable endpoint (sensor or proxy)."""

    name: str
    meter: EnergyMeter
    #: a sensor's: takes each delivered downlink payload, at its arrival
    on_receive: Callable[[Any], None] | None = None
    #: takes deliveries at send time, as ``(arrival instant, payload)``
    #: pairs in send order, not by event
    accept: Callable[[list[tuple[float, Any]]], None] | None = None


class Network:
    """Event-driven star network with per-sensor MACs."""

    def __init__(
        self,
        sim: Simulator,
        radio: RadioConstants,
        link_config: LinkConfig,
        default_duty_cycle: DutyCycleConfig,
        rng: np.random.Generator,
    ) -> None:
        self.sim = sim
        self.radio = radio
        self.link_config = link_config
        self.default_duty_cycle = default_duty_cycle
        self._rng = rng
        self._nodes: dict[str, NetworkNode] = {}
        self._macs: dict[str, LplMac] = {}
        self._proxy_name: str | None = None
        self.packets_sent = 0
        self.packets_delivered = 0
        self.packets_dropped = 0

    # -- topology ------------------------------------------------------------

    def register_proxy(self, node: NetworkNode) -> None:
        """Register the cell's proxy endpoint (exactly one)."""
        if self._proxy_name is not None:
            raise ValueError(f"proxy already registered: {self._proxy_name}")
        self._proxy_name = node.name
        self._nodes[node.name] = node

    def register_sensor(self, node: NetworkNode) -> LplMac:
        """Register a sensor and create its MAC to the proxy."""
        if self._proxy_name is None:
            raise ValueError("register the proxy before sensors")
        if node.name in self._nodes:
            raise ValueError(f"duplicate node name {node.name!r}")
        self._nodes[node.name] = node
        mac = LplMac(
            radio=self.radio,
            link_config=self.link_config,
            duty_cycle=self.default_duty_cycle,
            rng=self._rng,
            sensor_meter=node.meter,
            proxy_meter=self._nodes[self._proxy_name].meter,
        )
        self._macs[node.name] = mac
        return mac

    def mac_for(self, sensor_name: str) -> LplMac:
        """The MAC serving *sensor_name*."""
        return self._macs[sensor_name]

    @property
    def sensor_names(self) -> list[str]:
        """All registered sensor names."""
        return list(self._macs)

    # -- transfer ----------------------------------------------------------------

    def send(
        self, sensor: str, payload: Any, payload_bytes: int, energy_category: str
    ) -> TransferOutcome:
        """Send *payload* from the proxy to *sensor* as one *payload_bytes*
        downlink frame; the sensor's ``on_receive`` takes it at its arrival,
        as a simulator event, if the ARQ delivered it.

        Returns the :class:`~repro.radio.link.TransferOutcome`, so the
        caller knows whether the frame got through.
        """
        self.packets_sent += 1
        outcome = self._macs[sensor].send_downlink(payload_bytes, energy_category)
        if not outcome.delivered:
            self.packets_dropped += 1
            return outcome
        self.packets_delivered += 1
        callback = self._nodes[sensor].on_receive
        if callback is not None:
            self.sim.schedule_after(outcome.latency_s, lambda: callback(payload))
        return outcome

    def send_uplinks(
        self,
        senders: list[str],
        payloads: list[Any],
        payload_bytes: int,
        energy_category: str,
    ) -> None:
        """Send one *payload_bytes* frame from each of *senders* (sensor
        names) to the proxy, carrying the matching payload of *payloads*.

        Each frame runs its sensor's uplink ARQ in order, on the star's
        loss stream; the delivered payloads go to the proxy's ``accept``
        in one call, each with its arrival instant.
        """
        macs, now = self._macs, self.sim.now
        arrivals = []
        for sender, payload in zip(senders, payloads):
            delivered, _, latency = macs[sender].uplink.arq(energy_category, payload_bytes, 0)
            if delivered:
                arrivals.append((now + latency, payload))
        self.packets_sent += len(payloads)
        self.packets_delivered += len(arrivals)
        self.packets_dropped += len(payloads) - len(arrivals)
        if arrivals:
            accept = self._nodes[self._proxy_name].accept
            if accept is None:
                raise ValueError("a run of uplinks needs a proxy that accepts at send time")
            accept(arrivals)

    def account_idle_all(self, duration_s: float) -> None:
        """Charge every sensor's idle-listening for *duration_s*."""
        for mac in self._macs.values():
            mac.account_idle(duration_s)

    def set_link_config(
        self, link_config: LinkConfig, sensors: list[str] | None = None
    ) -> None:
        """Apply a new link regime to *sensors* (names), or to every MAC.

        Targeted application is what correlated-regional-loss scenarios
        need: an interference burst can hit one cell — or one hallway of
        sensors within a cell — while the siblings keep their current
        regime.  ``sensors=None`` retunes the whole star (and records the
        config as the network default for later registrations).
        """
        if sensors is None:
            self.link_config = link_config
            targets = list(self._macs.values())
        else:
            unknown = [name for name in sensors if name not in self._macs]
            if unknown:
                raise ValueError(
                    f"unknown sensors {unknown}; have {self.sensor_names}"
                )
            targets = [self._macs[name] for name in sensors]
        for mac in targets:
            mac.set_link_config(link_config)

    @property
    def delivery_ratio(self) -> float:
        """Delivered / sent packets (1.0 when nothing sent)."""
        if self.packets_sent == 0:
            return 1.0
        return self.packets_delivered / self.packets_sent
