"""Star network between a proxy and its sensors.

The PRESTO middle tier manages "several tens of lower-tier sensors in its
vicinity"; within one cell the topology is a star (sensor ↔ proxy, one hop).
The network object owns one :class:`~repro.radio.mac.LplMac` per sensor and
runs each transfer's ARQ when it is sent, every MAC drawing from the star's
one loss stream.  A receiver that takes deliveries at send time (the
proxy's ``accept``) is handed ``(arrival instant, payload)`` pairs; a
sensor's ``on_receive`` runs as a simulator event at the arrival, so such
an event serves sensors only.

Pushes leave as runs: :meth:`Network.send_uplinks` sends a sampling pass's
pushes of one cell in one call — each frame's ARQ on its sensor's uplink,
in order, and every delivered payload handed to the proxy at once — which
is what one :meth:`Network.send` per push did, without a packet or an
outcome per push.  The network counts packets sent, delivered and dropped;
frames and their energy are the links' ledgers.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.energy.constants import RadioConstants
from repro.energy.duty_cycle import DutyCycleConfig
from repro.energy.meter import EnergyMeter
from repro.radio.link import LinkConfig
from repro.radio.mac import LplMac
from repro.radio.packet import Packet
from repro.simulation.kernel import Simulator


@dataclass
class NetworkNode:
    """One addressable endpoint (sensor or proxy)."""

    name: str
    meter: EnergyMeter
    on_receive: Callable[[Packet], None] | None = None
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

    def send(self, packet: Packet, energy_category: str = "radio.tx"):
        """Send *packet*; hands it to its receiver if the ARQ succeeded.

        Returns the :class:`~repro.radio.link.TransferOutcome` so callers can
        read both ``delivered`` and the latency (the proxy's pull path sums
        round-trip latencies analytically).  The receiver's ``accept`` takes
        it now, else its callback runs via the simulator at delivery time.
        """
        self.packets_sent += 1
        packet.created_at = self.sim.now
        if packet.src == self._proxy_name:
            mac = self._macs[packet.dst]
            outcome = mac.send_downlink(packet.payload_bytes, energy_category)
        elif packet.dst == self._proxy_name:
            mac = self._macs[packet.src]
            outcome = mac.send_uplink(packet.payload_bytes, energy_category)
        else:
            raise ValueError(
                f"star topology: one endpoint must be the proxy "
                f"({packet.src} -> {packet.dst})"
            )
        if not outcome.delivered:
            self.packets_dropped += 1
            return outcome
        self.packets_delivered += 1
        receiver = self._nodes[packet.dst]
        if receiver.accept is not None:
            receiver.accept([(self.sim.now + outcome.latency_s, packet.payload)])
        elif receiver.on_receive is not None:
            callback = receiver.on_receive
            self.sim.schedule_after(outcome.latency_s, lambda: callback(packet))
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

        Each frame runs its sensor's uplink ARQ in order, so the star's
        loss stream is drawn as one :meth:`send` per frame would draw it;
        the delivered payloads go to the proxy's ``accept`` in one call.
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
