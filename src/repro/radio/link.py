"""Lossy link with ARQ (stop-and-wait retransmission).

Sensor-network links are unreliable (Ganesan et al. [4] measured loss well
above 10% at scale); PRESTO's pushes must survive anyway.  The link model
applies an independent loss probability per transmission attempt, retries up
to a cap, counts *every* attempt on the sender's meter (including lost
ones — the sender pays whether or not anyone hears), and reports delivery
latency including retransmission backoffs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from repro.energy.constants import RadioConstants
from repro.energy.meter import EnergyMeter
from repro.energy.radio_energy import (
    ack_rx_energy,
    packet_airtime,
    receive_energy,
    transmit_energy,
)


@dataclass(frozen=True)
class LinkConfig:
    """Per-link parameters."""

    loss_probability: float = 0.1
    max_retries: int = 5
    backoff_s: float = 0.05        # pause before a retransmission
    propagation_s: float = 1e-4    # one-hop propagation + processing

    def __post_init__(self) -> None:
        if not 0.0 <= self.loss_probability < 1.0:
            raise ValueError(
                f"loss probability must be in [0, 1), got {self.loss_probability}"
            )
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")


@dataclass
class LinkStats:
    """Counters for one link direction."""

    attempts: int = 0
    deliveries: int = 0
    losses: int = 0
    drops: int = 0            # gave up after max retries
    bytes_delivered: int = 0


class TransferOutcome(NamedTuple):
    """Result of one logical transfer over the link."""

    delivered: bool
    attempts: int
    latency_s: float


class _Frame(NamedTuple):
    """Per-attempt costs of one frame shape, from the radio's constants."""

    tx_j: float         # sender: startup + airtime at TX power
    airtime_s: float
    rx_j: float         # receiver: the normal frame (no LPL preamble body)
    ack_j: float        # sender: listening to the ACK
    ack_s: float        # ACK preamble + ACK on the air


class LossyLink:
    """One direction of a radio link between two named endpoints."""

    def __init__(
        self,
        radio: RadioConstants,
        config: LinkConfig,
        rng: np.random.Generator,
        sender_meter: EnergyMeter,
        receiver_meter: EnergyMeter,
    ) -> None:
        self.radio = radio
        self.config = config
        self._rng = rng
        self.sender_meter = sender_meter
        self.receiver_meter = receiver_meter
        self.stats = LinkStats()
        #: per ``(payload_bytes, lpl_preamble_bytes)``: what every attempt costs
        self._frames: dict[tuple[int, int], _Frame] = {}

    def _frame(self, payload_bytes: int, lpl_preamble_bytes: int) -> _Frame:
        """The per-attempt costs of a frame shape, computed once per shape."""
        key = (payload_bytes, lpl_preamble_bytes)
        frame = self._frames.get(key)
        if frame is None:
            radio = self.radio
            frame = self._frames[key] = _Frame(
                tx_j=transmit_energy(radio, payload_bytes, lpl_preamble_bytes),
                airtime_s=packet_airtime(radio, payload_bytes, lpl_preamble_bytes),
                # The receiver wakes at the tail of a stretched LPL preamble,
                # so it never pays RX for the preamble body — only for the
                # normal frame (its periodic channel checks are accounted
                # separately by the MAC's idle bookkeeping).
                rx_j=receive_energy(radio, payload_bytes, 0),
                ack_j=ack_rx_energy(radio),
                ack_s=(radio.preamble_bytes + radio.ack_bytes) * radio.byte_time_s,
            )
        return frame

    def transfer(
        self,
        payload_bytes: int,
        lpl_preamble_bytes: int = 0,
        energy_category: str = "radio.tx",
    ) -> TransferOutcome:
        """Send one frame with ARQ; counts it on both meters and returns
        the outcome.

        The *sender* pays a frame's TX energy per attempt plus the ACK
        listen on success; the *receiver* pays RX energy for the attempt it
        hears.  Lost attempts still cost the sender in full.  The link regime
        (:attr:`config`) is read per transfer, so a swap applies from the
        next one.
        """
        frame = self._frame(payload_bytes, lpl_preamble_bytes)
        config, stats, draw = self.config, self.stats, self._rng.random
        attempts = 0
        latency = 0.0
        delivered = False
        while attempts <= config.max_retries:
            attempts += 1
            stats.attempts += 1
            latency += frame.airtime_s
            latency += config.propagation_s
            if draw() >= config.loss_probability:
                delivered = True
                latency += frame.ack_s
                stats.deliveries += 1
                stats.bytes_delivered += payload_bytes
                break
            stats.losses += 1
            latency += config.backoff_s
        if not delivered:
            stats.drops += 1
        # a delivery is one ACK heard and one frame received (bool counts 0 or 1)
        self.sender_meter.record(energy_category, frame.tx_j, attempts)
        self.sender_meter.record(energy_category, frame.ack_j, delivered)
        self.receiver_meter.record("radio.rx", frame.rx_j, delivered)
        return TransferOutcome(delivered, attempts, latency)
