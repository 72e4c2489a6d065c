"""Lossy link with ARQ (stop-and-wait retransmission), and its own energy ledger.

Sensor-network links are unreliable (Ganesan et al. [4] measured loss well
above 10% at scale); PRESTO's pushes must survive anyway.  The link model
applies an independent loss probability per transmission attempt, retries up
to a cap, and reports delivery latency including retransmission backoffs.

A frame's energy is a count times a per-frame constant, so the link keeps
the counts and its endpoints' meters read them (``EnergyMeter.counted``):
per (energy category, frame shape) the attempts, deliveries and drops.  The
sender pays every attempt's TX energy — lost ones too: the sender pays
whether or not anyone hears — plus an ACK listen per delivery; the receiver
pays RX per delivery.  :attr:`LossyLink.stats` is the same ledger summed.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from repro.energy.constants import RadioConstants
from repro.energy.meter import Count, EnergyMeter
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


class _Tally:
    """The ledger row of one (energy category, frame shape): its frame's
    costs, and the attempts, deliveries and drops counted against them."""

    __slots__ = ("frame", "attempts", "deliveries", "drops")

    def __init__(self, frame: _Frame) -> None:
        self.frame = frame
        self.attempts = 0
        self.deliveries = 0
        self.drops = 0


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
        #: per ``(payload_bytes, lpl_preamble_bytes)``: what every attempt costs
        self._frames: dict[tuple[int, int], _Frame] = {}
        #: per ``(energy category, payload_bytes, lpl_preamble_bytes)``
        self._ledger: dict[tuple[str, int, int], _Tally] = {}
        sender_meter.counted.append(self._sent)
        receiver_meter.counted.append(self._heard)

    def _frame(self, payload_bytes: int, lpl_preamble_bytes: int) -> _Frame:
        """The per-attempt costs of a frame shape, computed once per shape."""
        key = (payload_bytes, lpl_preamble_bytes)
        frame = self._frames.get(key)
        if frame is None:
            if payload_bytes < 0:
                raise ValueError(f"negative payload size {payload_bytes!r}")
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

    def arq(
        self, energy_category: str, payload_bytes: int, lpl_preamble_bytes: int
    ) -> tuple[bool, int, float]:
        """Send one frame with stop-and-wait ARQ on the link's loss stream:
        ``(delivered, attempts, latency_s)``.  The attempts and the delivery
        or drop are counted in the frame's ledger row; the link regime
        (:attr:`config`) is read per frame, so a swap applies from the next.
        The latency is summed term by term, attempt after attempt."""
        key = (energy_category, payload_bytes, lpl_preamble_bytes)
        tally = self._ledger.get(key)
        if tally is None:
            tally = self._ledger[key] = _Tally(self._frame(payload_bytes, lpl_preamble_bytes))
        frame, config, draw = tally.frame, self.config, self._rng.random
        attempts = 0
        latency = 0.0
        while attempts <= config.max_retries:
            attempts += 1
            latency += frame.airtime_s
            latency += config.propagation_s
            if draw() >= config.loss_probability:
                latency += frame.ack_s
                tally.attempts += attempts
                tally.deliveries += 1
                return True, attempts, latency
            latency += config.backoff_s
        tally.attempts += attempts
        tally.drops += 1
        return False, attempts, latency

    def transfer(
        self,
        payload_bytes: int,
        lpl_preamble_bytes: int = 0,
        energy_category: str = "radio.tx",
    ) -> TransferOutcome:
        """Send one frame with ARQ (see :meth:`arq`) and return the outcome."""
        return TransferOutcome(*self.arq(energy_category, payload_bytes, lpl_preamble_bytes))

    # -- the ledger ------------------------------------------------------------

    def _sent(self) -> Iterator[Count]:
        """The sender's counts: every attempt's TX, each delivery's ACK listen."""
        for (category, _, _), tally in self._ledger.items():
            yield category, tally.frame.tx_j, tally.attempts
            yield category, tally.frame.ack_j, tally.deliveries

    def _heard(self) -> Iterator[Count]:
        """The receiver's counts: each delivered frame's RX."""
        for tally in self._ledger.values():
            yield "radio.rx", tally.frame.rx_j, tally.deliveries

    def deliveries(self, energy_category: str) -> int:
        """Frames delivered under *energy_category*."""
        return sum(
            tally.deliveries
            for (category, _, _), tally in self._ledger.items()
            if category == energy_category
        )

    @property
    def stats(self) -> LinkStats:
        """The ledger summed over categories and frame shapes."""
        stats = LinkStats()
        for (_, payload_bytes, _), tally in self._ledger.items():
            stats.attempts += tally.attempts
            stats.deliveries += tally.deliveries
            stats.drops += tally.drops
            stats.bytes_delivered += tally.deliveries * payload_bytes
        stats.losses = stats.attempts - stats.deliveries
        return stats
