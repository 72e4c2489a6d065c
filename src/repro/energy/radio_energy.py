"""Per-packet radio energy arithmetic.

The paper's Figure 2 rests on one observation: each packet pays a fixed
overhead (preamble, header, CRC, ACK, MAC turnaround) regardless of payload,
so batching many readings into fewer, larger packets amortises that overhead.
These helpers compute the exact costs from :class:`RadioConstants` and are
shared by the MAC simulation and the analytic benchmarks.
"""

from __future__ import annotations

import math

from repro.energy.constants import RadioConstants


def packets_for_payload(radio: RadioConstants, payload_bytes: int) -> int:
    """Number of frames needed to carry *payload_bytes* (>= 1 packet)."""
    if payload_bytes < 0:
        raise ValueError(f"negative payload {payload_bytes!r}")
    if payload_bytes == 0:
        return 1
    return math.ceil(payload_bytes / radio.max_payload_bytes)


def packet_airtime(
    radio: RadioConstants, payload_bytes: int, lpl_preamble_bytes: int = 0
) -> float:
    """Airtime in seconds of a single frame carrying *payload_bytes*.

    ``lpl_preamble_bytes`` extends the preamble for low-power listening;
    0 means the default short preamble.
    """
    preamble = max(radio.preamble_bytes, lpl_preamble_bytes)
    total_bytes = preamble + radio.header_bytes + payload_bytes + radio.crc_bytes
    return total_bytes * radio.byte_time_s


def transmit_energy(
    radio: RadioConstants, payload_bytes: int, lpl_preamble_bytes: int = 0
) -> float:
    """Sender-side joules for one frame: startup + airtime at TX power."""
    airtime = packet_airtime(radio, payload_bytes, lpl_preamble_bytes)
    startup = radio.startup_time_s * radio.startup_power_w
    return startup + airtime * radio.tx_power_w


def receive_energy(
    radio: RadioConstants, payload_bytes: int, lpl_preamble_bytes: int = 0
) -> float:
    """Receiver-side joules for one frame (listens to the whole airtime)."""
    airtime = packet_airtime(radio, payload_bytes, lpl_preamble_bytes)
    startup = radio.startup_time_s * radio.startup_power_w
    return startup + airtime * radio.rx_power_w


def ack_rx_energy(radio: RadioConstants) -> float:
    """Joules the *sender* spends receiving the link-layer ACK."""
    ack_airtime = (radio.preamble_bytes + radio.ack_bytes) * radio.byte_time_s
    return ack_airtime * radio.rx_power_w


def burst_transfer_energy(
    radio: RadioConstants,
    payload_bytes: int,
    rendezvous_preamble_bytes: int,
    acked: bool = True,
) -> float:
    """Sender joules for one *burst*: rendezvous preamble, then packets.

    Under low-power-listening, the first frame of a transmission pays a
    preamble long enough to cover the receiver's channel-check interval;
    once the receiver is awake, the remaining frames of the burst use the
    short preamble.  This is the per-message "MAC-layer preamble" overhead
    the paper's Figure 2 discussion amortises through batching.
    """
    count = packets_for_payload(radio, payload_bytes)
    remaining = payload_bytes
    energy = 0.0
    for index in range(count):
        chunk = min(remaining, radio.max_payload_bytes)
        preamble = rendezvous_preamble_bytes if index == 0 else 0
        energy += transmit_energy(radio, chunk, preamble)
        if acked:
            energy += ack_rx_energy(radio)
        remaining -= chunk
    return energy


def transfer_energy(
    radio: RadioConstants,
    payload_bytes: int,
    lpl_preamble_bytes: int = 0,
    acked: bool = True,
) -> float:
    """Total sender joules to move *payload_bytes*, fragmented as needed.

    This is the analytic cost used by the Figure 2 harness: the payload is
    split into MTU-sized frames, each paying preamble/header/CRC overhead and
    (if *acked*) the ACK-listen cost.
    """
    count = packets_for_payload(radio, payload_bytes)
    remaining = payload_bytes
    energy = 0.0
    for _ in range(count):
        chunk = min(remaining, radio.max_payload_bytes)
        energy += transmit_energy(radio, chunk, lpl_preamble_bytes)
        if acked:
            energy += ack_rx_energy(radio)
        remaining -= chunk
    return energy
