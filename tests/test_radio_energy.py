"""Unit tests for per-packet radio energy arithmetic."""

import pytest

from repro.energy.constants import MICA2_RADIO, TELOS_RADIO
from repro.energy.radio_energy import (
    ack_rx_energy,
    burst_transfer_energy,
    packet_airtime,
    packets_for_payload,
    receive_energy,
    transfer_energy,
    transmit_energy,
)


class TestPacketArithmetic:
    def test_zero_payload_needs_one_packet(self):
        assert packets_for_payload(MICA2_RADIO, 0) == 1

    def test_exact_mtu_is_one_packet(self):
        assert packets_for_payload(MICA2_RADIO, MICA2_RADIO.max_payload_bytes) == 1

    def test_mtu_plus_one_is_two_packets(self):
        assert packets_for_payload(MICA2_RADIO, MICA2_RADIO.max_payload_bytes + 1) == 2

    def test_negative_payload_raises(self):
        with pytest.raises(ValueError):
            packets_for_payload(MICA2_RADIO, -1)

    def test_airtime_scales_with_payload(self):
        assert packet_airtime(MICA2_RADIO, 64) > packet_airtime(MICA2_RADIO, 8)

    def test_airtime_uses_lpl_preamble_when_longer(self):
        short = packet_airtime(MICA2_RADIO, 8)
        long = packet_airtime(MICA2_RADIO, 8, lpl_preamble_bytes=1000)
        assert long > short


class TestEnergies:
    def test_tx_exceeds_rx_on_mica2(self):
        # CC1000 TX draws more than RX at 0 dBm
        assert transmit_energy(MICA2_RADIO, 32) > receive_energy(MICA2_RADIO, 32)

    def test_rx_exceeds_tx_on_telos(self):
        # CC2420 listening costs more than transmitting at 0 dBm
        assert receive_energy(TELOS_RADIO, 32) > transmit_energy(TELOS_RADIO, 32)

    def test_ack_energy_positive_and_small(self):
        ack = ack_rx_energy(MICA2_RADIO)
        assert 0 < ack < transmit_energy(MICA2_RADIO, 32)

    def test_transfer_fragments_charge_overhead_per_packet(self):
        one = transfer_energy(MICA2_RADIO, MICA2_RADIO.max_payload_bytes)
        two = transfer_energy(MICA2_RADIO, MICA2_RADIO.max_payload_bytes * 2)
        # two fragments pay two overheads: strictly more than 2x payload-only
        assert two > 2.0 * one * 0.99
        assert two < 2.2 * one

    def test_transfer_monotone_in_payload(self):
        energies = [transfer_energy(MICA2_RADIO, n) for n in (8, 64, 256, 1024)]
        assert energies == sorted(energies)

    def test_unacked_transfer_cheaper(self):
        assert transfer_energy(MICA2_RADIO, 64, acked=False) < transfer_energy(
            MICA2_RADIO, 64, acked=True
        )


class TestBurstTransfer:
    def test_single_packet_pays_rendezvous(self):
        base = transfer_energy(MICA2_RADIO, 8)
        burst = burst_transfer_energy(MICA2_RADIO, 8, rendezvous_preamble_bytes=1000)
        assert burst > base

    def test_rendezvous_paid_once_per_burst(self):
        # 10 MTU-sized packets: only the first carries the long preamble
        payload = MICA2_RADIO.max_payload_bytes * 10
        burst = burst_transfer_energy(MICA2_RADIO, payload, 2000)
        ten_singles = 10 * burst_transfer_energy(
            MICA2_RADIO, MICA2_RADIO.max_payload_bytes, 2000
        )
        assert burst < ten_singles * 0.6

    def test_amortisation_improves_with_batching(self):
        # energy per byte strictly falls as the burst grows
        per_byte = [
            burst_transfer_energy(MICA2_RADIO, n, 2000) / n
            for n in (16, 64, 256, 1024, 4096)
        ]
        assert all(a > b for a, b in zip(per_byte, per_byte[1:]))
