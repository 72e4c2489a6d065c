"""Unit tests for the lossy link with ARQ."""

import numpy as np
import pytest

from repro.energy.constants import MICA2_RADIO
from repro.energy.duty_cycle import DutyCycleConfig
from repro.energy.meter import EnergyMeter
from repro.energy.radio_energy import (
    ack_rx_energy,
    packet_airtime,
    receive_energy,
    transmit_energy,
)
from repro.radio.link import LinkConfig, LinkStats, LossyLink, TransferOutcome
from repro.radio.mac import LplMac


def make_link(loss=0.0, max_retries=5, seed=0):
    sender, receiver = EnergyMeter("s"), EnergyMeter("r")
    link = LossyLink(
        MICA2_RADIO,
        LinkConfig(loss_probability=loss, max_retries=max_retries),
        np.random.default_rng(seed),
        sender_meter=sender,
        receiver_meter=receiver,
    )
    return link, sender, receiver


class TestLinkConfig:
    def test_invalid_loss_rejected(self):
        with pytest.raises(ValueError):
            LinkConfig(loss_probability=1.0)
        with pytest.raises(ValueError):
            LinkConfig(loss_probability=-0.1)

    def test_invalid_retries_rejected(self):
        with pytest.raises(ValueError):
            LinkConfig(max_retries=-1)


class TestLossless:
    def test_delivers_first_attempt(self):
        link, _, _ = make_link(loss=0.0)
        outcome = link.transfer(32)
        assert outcome.delivered and outcome.attempts == 1

    def test_charges_both_meters(self):
        link, sender, receiver = make_link(loss=0.0)
        link.transfer(32)
        assert sender.total_j > 0
        assert receiver.total_j > 0

    def test_sender_pays_more_than_receiver_on_mica2(self):
        link, sender, receiver = make_link(loss=0.0)
        link.transfer(32)
        assert sender.total_j > receiver.total_j

    def test_latency_includes_airtime(self):
        link, _, _ = make_link(loss=0.0)
        small = link.transfer(8).latency_s
        large = link.transfer(64).latency_s
        assert large > small


class TestLossy:
    def test_retries_until_delivery(self):
        link, _, _ = make_link(loss=0.5, seed=3)
        outcomes = [link.transfer(16) for _ in range(50)]
        assert all(o.delivered for o in outcomes)
        assert any(o.attempts > 1 for o in outcomes)

    def test_lost_attempts_still_cost_sender(self):
        lossless, sender_a, _ = make_link(loss=0.0)
        lossy, sender_b, _ = make_link(loss=0.7, seed=5)
        lossless.transfer(16)
        outcome = lossy.transfer(16)
        if outcome.attempts > 1:
            assert sender_b.total_j > sender_a.total_j

    def test_gives_up_after_max_retries(self):
        link, _, _ = make_link(loss=0.99, max_retries=2, seed=7)
        outcomes = [link.transfer(16) for _ in range(200)]
        drops = [o for o in outcomes if not o.delivered]
        assert drops
        assert all(o.attempts == 3 for o in drops)

    def test_receiver_not_charged_on_total_loss(self):
        link, _, receiver = make_link(loss=0.999, max_retries=0, seed=9)
        for _ in range(50):
            link.transfer(16)
        # at most a couple of lucky deliveries
        assert link.stats.deliveries <= 2
        if link.stats.deliveries == 0:
            assert receiver.total_j == 0.0

    def test_stats_consistent(self):
        link, _, _ = make_link(loss=0.3, seed=11)
        for _ in range(100):
            link.transfer(16)
        stats = link.stats
        assert stats.deliveries + stats.drops == 100
        assert stats.attempts == stats.deliveries + stats.losses \
            or stats.attempts >= stats.deliveries


# -- memoised frame costs ----------------------------------------------------------
#
# LossyLink.transfer computes each frame shape's joules and airtime once; the
# reference below is the loop it replaced, every attempt's costs computed
# afresh from the radio_energy functions and recorded one attempt at a time.


def per_attempt_transfer(radio, config, rng, stats, meters, payload_bytes, lpl_preamble_bytes):
    """``LossyLink.transfer`` as it was."""
    sender, receiver = meters
    attempts = 0
    latency = 0.0
    delivered = False
    receiver.record("radio.rx", receive_energy(radio, payload_bytes, 0), 0)
    while attempts <= config.max_retries:
        attempts += 1
        stats.attempts += 1
        sender.record("radio.tx", transmit_energy(radio, payload_bytes, lpl_preamble_bytes))
        latency += packet_airtime(radio, payload_bytes, lpl_preamble_bytes)
        latency += config.propagation_s
        if rng.random() >= config.loss_probability:
            delivered = True
            receiver.record("radio.rx", receive_energy(radio, payload_bytes, 0))
            sender.record("radio.tx", ack_rx_energy(radio))
            latency += (radio.preamble_bytes + radio.ack_bytes) * radio.byte_time_s
            stats.deliveries += 1
            stats.bytes_delivered += payload_bytes
            break
        stats.losses += 1
        latency += config.backoff_s
    if not delivered:
        stats.drops += 1
    return TransferOutcome(delivered, attempts, latency)


REGIMES = (
    LinkConfig(loss_probability=0.3, max_retries=4, backoff_s=0.05),
    LinkConfig(loss_probability=0.8, max_retries=2, backoff_s=0.013),
    LinkConfig(loss_probability=0.0, max_retries=0, backoff_s=0.2, propagation_s=3e-4),
)
SIZES = (12, 8, 29, 12, 100, 12)


class TestMemoisedFrames:
    def test_uplink_matches_per_attempt_across_link_changes(self):
        link, sender, receiver = make_link(loss=REGIMES[0].loss_probability, seed=21)
        rng = np.random.default_rng(21)
        stats, meters = LinkStats(), (EnergyMeter("s"), EnergyMeter("r"))
        for regime in REGIMES:
            link.config = regime          # what LplMac.set_link_config does
            for payload in SIZES * 5:
                ours = link.transfer(payload)
                theirs = per_attempt_transfer(
                    MICA2_RADIO, regime, rng, stats, meters, payload, 0
                )
                assert ours == theirs     # bit for bit, latency included
        assert link.stats == stats
        assert (sender.snapshot(), receiver.snapshot()) == tuple(m.snapshot() for m in meters)
        assert stats.losses and stats.drops and stats.deliveries

    def test_downlink_matches_per_attempt_across_check_intervals(self):
        sensor, proxy = EnergyMeter("sensor"), EnergyMeter("proxy")
        mac = LplMac(
            MICA2_RADIO,
            REGIMES[0],
            DutyCycleConfig(check_interval_s=1.0),
            np.random.default_rng(5),
            sensor_meter=sensor,
            proxy_meter=proxy,
        )
        rng = np.random.default_rng(5)
        stats, meters = LinkStats(), (EnergyMeter("p"), EnergyMeter("s"))
        preambles = set()
        for interval, regime in ((1.0, REGIMES[0]), (4.0, REGIMES[0]), (0.25, REGIMES[1]),
                                 (1.0, REGIMES[1])):
            mac.set_check_interval(interval)
            mac.set_link_config(regime)
            preamble = DutyCycleConfig(check_interval_s=interval).lpl_preamble_bytes(
                MICA2_RADIO
            )
            preambles.add(preamble)
            for payload in SIZES * 3:
                ours = mac.send_downlink(payload)
                theirs = per_attempt_transfer(
                    MICA2_RADIO, regime, rng, stats, meters, payload, preamble
                )
                assert ours == theirs._replace(latency_s=theirs.latency_s + interval / 2.0)
        assert len(preambles) == 3
        assert mac.downlink.stats == stats
        assert (proxy.snapshot(), sensor.snapshot()) == tuple(m.snapshot() for m in meters)
