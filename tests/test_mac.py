"""Unit tests for the LPL MAC."""

import numpy as np
import pytest

from repro.energy.constants import MICA2_RADIO
from repro.energy.duty_cycle import DutyCycleConfig, lpl_average_power
from repro.energy.meter import EnergyMeter
from repro.radio.link import LinkConfig
from repro.radio.mac import LplMac


def make_mac(check_interval=1.0, loss=0.0, seed=0):
    sensor, proxy = EnergyMeter("sensor"), EnergyMeter("proxy")
    mac = LplMac(
        MICA2_RADIO,
        LinkConfig(loss_probability=loss),
        DutyCycleConfig(check_interval_s=check_interval),
        np.random.default_rng(seed),
        sensor_meter=sensor,
        proxy_meter=proxy,
    )
    return mac, sensor, proxy


class TestUplink:
    def test_uses_short_preamble(self):
        mac, sensor, _ = make_mac(check_interval=10.0)
        mac.send_uplink(16)
        # a 10 s LPL preamble would cost ~0.8 J; short preamble is ~1 mJ
        assert 0 < sensor.category_j("radio.tx") < 0.01

    def test_charges_sensor_for_tx(self):
        mac, sensor, proxy = make_mac()
        mac.send_uplink(16)
        assert sensor.group_j("radio") > 0
        assert proxy.category_j("radio.rx") > 0


class TestDownlink:
    def test_pays_stretched_preamble(self):
        mac_fast, _, proxy_fast = make_mac(check_interval=0.125)
        mac_slow, _, proxy_slow = make_mac(check_interval=4.0)
        mac_fast.send_downlink(16)
        mac_slow.send_downlink(16)
        assert proxy_slow.category_j("radio.tx") > 4 * proxy_fast.category_j("radio.tx") > 0

    def test_latency_includes_wakeup_wait(self):
        mac, _, _ = make_mac(check_interval=8.0)
        outcome = mac.send_downlink(16)
        assert outcome.latency_s >= 4.0  # half the check interval

    def test_sensor_pays_rx(self):
        mac, sensor, _ = make_mac()
        mac.send_downlink(16)
        assert sensor.category_j("radio.rx") > 0


class TestIdleAccounting:
    def test_idle_energy_linear(self):
        mac, sensor, _ = make_mac(check_interval=1.0)
        mac.account_idle(3600.0)
        one = sensor.category_j("radio.lpl")
        assert one == pytest.approx(3600.0 * lpl_average_power(MICA2_RADIO, mac.duty_cycle))
        mac.account_idle(3600.0)
        assert sensor.category_j("radio.lpl") == pytest.approx(2 * one)

    def test_longer_interval_cheaper_idle(self):
        mac_fast, fast, _ = make_mac(check_interval=0.25)
        mac_slow, slow, _ = make_mac(check_interval=8.0)
        mac_fast.account_idle(3600.0)
        mac_slow.account_idle(3600.0)
        assert slow.category_j("radio.lpl") < fast.category_j("radio.lpl")

    def test_negative_duration_rejected(self):
        mac, _, _ = make_mac()
        with pytest.raises(ValueError):
            mac.account_idle(-1.0)


class TestRetune:
    def test_set_check_interval_changes_costs(self):
        mac, sensor, _ = make_mac(check_interval=1.0)
        mac.account_idle(3600.0)
        before = sensor.category_j("radio.lpl")
        mac.set_check_interval(30.0)
        mac.account_idle(3600.0)
        after = sensor.category_j("radio.lpl") - before
        assert after < before / 5

    def test_stats_track_frames(self):
        mac, _, _ = make_mac()
        mac.send_uplink(8)
        mac.send_uplink(8)
        mac.send_downlink(8)
        assert mac.stats.uplink_frames == 2
        assert mac.stats.downlink_frames == 1


class TestLinkSwap:
    def test_link_config_property_tracks_swap(self):
        mac, _, _ = make_mac(loss=0.0)
        original = mac.link_config
        assert original.loss_probability == 0.0
        elevated = LinkConfig(loss_probability=0.5)
        mac.set_link_config(elevated)
        assert mac.link_config is elevated
        mac.set_link_config(original)
        assert mac.link_config is original

    def test_swap_changes_loss_behaviour_immediately(self):
        mac, _, _ = make_mac(loss=0.0, seed=3)
        for _ in range(20):
            assert mac.send_uplink(8).delivered
        mac.set_link_config(LinkConfig(loss_probability=0.95, max_retries=0))
        outcomes = [mac.send_uplink(8).delivered for _ in range(40)]
        assert not all(outcomes)
