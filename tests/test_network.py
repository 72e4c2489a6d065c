"""Unit tests for the star network."""

import numpy as np
import pytest

from repro.energy.constants import MICA2_RADIO
from repro.energy.duty_cycle import DutyCycleConfig
from repro.energy.meter import EnergyMeter
from repro.radio.link import LinkConfig
from repro.radio.network import Network, NetworkNode
from repro.radio.packet import Packet, PacketKind
from repro.simulation.kernel import Simulator


def make_network(loss=0.0, n_sensors=2, seed=0):
    sim = Simulator()
    network = Network(
        sim,
        MICA2_RADIO,
        LinkConfig(loss_probability=loss),
        DutyCycleConfig(check_interval_s=1.0),
        np.random.default_rng(seed),
    )
    received: list[Packet] = []
    proxy = NetworkNode("proxy", EnergyMeter("proxy"), received.append)
    network.register_proxy(proxy)
    sensors = []
    for i in range(n_sensors):
        node = NetworkNode(f"s{i}", EnergyMeter(f"s{i}"), received.append)
        network.register_sensor(node)
        sensors.append(node)
    return sim, network, sensors, received


class TestTopology:
    def test_single_proxy_enforced(self):
        sim, network, _, _ = make_network()
        with pytest.raises(ValueError):
            network.register_proxy(NetworkNode("p2", EnergyMeter("p2")))

    def test_sensor_before_proxy_rejected(self):
        sim = Simulator()
        network = Network(
            sim, MICA2_RADIO, LinkConfig(), DutyCycleConfig(1.0),
            np.random.default_rng(0),
        )
        with pytest.raises(ValueError):
            network.register_sensor(NetworkNode("s0", EnergyMeter("s0")))

    def test_duplicate_sensor_rejected(self):
        _, network, _, _ = make_network()
        with pytest.raises(ValueError):
            network.register_sensor(NetworkNode("s0", EnergyMeter("dup")))

    def test_sensor_names(self):
        _, network, _, _ = make_network(n_sensors=3)
        assert network.sensor_names == ["s0", "s1", "s2"]


class TestDelivery:
    def test_uplink_delivery_via_event(self):
        sim, network, _, received = make_network()
        packet = Packet(PacketKind.PUSH, "s0", "proxy", 16)
        outcome = network.send(packet)
        assert outcome.delivered
        assert received == []  # not yet: scheduled
        sim.run_until(1.0)
        assert received == [packet]

    def test_downlink_delivery(self):
        sim, network, _, received = make_network()
        packet = Packet(PacketKind.MODEL_UPDATE, "proxy", "s1", 64)
        assert network.send(packet).delivered
        sim.run_until(10.0)
        assert received == [packet]

    def test_sensor_to_sensor_rejected(self):
        _, network, _, _ = make_network()
        with pytest.raises(ValueError):
            network.send(Packet(PacketKind.PUSH, "s0", "s1", 8))

    def test_drop_statistics(self):
        sim, network, _, received = make_network(loss=0.99, seed=5)
        for _ in range(30):
            network.send(Packet(PacketKind.PUSH, "s0", "proxy", 8))
        sim.run_until(100.0)
        assert network.packets_dropped > 0
        assert network.packets_delivered == len(received)
        assert network.delivery_ratio < 1.0

    def test_created_at_stamped(self):
        sim, network, _, _ = make_network()
        sim.run_until(5.0)
        packet = Packet(PacketKind.PUSH, "s0", "proxy", 8)
        network.send(packet)
        assert packet.created_at == 5.0

    def test_account_idle_all_charges_every_sensor(self):
        _, network, sensors, _ = make_network(n_sensors=3)
        network.account_idle_all(3600.0)
        for node in sensors:
            assert node.meter.category_j("radio.lpl") > 0

    def test_bytes_counted(self):
        sim, network, _, _ = make_network()
        network.send(Packet(PacketKind.PUSH, "s0", "proxy", 100))
        assert network.mac_for("s0").uplink.stats.bytes_delivered == 100


class TestPacketValidation:
    def test_negative_payload_rejected(self):
        with pytest.raises(ValueError):
            Packet(PacketKind.PUSH, "a", "b", -1)


class TestTargetedLinkConfig:
    """Per-sensor/per-cell link retuning for regional-loss scenarios."""

    def test_targeted_burst_flips_only_addressed_sensors(self):
        _, network, _, _ = make_network(loss=0.0, n_sensors=3)
        original = network.link_config
        burst = LinkConfig(loss_probability=0.9)
        network.set_link_config(burst, sensors=["s1"])
        assert network.mac_for("s1").link_config is burst
        for name in ("s0", "s2"):
            assert network.mac_for(name).link_config is original
        # the network default stays what later registrations should get
        assert network.link_config is original

    def test_targeted_restore_returns_original_config(self):
        _, network, _, _ = make_network(loss=0.0, n_sensors=2)
        original = network.link_config
        burst = LinkConfig(loss_probability=0.9)
        network.set_link_config(burst, sensors=["s0"])
        network.set_link_config(original, sensors=["s0"])
        for name in ("s0", "s1"):
            assert network.mac_for(name).link_config is original

    def test_unknown_target_rejected(self):
        _, network, _, _ = make_network(n_sensors=2)
        before = [network.mac_for(n).link_config for n in network.sensor_names]
        with pytest.raises(ValueError, match="unknown sensors"):
            network.set_link_config(
                LinkConfig(loss_probability=0.5), sensors=["s1", "nope"]
            )
        # a rejected call must not have partially applied
        after = [network.mac_for(n).link_config for n in network.sensor_names]
        assert after == before

    def test_set_all_updates_default_and_every_mac(self):
        _, network, _, _ = make_network(loss=0.0, n_sensors=3)
        burst = LinkConfig(loss_probability=0.7)
        network.set_link_config(burst)
        assert network.link_config is burst
        for name in network.sensor_names:
            assert network.mac_for(name).link_config is burst
