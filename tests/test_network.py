"""Unit tests for the star network."""

import numpy as np
import pytest

from repro.energy.constants import MICA2_RADIO
from repro.energy.duty_cycle import DutyCycleConfig
from repro.energy.meter import EnergyMeter
from repro.radio.link import LinkConfig
from repro.radio.network import Network, NetworkNode
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
    #: ``(simulated time taken, payload)`` per delivery, at either end
    received: list = []
    proxy = NetworkNode(
        "proxy",
        EnergyMeter("proxy"),
        accept=lambda arrivals: received.extend((sim.now, arrival) for arrival in arrivals),
    )
    network.register_proxy(proxy)
    sensors = []
    for i in range(n_sensors):
        node = NetworkNode(
            f"s{i}", EnergyMeter(f"s{i}"), lambda payload: received.append((sim.now, payload))
        )
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
    def test_downlink_delivery(self):
        """A delivered downlink reaches the sensor once, at its arrival, by
        one kernel event."""
        sim, network, _, received = make_network()
        sim.run_until(5.0)
        pending = sim.pending
        outcome = network.send("s1", "update", 64, "radio.model_update")
        assert outcome.delivered
        assert received == []  # not yet: one kernel event at the arrival
        assert sim.pending == pending + 1
        sim.run_until(100.0)
        assert received == [(5.0 + outcome.latency_s, "update")]

    def test_dropped_downlink_never_reaches_the_sensor(self):
        sim, network, _, received = make_network(loss=0.99, seed=5)
        pending = sim.pending
        outcome = network.send("s0", "update", 64, "radio.model_update")
        assert not outcome.delivered
        assert sim.pending == pending
        sim.run_until(100.0)
        assert received == []
        assert (network.packets_sent, network.packets_dropped) == (1, 1)

    def test_batch_reaches_the_proxy_at_send_time(self):
        sim, network, _, received = make_network()
        sim.run_until(5.0)
        pending = sim.pending
        batch = {"sensor": 0}
        network.send_uplinks(["s0"], [batch], 40, "radio.batch")
        assert sim.pending == pending
        [(taken, (arrival, payload))] = received
        assert (taken, payload) == (5.0, batch) and arrival > 5.0
        assert network.mac_for("s0").uplink.deliveries("radio.batch") == 1

    def test_drop_statistics(self):
        sim, network, _, received = make_network(loss=0.99, seed=5)
        for _ in range(30):
            network.send_uplinks(["s0"], [None], 8, "radio.push")
        sim.run_until(100.0)
        assert network.packets_dropped > 0
        assert network.packets_delivered == len(received)
        assert network.delivery_ratio < 1.0

    def test_account_idle_all_charges_every_sensor(self):
        _, network, sensors, _ = make_network(n_sensors=3)
        network.account_idle_all(3600.0)
        for node in sensors:
            assert node.meter.category_j("radio.lpl") > 0

    def test_bytes_counted(self):
        sim, network, _, _ = make_network()
        network.send_uplinks(["s0"], [None], 100, "radio.push")
        assert network.mac_for("s0").uplink.stats.bytes_delivered == 100


class TestFrameValidation:
    def test_link_refuses_a_negative_frame_size(self):
        _, network, _, _ = make_network()
        with pytest.raises(ValueError, match="negative payload size"):
            network.send_uplinks(["s0"], [None], -1, "radio.push")
        with pytest.raises(ValueError, match="negative payload size"):
            network.send("s0", None, -1, "radio.retune")


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
