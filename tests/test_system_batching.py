"""End-to-end tests of batching mode inside the full system.

When a workload has no NOW queries, query-sensor matching switches sensors
into batched operation (Section 3's Figure 2 regime) — readings accumulate,
get wavelet-compressed, and arrive at the proxy in bursts.
"""

import numpy as np
import pytest

from repro.core import PrestoConfig, PrestoSystem
from repro.radio.link import LinkConfig
from repro.traces.intel_lab import IntelLabConfig, IntelLabGenerator
from repro.traces.workload import QueryWorkloadConfig, QueryWorkloadGenerator


@pytest.fixture(scope="module")
def batching_run():
    trace_config = IntelLabConfig(
        n_sensors=4, duration_s=86_400.0, epoch_s=31.0
    )
    trace = IntelLabGenerator(trace_config, seed=100).generate()
    # a PAST-only workload with generous latency: batching territory
    workload = QueryWorkloadGenerator(
        4,
        QueryWorkloadConfig(
            arrival_rate_per_s=1 / 400.0,
            now_fraction=0.0,
            past_point_fraction=0.5,
            past_range_fraction=0.3,
            past_agg_fraction=0.2,
            latency_bound_s=1_800.0,
        ),
        np.random.default_rng(101),
    )
    queries = workload.generate(3600.0, trace_config.duration_s)
    config = PrestoConfig(
        sample_period_s=31.0,
        refit_interval_s=6 * 3600.0,
        min_training_epochs=256,
        retune_interval_s=3_600.0,
        link=LinkConfig(loss_probability=0.0),
    )
    system = PrestoSystem(trace, config, seed=102)
    report = system.run(queries=queries)
    return system, report


class TestBatchingMode:
    def test_matcher_enabled_batching(self, batching_run):
        system, report = batching_run
        assert any(
            sensor.operating_point.batch_interval_s > 0
            for sensor in system.sensors
        )
        assert report.batches > 0

    def test_batches_replace_pushes(self, batching_run):
        system, report = batching_run
        # once batching engages, per-reading pushes stop accumulating
        batching_sensor = next(
            s for s in system.sensors if s.operating_point.batch_interval_s > 0
        )
        assert batching_sensor.batches_sent > 0

    def test_cache_populated_from_batches(self, batching_run):
        system, report = batching_run
        # cached coverage must extend across the batched period
        for sensor in system.sensors:
            size = system.proxy.cache.size(sensor.sensor_id)
            assert size > 1000  # most epochs represented

    def test_queries_still_answered(self, batching_run):
        _, report = batching_run
        assert report.answered_fraction > 0.95
        assert report.success_rate > 0.8

    def test_radio_energy_below_push_everything(self, batching_run):
        """Batched+compressed delivery must beat one-packet-per-reading."""
        system, report = batching_run
        from repro.energy.radio_energy import transfer_energy

        per_reading = transfer_energy(
            system.config.node_profile.radio, 12
        )
        total_readings = report.n_sensors * system.trace.n_epochs
        stream_cost = per_reading * total_readings
        batch_cost = sum(
            sensor.meter.category_j("radio.batch") for sensor in system.sensors
        )
        assert 0 < batch_cost < stream_cost * 0.8


def test_batches_sent_are_the_batches_the_proxy_received():
    """On a lossy link some batches drop; a sensor's ``batches_sent`` counts
    exactly the ones that reached the proxy, which is what its uplink's
    ledger says it delivered."""
    trace = IntelLabGenerator(
        IntelLabConfig(n_sensors=3, duration_s=20_000.0, epoch_s=31.0), seed=7
    ).generate()
    config = PrestoConfig(
        sample_period_s=31.0,
        batch_interval_s=300.0,
        retune_interval_s=1e12,   # no retune switches batching off
        link=LinkConfig(loss_probability=0.4, max_retries=1),
    )
    system = PrestoSystem(trace, config, seed=7)
    proxy_node = system.network._nodes[system.proxy.name]
    accept, received = proxy_node.accept, [0] * trace.n_sensors

    def counted(arrivals):
        for _, payload in arrivals:
            if type(payload) is dict:
                received[payload["sensor"]] += 1
        accept(arrivals)

    proxy_node.accept = counted
    report = system.run()
    assert system.network.packets_dropped > 0
    delivered = [s.mac.uplink.deliveries("radio.batch") for s in system.sensors]
    assert [s.batches_sent for s in system.sensors] == delivered == received
    assert report.batches == sum(received) > 0
