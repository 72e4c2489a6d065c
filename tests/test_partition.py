"""Partitioned federation: equivalence across partition counts, pinned.

The contract mirrors ``tests/test_parallel_campaign.py``: splitting a
federated run across independent simulation partitions is an execution
detail, so everything a ``FederatedReport`` measures must be *identical* —
not approximately equal — at every partition count and on both partition
backends.  One partition, run in-process, is the reference.
"""

import dataclasses

import numpy as np
import pytest

import repro.core.federation as federation_module
import repro.simulation.pool as pool_module
from repro.core.config import FederationConfig, PrestoConfig
from repro.core.continuous import ContinuousQuery, TriggerKind
from repro.core.federation import FederatedSystem, partition_cells
from repro.core.queries import AnswerSource
from repro.scenarios import CampaignConfig, CampaignRunner, FederationRegime, all_scenarios
from repro.serving import ServingConfig
from repro.traces.intel_lab import IntelLabConfig, IntelLabGenerator
from repro.traces.workload import QueryWorkloadConfig, ShardedWorkloadGenerator

DURATION_S = 4 * 3600.0


def make_trace(n_sensors=8):
    config = IntelLabConfig(
        n_sensors=n_sensors, duration_s=DURATION_S, epoch_s=31.0
    )
    return IntelLabGenerator(config, seed=7).generate()


def fast_config():
    return PrestoConfig(
        sample_period_s=31.0,
        refit_interval_s=3 * 3600.0,
        min_training_epochs=128,
    )


def make_system(
    partitions, backend="inline", serving=None, kill=True, replica_coding="full"
):
    trace = make_trace()
    federation = FederationConfig(
        n_proxies=4,
        replication_factor=1,
        replica_coding=replica_coding,
        coding_k=2,
        coding_n=2,
        partitions=partitions,
        partition_backend=backend,
    )
    system = FederatedSystem(
        trace,
        config=fast_config(),
        federation=federation,
        seed=3,
        serving=serving,
    )
    generator = ShardedWorkloadGenerator(
        [list(shard) for shard in system.shards],
        QueryWorkloadConfig(arrival_rate_per_s=1 / 120.0),
        rng=np.random.default_rng(11),
    )
    queries = generator.generate(0.0, DURATION_S)
    if kill:
        system.schedule_failure("proxy3", 2.5 * 3600.0)
    return system, queries


def run_federated(partitions, **kwargs):
    system, queries = make_system(partitions, **kwargs)
    return system.run(queries, duration_s=DURATION_S)


def report_key(report):
    """Everything the federation measures, exact — no tolerances.

    Every declared summary metric and every report field — the coding
    ledger, the per-query and per-cell detail the summary aggregates away —
    by iterating the declarations, ``n_partitions`` aside: it names the
    split under test.  Values compare by ``repr``, so equal NaNs are equal.
    """
    summary = {
        key: repr(value)
        for key, value in report.summary().items()
        if key != "n_partitions"
    }
    fields = {
        field.name: repr(getattr(report, field.name))
        for field in dataclasses.fields(report)
        if field.name != "n_partitions"
    }
    return summary, fields


class TestPartitionEquivalence:
    @pytest.fixture(scope="class")
    def reference_key(self):
        return report_key(run_federated(1))

    @pytest.mark.parametrize("partitions", [1, 2, 4])
    def test_partition_counts_match_shared_kernel(self, reference_key, partitions):
        assert report_key(run_federated(partitions)) == reference_key

    def test_process_backend_matches_shared_kernel(self, reference_key):
        report = run_federated(4, backend="process")
        assert report_key(report) == reference_key

    def test_partitioned_report_records_partition_count(self):
        assert run_federated(2).n_partitions == 2
        assert FederationConfig().partitions == 1
        with pytest.raises(ValueError, match="partitions"):
            FederationConfig(partitions=None)

    @pytest.mark.parametrize("backend", ["inline", "process"])
    def test_second_run_reports_the_same(self, backend):
        """run() replaces the coordinator's ledger instead of adding to it."""
        system, queries = make_system(
            2, backend=backend, serving=ServingConfig(offered_qps=40.0, duration_s=120.0)
        )
        first = system.run(queries, duration_s=DURATION_S)
        events = system.failover_events
        second = system.run(queries, duration_s=DURATION_S)
        assert report_key(second) == report_key(first)
        assert first.failovers > 0 and first.replica_syncs > 0
        assert system.failover_events == events and len(events) == 1

    @pytest.mark.parametrize("partitions", [1, 2])
    def test_out_of_range_query_is_unroutable_at_its_rank(self, partitions):
        system, queries = make_system(partitions, kill=False)
        position = len(queries) // 2
        stray = dataclasses.replace(queries[position], sensor=99)
        queries = queries[:position] + [stray] + queries[position:]
        report = system.run(queries, duration_s=DURATION_S)
        assert report.unroutable == 1
        assert report.answers[position].query is stray
        assert report.answers[position].source is AnswerSource.FAILED
        assert len(report.answers) == len(queries)

    def test_partition_cells_contiguous_and_total(self):
        assign = partition_cells(10, 3)
        assert sorted(cell for block in assign for cell in block) == list(range(10))
        for block in assign:
            assert block == list(range(block[0], block[0] + len(block)))
        with pytest.raises(ValueError):
            partition_cells(4, 5)


class TestCodedSyncAccounting:
    """Per-sync byte/energy accounting is a partition-invariant ledger.

    The coding report's radio/flash joules are derived from the bytes
    each partition actually shipped, so splitting the kernel must leave
    every ledger field untouched — in both coding modes.
    """

    CODING_FIELDS = (
        "payload_bytes",
        "shipped_bytes",
        "full_copy_bytes",
        "decodes",
        "irrecoverable",
        "sync_radio_j",
        "sync_flash_j",
    )

    @pytest.mark.parametrize("replica_coding", ["full", "rs"])
    def test_sync_joules_match_across_partitioning(self, replica_coding):
        whole = run_federated(1, replica_coding=replica_coding).coding
        split = run_federated(2, replica_coding=replica_coding).coding
        assert whole.mode == split.mode == replica_coding
        for field in self.CODING_FIELDS:
            assert getattr(split, field) == getattr(whole, field), field
        assert whole.shipped_bytes > 0
        assert whole.sync_radio_j > 0
        assert whole.sync_flash_j > 0

    def test_full_mode_ledger_is_identity(self):
        # In full mode the counterfactual equals what was shipped: the
        # savings fraction reads 0 and the ledger is a pure byte meter.
        coding = run_federated(1).coding
        assert coding.shipped_bytes == coding.full_copy_bytes
        assert coding.bytes_saved_fraction == 0.0


class TestServingDeterminism:
    def test_serving_identical_across_backends_at_fixed_partitions(self):
        serving = ServingConfig(offered_qps=40.0, duration_s=120.0)
        inline = run_federated(4, backend="inline", serving=serving).serving
        process = run_federated(4, backend="process", serving=serving).serving
        assert inline is not None and process is not None
        assert inline.p99_latency_s == process.p99_latency_s
        assert inline.memo_hit_rate == process.memo_hit_rate
        assert inline.n_queries == process.n_queries

    def test_serving_metrics_are_recorded(self):
        serving = ServingConfig(offered_qps=40.0, duration_s=120.0)
        report = run_federated(2, serving=serving, kill=False)
        summary = report.summary()
        assert summary["serving_queries"] > 0
        assert (
            summary["serving_p50_s"]
            <= summary["serving_p95_s"]
            <= summary["serving_p99_s"]
        )
        assert 0.0 <= summary["serving_memo_hit_rate"] <= 1.0
        assert report.serving.distinct_users > 0

    def test_saturation_grows_p99(self):
        # memo_ttl_s=0 disables the cross-batch memo and a 50 ms service
        # time puts one partition's capacity (20/s) below the deduplicated
        # miss rate at high load, so the heavy run queues without bound.
        light = run_federated(
            1,
            serving=ServingConfig(
                offered_qps=4.0,
                duration_s=120.0,
                memo_ttl_s=0.0,
                service_time_s=0.05,
            ),
            kill=False,
        ).serving
        heavy = run_federated(
            1,
            serving=ServingConfig(
                offered_qps=2_000.0,
                duration_s=120.0,
                memo_ttl_s=0.0,
                service_time_s=0.05,
            ),
            kill=False,
        ).serving
        assert heavy.p99_latency_s > 10.0 * light.p99_latency_s
        assert heavy.utilization > light.utilization


class TestStandingQueries:
    """Standing queries arm, fire and report identically however cells are split."""

    @staticmethod
    def run_event_storm(partitions, backend):
        config = dataclasses.replace(CampaignConfig.smoke(), n_sensors=8, n_proxies=4)
        runner = CampaignRunner(config)
        campaign_default = runner._federation_config
        runner._federation_config = lambda spec: dataclasses.replace(
            campaign_default(spec), partition_backend=backend
        )
        spec = dataclasses.replace(
            all_scenarios()["event storm"],
            federation=FederationRegime(partitions=partitions),
        )
        result = runner.run_one(spec, "federated")
        assert result.report.n_partitions == partitions
        return (
            result.notifications,
            result.notification_recall,
            result.worst_notification_latency_s,
            result.qualifying_events,
        )

    def test_notifications_match_across_partitioning(self):
        reference = self.run_event_storm(1, "inline")
        notifications, recall, worst_latency, qualifying = reference
        assert notifications > 0 and qualifying > 0
        assert 0.0 < recall <= 1.0 and worst_latency >= 0.0
        for partitions, backend in [(2, "inline"), (4, "inline"), (4, "process")]:
            assert self.run_event_storm(partitions, backend) == reference

    def test_notifications_carry_global_sensor_ids(self):
        system, queries = make_system(2, kill=False)
        for sensor in range(system.trace.n_sensors):
            system.continuous.register(
                ContinuousQuery(sensor=sensor, kind=TriggerKind.DELTA, threshold=0.01)
            )
        system.run(queries, duration_s=DURATION_S)
        fired = {n.sensor for n in system.continuous.notifications}
        assert fired == set(range(system.trace.n_sensors))

    def test_standing_query_on_unknown_sensor_rejected(self):
        system, queries = make_system(2, kill=False)
        system.continuous.register(
            ContinuousQuery(sensor=99, kind=TriggerKind.ABOVE, threshold=0.0)
        )
        with pytest.raises(ValueError, match="standing query on sensor 99"):
            system.run(queries, duration_s=DURATION_S)


class TestPartitionFailure:
    """A crash inside a partition is the run's failure, not a silent retry."""

    @pytest.fixture
    def broken_setup(self, monkeypatch):
        original = federation_module._CellPartition.setup

        def setup(partition):
            if "proxy2" in partition._built:
                raise KeyError("boom")
            original(partition)

        monkeypatch.setattr(federation_module._CellPartition, "setup", setup)

    @pytest.mark.parametrize("backend", ["inline", "process"])
    def test_partition_exception_names_the_partition(self, broken_setup, backend):
        system, queries = make_system(2, backend=backend)
        with pytest.raises(RuntimeError, match=r"partition 1 \(cells \[2, 3\]\)") as info:
            system.run(queries, duration_s=DURATION_S)
        assert "boom" in str(info.value)

    def test_pool_that_cannot_start_fails_the_run(self, monkeypatch):
        """No serial fallback: a run that asked for processes gets them or fails."""

        def no_pool(*args, **kwargs):
            raise OSError("no processes for you")

        monkeypatch.setattr(pool_module.os, "cpu_count", lambda: 2)
        monkeypatch.setattr(pool_module, "ProcessPoolExecutor", no_pool)
        with pytest.raises(OSError, match="no processes for you"):
            run_federated(2, backend="process")
