"""Tests for the directory-routed multi-proxy federation."""

import dataclasses

import numpy as np
import pytest

from repro.core import (
    FederatedSystem,
    FederationConfig,
    PrestoConfig,
    PrestoSystem,
    partition_sensors,
)
from repro.core.continuous import ContinuousQuery, TriggerKind
from repro.core.federation import (
    HOP_LATENCY_S,
    WIRED_LATENCY_S,
    FederatedCell,
    _CellPartition,
    _RoutingCore,
)
from repro.core.proxy import PROXY_PROCESSING_S
from repro.core.queries import AnswerSource, ground_truths
from repro.core.system import SystemReport
from repro.radio.link import LinkConfig
from repro.traces.intel_lab import IntelLabConfig, IntelLabGenerator
from repro.traces.workload import (
    Query,
    QueryKind,
    QueryWorkloadConfig,
    QueryWorkloadGenerator,
    ShardedWorkloadGenerator,
)

HALF_DAY_S = 0.5 * 86_400.0


def fast_config():
    return PrestoConfig(
        sample_period_s=31.0,
        refit_interval_s=3 * 3600.0,
        min_training_epochs=128,
    )


def make_trace(n_sensors=8, duration_s=HALF_DAY_S, seed=7):
    config = IntelLabConfig(
        n_sensors=n_sensors, duration_s=duration_s, epoch_s=31.0
    )
    return IntelLabGenerator(config, seed=seed).generate()


class TestPartition:
    @pytest.mark.parametrize("policy", ["contiguous", "round_robin", "balanced"])
    def test_covers_all_sensors_disjointly(self, policy):
        trace = make_trace(n_sensors=10, duration_s=3600.0)
        shards = partition_sensors(trace, 3, policy)
        flat = sorted(s for shard in shards for s in shard)
        assert flat == list(range(10))
        assert all(shard == sorted(shard) for shard in shards)

    def test_contiguous_is_contiguous(self):
        trace = make_trace(n_sensors=9, duration_s=3600.0)
        shards = partition_sensors(trace, 3, "contiguous")
        for shard in shards:
            assert shard == list(range(shard[0], shard[-1] + 1))

    def test_round_robin_interleaves(self):
        trace = make_trace(n_sensors=6, duration_s=3600.0)
        shards = partition_sensors(trace, 2, "round_robin")
        assert shards == [[0, 2, 4], [1, 3, 5]]

    def test_balanced_spreads_variance(self):
        trace = make_trace(n_sensors=8, duration_s=3600.0)
        shards = partition_sensors(trace, 4, "balanced")
        variance = np.nan_to_num(np.nanvar(trace.values, axis=1), nan=0.0)
        loads = [sum(variance[s] for s in shard) for shard in shards]
        # greedy packing: heaviest shard within 2x of the lightest
        assert max(loads) < 2.0 * min(loads) + 1e-9

    def test_single_proxy_gets_everything(self):
        trace = make_trace(n_sensors=5, duration_s=3600.0)
        for policy in ("contiguous", "round_robin", "balanced"):
            assert partition_sensors(trace, 1, policy) == [list(range(5))]

    def test_more_proxies_than_sensors_rejected(self):
        trace = make_trace(n_sensors=2, duration_s=3600.0)
        with pytest.raises(ValueError):
            partition_sensors(trace, 3, "contiguous")


class TestFederationConfig:
    def test_rejects_unknown_policy(self):
        with pytest.raises(ValueError):
            FederationConfig(shard_policy="random")

    def test_rejects_zero_proxies(self):
        with pytest.raises(ValueError):
            FederationConfig(n_proxies=0)

    def test_always_at_least_one_wired(self):
        assert FederationConfig(n_proxies=1, wired_fraction=0.0).n_wired == 1
        assert FederationConfig(n_proxies=4, wired_fraction=0.5).n_wired == 2


@pytest.fixture(scope="module")
def equivalence_runs():
    """The same trace + queries through both harnesses, single proxy."""
    trace = make_trace(n_sensors=4, seed=7)
    config = fast_config()

    def queries():
        workload = QueryWorkloadGenerator(
            trace.n_sensors,
            QueryWorkloadConfig(arrival_rate_per_s=1 / 900.0),
            np.random.default_rng(7),
        )
        return workload.generate(0.0, trace.config.duration_s)

    single = PrestoSystem(trace, config, seed=9).run(queries=queries())
    federated = FederatedSystem(
        trace, config, FederationConfig(n_proxies=1), seed=9
    ).run(queries=queries())
    return single, federated


class TestSingleProxyEquivalence:
    """Acceptance: n_proxies=1 reproduces the single-cell system exactly."""

    def test_same_energy(self, equivalence_runs):
        single, federated = equivalence_runs
        assert federated.sensor_energy_j == pytest.approx(
            single.sensor_energy_j, rel=1e-12
        )
        assert federated.per_sensor_energy_j == pytest.approx(
            single.per_sensor_energy_j, rel=1e-12
        )

    def test_same_traffic(self, equivalence_runs):
        single, federated = equivalence_runs
        assert federated.pushes == single.pushes
        assert federated.cold_pushes == single.cold_pushes
        assert federated.packets_sent == single.packets_sent

    def test_same_answers_and_latency(self, equivalence_runs):
        single, federated = equivalence_runs
        assert [a.value for a in federated.answers] == [
            a.value for a in single.answers
        ]
        assert federated.mean_latency_s == pytest.approx(
            single.mean_latency_s, rel=1e-12
        )

    def test_same_error(self, equivalence_runs):
        single, federated = equivalence_runs
        assert federated.mean_error == pytest.approx(single.mean_error, rel=1e-12)

    def test_no_routing_cost_with_one_proxy(self, equivalence_runs):
        _, federated = equivalence_runs
        assert federated.cross_proxy_hops == 0
        assert federated.failovers == 0


@pytest.fixture(scope="module")
def federated_run():
    """4 proxies (2 wired / 2 wireless), rf=1, wireless proxy3 killed at 60%."""
    trace = make_trace(n_sensors=8, seed=7)
    system = FederatedSystem(
        trace,
        fast_config(),
        FederationConfig(
            n_proxies=4, shard_policy="contiguous", replication_factor=1
        ),
        seed=9,
    )
    workload = ShardedWorkloadGenerator(
        system.shards,
        QueryWorkloadConfig(arrival_rate_per_s=1 / 300.0),
        np.random.default_rng(7),
    )
    queries = workload.generate(3600.0, trace.config.duration_s)
    kill_at = 0.6 * trace.config.duration_s
    system.schedule_failure("proxy3", kill_at)
    report = system.run(queries=queries)
    return system, report, kill_at


class TestRouting:
    def test_skipgraph_resolves_every_owner(self, federated_run):
        system, _, _ = federated_run
        for fc in system.cells:
            for sensor in fc.sensor_ids:
                assert system.owner_of(sensor) == fc.name

    def test_round_robin_ownership(self):
        trace = make_trace(n_sensors=6, duration_s=3600.0)
        system = FederatedSystem(
            trace,
            fast_config(),
            FederationConfig(n_proxies=3, shard_policy="round_robin"),
            seed=1,
        )
        assert [system.owner_of(s) for s in range(6)] == [
            "proxy0", "proxy1", "proxy2", "proxy0", "proxy1", "proxy2",
        ]

    def test_rewrite_renumbers_the_sensor_and_nothing_else(self):
        fc = FederatedCell(
            cell_id=1, name="proxy1", sensor_ids=[4, 6, 9], wired=False,
            response_latency_s=0.25,
        )
        # No field at its default: one added to Query without its line in
        # the field-by-field copy of _rewrite shows up as a difference here.
        routed = Query(
            query_id=17, kind=QueryKind.PAST_AGG, sensor=9, arrival_time=120.0,
            target_time=40.0, window_s=30.0, precision=0.125, latency_bound_s=2.5,
            aggregate="max",
        )
        assert all(
            getattr(routed, f.name) != f.default for f in dataclasses.fields(Query)
        )
        assert _RoutingCore._rewrite(routed, fc) == dataclasses.replace(routed, sensor=2)
        standing = ContinuousQuery(
            sensor=6, kind=TriggerKind.ABOVE, threshold=25.0, query_id=3
        )
        assert _RoutingCore._rewrite(standing, fc) == dataclasses.replace(
            standing, sensor=1
        )

    def test_owner_table_is_the_skipgraph_walk(self, federated_run):
        system, _, _ = federated_run
        assert system._route == [
            system._owners.floor_value(float(sensor))
            for sensor in range(system.trace.n_sensors)
        ]

    def test_hops_counted_and_charged(self, federated_run):
        system, report, _ = federated_run
        assert report.cross_proxy_hops > 0
        assert report.mean_routing_hops > 0
        slowest = max(a.latency_s for a in report.answers)
        assert slowest >= HOP_LATENCY_S  # at least one answer paid routing latency

    def test_out_of_range_sensor_unroutable(self):
        trace = make_trace(n_sensors=4, duration_s=3600.0)
        system = FederatedSystem(
            trace, fast_config(), FederationConfig(n_proxies=2), seed=1
        )
        from repro.traces.workload import Query, QueryKind

        answer = system.route_query(
            Query(0, QueryKind.NOW, 99, 10.0, 10.0, precision=0.5)
        )
        assert answer.source is AnswerSource.FAILED
        assert system.routing.unroutable == 1


class TestFailover:
    def test_wireless_replicated_on_wired(self, federated_run):
        system, _, _ = federated_run
        plan = system.replication_plan
        assert set(plan) == {"proxy2", "proxy3"}
        for targets in plan.values():
            assert len(targets) == 1
            assert system.cell_for(targets[0]).wired

    def test_replicas_synced_before_failure(self, federated_run):
        # Replica state lives in the partition executing its owner, so
        # drive one directly and stop it at the instant of the kill.
        system, report, kill_at = federated_run
        assert report.replica_syncs > 0
        context = system._context(system.trace.config.duration_s)
        partition = _CellPartition(context, [0, 1, 2, 3], [])
        partition.setup()
        partition.sim.run_until(kill_at)
        assert not partition.directory.proxy("proxy3").alive
        replica = partition._fragments.reconstruct(
            "proxy3", partition._proxy_alive
        )
        assert set(replica) == set(system.cell_for("proxy3").sensor_ids)
        for state in replica.values():
            assert state.entries
            assert state.synced_at_s < kill_at

    def test_dead_shard_keeps_answering(self, federated_run):
        system, report, kill_at = federated_run
        dead = set(system.cell_for("proxy3").sensor_ids)
        post = [
            a
            for a in report.answers
            if a.query.sensor in dead and a.query.arrival_time > kill_at
        ]
        assert post, "workload must target the dead shard after the kill"
        assert report.failovers == len(post)
        assert report.replica_hits > 0
        assert any(a.answered for a in post)

    def test_failover_latency_is_the_wired_replicas(self, federated_run):
        """A dead mesh owner's queries pay processing and the routing hops,
        then the wired replica host's latency — not the owner's 0.25 s."""
        system, report, kill_at = federated_run
        assert not system.cell_for("proxy3").wired
        dead = set(system.cell_for("proxy3").sensor_ids)
        post = [
            a
            for a in report.answers
            if a.query.sensor in dead and a.query.arrival_time > kill_at
        ]
        assert post
        for answer in post:
            hops = system._route[answer.query.sensor][1]
            assert answer.latency_s == (
                PROXY_PROCESSING_S + hops * HOP_LATENCY_S + WIRED_LATENCY_S
            )

    def test_live_shards_unaffected(self, federated_run):
        system, report, kill_at = federated_run
        dead = set(system.cell_for("proxy3").sensor_ids)
        live = [a for a in report.answers if a.query.sensor not in dead]
        assert np.mean([a.answered for a in live]) > 0.95

    @pytest.mark.parametrize(
        ("replication_factor", "owner", "with_replica_host"),
        [(0, "proxy2", False), (1, "proxy0", False), (1, "proxy2", True)],
        ids=["unreplicated-mesh-owner", "wired-owner", "mesh-owner-and-its-host"],
    )
    def test_no_replication_means_dark_shard(
        self, replication_factor, owner, with_replica_host
    ):
        """No live replica, no answers: every query to a dead shard is
        unroutable — whether nothing was replicated, the owner is wired
        (nobody replicates wired proxies) or its one host died with it."""
        trace = make_trace(n_sensors=6, duration_s=0.3 * 86_400.0)
        system = FederatedSystem(
            trace,
            fast_config(),
            FederationConfig(
                n_proxies=3,
                shard_policy="contiguous",
                replication_factor=replication_factor,
            ),
            seed=3,
        )
        killed = [owner]
        if with_replica_host:
            killed += system.replication_plan[owner]
            assert len(killed) == 2
        else:
            assert not system.replication_plan.get(owner)
        workload = ShardedWorkloadGenerator(
            system.shards,
            QueryWorkloadConfig(arrival_rate_per_s=1 / 400.0),
            np.random.default_rng(3),
        )
        queries = workload.generate(3600.0, trace.config.duration_s)
        kill_at = 0.5 * trace.config.duration_s
        for name in killed:
            system.schedule_failure(name, kill_at)
        report = system.run(queries=queries)
        dead = {s for name in killed for s in system.cell_for(name).sensor_ids}
        post = [
            a
            for a in report.answers
            if a.query.sensor in dead and a.query.arrival_time > kill_at
        ]
        assert post
        assert all(not a.answered for a in post)
        assert report.unroutable == len(post)

    def test_recovery_restores_primary(self):
        trace = make_trace(n_sensors=4, duration_s=3600.0)
        system = FederatedSystem(
            trace, fast_config(), FederationConfig(n_proxies=2), seed=1
        )
        system.fail_proxy("proxy1")
        assert not system.directory.proxy("proxy1").alive
        system.recover_proxy("proxy1")
        assert system.directory.proxy("proxy1").alive


class TestFederatedReport:
    def test_aggregates_cells(self, federated_run):
        _, report, _ = federated_run
        cells = report.cell_reports
        assert len(cells) == 4
        # the fold's named exceptions; every other SystemReport field adds,
        # in cell order (float addition order is part of the pinned output)
        not_additive = {
            "duration_s", "answers", "truths", "sensor_energy_by_category",
            "per_sensor_energy_j", "archive_worst_level", "archive_fidelity_retained",
        }
        for field in dataclasses.fields(SystemReport):
            if field.name not in not_additive:
                assert getattr(report, field.name) == sum(
                    getattr(cell, field.name) for cell in cells
                ), field.name
        assert report.pushes > 0 and report.packets_delivered > 0
        assert report.n_sensors == 8
        assert len(report.per_sensor_energy_j) == 8
        assert report.archive_worst_level == max(c.archive_worst_level for c in cells)
        assert report.sensor_energy_by_category.keys() == {
            category for cell in cells for category in cell.sensor_energy_by_category
        }

    def test_each_query_is_logged_and_scored_once(self, monkeypatch):
        """The routing core owns the one log and scores it in one batch;
        cells carry ledgers only."""
        calls = []

        def counting(trace, queries):
            calls.append(list(queries))
            return ground_truths(trace, queries)

        for module in ("federation", "system"):
            monkeypatch.setattr(f"repro.core.{module}.ground_truths", counting)
        trace = make_trace(n_sensors=4, duration_s=4 * 3600.0)
        system = FederatedSystem(
            trace, fast_config(), FederationConfig(n_proxies=2), seed=3
        )
        workload = ShardedWorkloadGenerator(
            system.shards,
            QueryWorkloadConfig(arrival_rate_per_s=1 / 300.0),
            np.random.default_rng(3),
        )
        report = system.run(queries=workload.generate(3600.0, trace.config.duration_s))
        assert len(report.answers) > 10
        scored = [queries for queries in calls if queries]
        assert scored == [[answer.query for answer in report.answers]]
        assert len(report.truths) == len(report.answers)
        assert all(not cell.answers and not cell.truths for cell in report.cell_reports)

    def test_per_sensor_energy_in_global_order(self, federated_run):
        system, report, _ = federated_run
        for fc, cell_report in zip(system.cells, report.cell_reports):
            for local, global_id in enumerate(fc.sensor_ids):
                assert report.per_sensor_energy_j[global_id] == pytest.approx(
                    cell_report.per_sensor_energy_j[local]
                )

    def test_summary_has_routing_metrics(self, federated_run):
        _, report, _ = federated_run
        summary = report.summary()
        for key in ("n_proxies", "mean_routing_hops", "replica_hit_rate",
                    "failovers", "unroutable"):
            assert key in summary


class TestShardedWorkload:
    def test_targets_every_shard(self):
        shards = [[0, 1, 2], [3, 4], [5, 6, 7]]
        generator = ShardedWorkloadGenerator(
            shards,
            QueryWorkloadConfig(arrival_rate_per_s=1 / 30.0),
            np.random.default_rng(5),
        )
        queries = generator.generate(0.0, 86_400.0)
        hit = {k for k, shard in enumerate(shards)
               for q in queries if q.sensor in shard}
        assert hit == {0, 1, 2}

    def test_emits_global_ids_only(self):
        shards = [[2, 5], [7, 9]]
        generator = ShardedWorkloadGenerator(
            shards,
            QueryWorkloadConfig(arrival_rate_per_s=1 / 60.0),
            np.random.default_rng(5),
        )
        queries = generator.generate(0.0, 8 * 3600.0)
        assert queries
        assert {q.sensor for q in queries} <= {2, 5, 7, 9}

    def test_shard_weights_skew_traffic(self):
        shards = [[0], [1]]
        generator = ShardedWorkloadGenerator(
            shards,
            QueryWorkloadConfig(arrival_rate_per_s=1 / 30.0),
            np.random.default_rng(5),
            shard_weights=[0.9, 0.1],
        )
        queries = generator.generate(0.0, 86_400.0)
        hot = sum(1 for q in queries if q.sensor == 0)
        assert hot / len(queries) > 0.8

    def test_overlapping_shards_rejected(self):
        with pytest.raises(ValueError):
            ShardedWorkloadGenerator([[0, 1], [1, 2]])

    def test_empty_shard_rejected(self):
        with pytest.raises(ValueError):
            ShardedWorkloadGenerator([[0], []])


class TestTraceSubset:
    def test_full_range_returns_self(self):
        trace = make_trace(n_sensors=4, duration_s=3600.0)
        assert trace.subset([0, 1, 2, 3]) is trace

    def test_rows_match_parent(self):
        trace = make_trace(n_sensors=6, duration_s=3600.0)
        sub = trace.subset([1, 4])
        assert sub.n_sensors == 2
        np.testing.assert_array_equal(sub.values[0], trace.values[1])
        np.testing.assert_array_equal(sub.values[1], trace.values[4])
        assert sub.config.n_sensors == 2

    def test_invalid_subsets_rejected(self):
        trace = make_trace(n_sensors=4, duration_s=3600.0)
        with pytest.raises(ValueError):
            trace.subset([])
        with pytest.raises(ValueError):
            trace.subset([0, 0])
        with pytest.raises(ValueError):
            trace.subset([0, 9])


class TestReplicaStaleness:
    """Per-death staleness accounting and failover-answer fidelity."""

    def test_staleness_recorded_per_death(self, federated_run):
        system, report, kill_at = federated_run
        assert len(system.failover_events) == 1
        event = system.failover_events[0]
        assert event.proxy == "proxy3"
        assert event.at_s == pytest.approx(kill_at)
        # the replica was synced within one sync interval of the death
        assert 0.0 <= event.replica_staleness_s
        assert event.replica_staleness_s <= (
            system.federation.replica_sync_interval_s + 120.0
        )
        assert report.fault_staleness_s == (event.replica_staleness_s,)
        assert report.max_replica_staleness_s == pytest.approx(
            event.replica_staleness_s
        )

    def test_staleness_infinite_before_first_sync(self):
        trace = make_trace(n_sensors=4, duration_s=3600.0)
        system = FederatedSystem(
            trace,
            fast_config(),
            FederationConfig(n_proxies=2, replication_factor=1),
            seed=3,
        )
        # nothing has synced yet: a death right now has no replica to lean on
        partition = _CellPartition(system._context(3600.0), [0, 1], [])
        assert partition._replica_staleness("proxy1") == float("inf")
        system.fail_proxy("proxy1")
        assert system.failover_events[-1].replica_staleness_s == float("inf")
        assert system.run().fault_staleness_s == (float("inf"),)

    def test_staleness_infinite_without_replication(self):
        trace = make_trace(n_sensors=4, duration_s=3600.0)
        system = FederatedSystem(
            trace,
            fast_config(),
            FederationConfig(n_proxies=2, replication_factor=0),
            seed=3,
        )
        system.schedule_failure("proxy1", 3000.0)
        assert system.run().fault_staleness_s == (float("inf"),)

    def test_unknown_proxy_rejected(self):
        trace = make_trace(n_sensors=4, duration_s=3600.0)
        system = FederatedSystem(
            trace,
            fast_config(),
            FederationConfig(n_proxies=2, replication_factor=1),
            seed=3,
        )
        with pytest.raises(ValueError):
            system.fail_proxy("proxy9")
        with pytest.raises(ValueError):
            system.schedule_failure("proxy9", 10.0)

    def test_failover_fidelity_bounded(self, federated_run):
        """Replica answers diverge boundedly from the dead cell's truth."""
        _, report, _ = federated_run
        assert report.failovers > 0
        assert np.isfinite(report.failover_mean_error)
        assert report.failover_mean_error <= report.failover_max_error
        # frozen-at-sync state plus model forecasts must stay within a few
        # signal units of the in-simulation truth over a sync interval
        assert report.failover_max_error < 5.0

    def test_failover_error_nan_without_failures(self):
        trace = make_trace(n_sensors=4, duration_s=0.2 * 86_400.0)
        system = FederatedSystem(
            trace,
            fast_config(),
            FederationConfig(n_proxies=2, replication_factor=1),
            seed=3,
        )
        workload = ShardedWorkloadGenerator(
            system.shards,
            QueryWorkloadConfig(arrival_rate_per_s=1 / 600.0),
            np.random.default_rng(3),
        )
        report = system.run(
            queries=workload.generate(3600.0, trace.config.duration_s)
        )
        assert report.fault_staleness_s == ()
        assert np.isnan(report.max_replica_staleness_s)
        assert np.isnan(report.failover_mean_error)

    def test_summary_carries_staleness_and_fidelity(self, federated_run):
        _, report, _ = federated_run
        summary = report.summary()
        assert summary["max_replica_staleness_s"] == report.max_replica_staleness_s
        assert summary["failover_mean_error"] == report.failover_mean_error


BAD_EVENT_TIMES = [float("nan"), -5.0, float("inf")]


class TestEventTimesRejected:
    """A NaN, negative or infinite event time fails where it is given."""

    @pytest.fixture
    def system(self):
        return FederatedSystem(
            make_trace(n_sensors=4, duration_s=3600.0),
            fast_config(),
            FederationConfig(n_proxies=2, replication_factor=1),
            seed=3,
        )

    @pytest.mark.parametrize("at_s", BAD_EVENT_TIMES)
    def test_schedule_failure(self, system, at_s):
        with pytest.raises(ValueError, match="event time"):
            system.schedule_failure("proxy1", at_s)

    @pytest.mark.parametrize("at_s", BAD_EVENT_TIMES)
    def test_schedule_recovery(self, system, at_s):
        with pytest.raises(ValueError, match="event time"):
            system.schedule_recovery("proxy1", at_s)

    @pytest.mark.parametrize("at_s", BAD_EVENT_TIMES)
    def test_schedule_link_change(self, system, at_s):
        with pytest.raises(ValueError, match="event time"):
            system.schedule_link_change(at_s, LinkConfig(loss_probability=0.9))
