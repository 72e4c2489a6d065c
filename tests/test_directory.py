"""Unit tests for the replicated cache directory."""

import pytest

from repro.index.directory import CacheDirectory


def plan_copies(directory, factor=1):
    """Whole-copy replication with factor r is the (k = 1, n = r) plan."""
    return directory.plan_fragment_placement(1, factor)


@pytest.fixture
def directory():
    d = CacheDirectory()
    d.register_proxy("wired0", wired=True, response_latency_s=0.01)
    d.register_proxy("wired1", wired=True, response_latency_s=0.02)
    d.register_proxy("wifi0", wired=False, response_latency_s=0.3)
    d.register_proxy("wifi1", wired=False, response_latency_s=0.4)
    d.publish_cache("wifi0", {1, 2, 3})
    d.publish_cache("wifi1", {4, 5})
    d.publish_cache("wired0", {10})
    return d


class TestRegistration:
    def test_duplicate_rejected(self, directory):
        with pytest.raises(ValueError):
            directory.register_proxy("wired0", True, 0.01)

    def test_negative_replication_rejected(self, directory):
        with pytest.raises(ValueError):
            plan_copies(directory, factor=-1)


class TestReplication:
    def test_wireless_replicated_on_wired(self, directory):
        plan = plan_copies(directory)
        assert set(plan) == {"wifi0", "wifi1"}
        for targets in plan.values():
            assert all(directory.proxy(t).wired for t in targets)

    def test_load_spread(self, directory):
        plan = plan_copies(directory)
        # two wireless proxies, two wired: each wired gets one replica
        targets = [t for targets in plan.values() for t in targets]
        assert sorted(targets) == ["wired0", "wired1"]

    def test_zero_replication(self, directory):
        plan = plan_copies(directory, factor=0)
        assert all(targets == [] for targets in plan.values())


class TestServing:
    def test_owner_serves_when_alive(self, directory):
        plan_copies(directory)
        best = directory.best_server(1)
        # replica on wired0 (10 ms) beats wifi0 (300 ms)
        assert best.name == "wired0"

    def test_failover_to_replica(self, directory):
        plan_copies(directory)
        directory.mark_down("wifi0")
        best = directory.best_server(2)
        assert best is not None and best.wired

    def test_no_server_when_all_down(self, directory):
        plan_copies(directory)
        directory.mark_down("wifi0")
        directory.mark_down("wired0")
        directory.mark_down("wired1")
        assert directory.best_server(1) is None

    def test_recovery(self, directory):
        directory.mark_down("wifi0")
        directory.mark_up("wifi0")
        assert directory.best_server(1) is not None

    def test_unknown_sensor_unservable(self, directory):
        assert directory.best_server(999) is None

    def test_candidates_sorted_by_latency(self, directory):
        plan_copies(directory)
        candidates = directory.serving_candidates(1)
        latencies = [c.response_latency_s for c in candidates]
        assert latencies == sorted(latencies)


class TestFailurePaths:
    def test_death_falls_back_to_live_replica(self, directory):
        plan_copies(directory)
        directory.mark_down("wifi1")
        fallback = directory.best_server(4)
        assert fallback is not None
        assert fallback.name != "wifi1"
        assert "wifi1" in fallback.replicas_of
        # and the replica chain dies with the replica host
        directory.mark_down(fallback.name)
        assert directory.best_server(4) is None

    def test_multiple_replicas_best_latency_wins(self):
        d = CacheDirectory()
        d.register_proxy("wired0", wired=True, response_latency_s=0.01)
        d.register_proxy("wired1", wired=True, response_latency_s=0.02)
        d.register_proxy("wifi0", wired=False, response_latency_s=0.3)
        d.publish_cache("wifi0", {1})
        plan_copies(d, factor=2)
        d.mark_down("wifi0")
        assert d.best_server(1).name == "wired0"
        d.mark_down("wired0")
        assert d.best_server(1).name == "wired1"

    def test_zero_replication_means_no_failover(self):
        d = CacheDirectory()
        d.register_proxy("wired0", wired=True, response_latency_s=0.01)
        d.register_proxy("wifi0", wired=False, response_latency_s=0.3)
        d.publish_cache("wifi0", {1, 2})
        assert plan_copies(d, factor=0) == {"wifi0": []}
        d.mark_down("wifi0")
        assert d.best_server(1) is None
        assert d.serving_candidates(2) == []

    def test_reregistration_after_death(self, directory):
        plan_copies(directory)
        directory.mark_down("wifi0")
        fresh = directory.register_proxy("wifi0", wired=False,
                                         response_latency_s=0.2)
        assert fresh.alive
        assert fresh.cached_sensors == set()  # fresh identity, empty cache
        # stale replica placements for the old incarnation were dropped
        for descriptor in directory.proxies:
            if descriptor.name != "wifi0":
                assert "wifi0" not in descriptor.replicas_of
        # until it republishes and replication is replanned, nobody serves it
        assert directory.best_server(1) is None
        directory.publish_cache("wifi0", {1, 2, 3})
        plan_copies(directory)
        assert directory.best_server(1) is not None

    def test_reregistration_of_live_proxy_rejected(self, directory):
        with pytest.raises(ValueError):
            directory.register_proxy("wifi0", wired=False,
                                     response_latency_s=0.2)

    def test_dead_wired_not_a_replication_target(self):
        d = CacheDirectory()
        d.register_proxy("wired0", wired=True, response_latency_s=0.01)
        d.register_proxy("wired1", wired=True, response_latency_s=0.05)
        d.register_proxy("wifi0", wired=False, response_latency_s=0.3)
        d.publish_cache("wifi0", {1})
        d.mark_down("wired0")
        plan = plan_copies(d)
        assert plan == {"wifi0": ["wired1"]}


def scarce_directory():
    """Two wired hosts, three wireless owners: the scarce-wired regime."""
    d = CacheDirectory()
    d.register_proxy("wired0", wired=True, response_latency_s=0.01)
    d.register_proxy("wired1", wired=True, response_latency_s=0.02)
    for i in range(3):
        d.register_proxy(f"wifi{i}", wired=False, response_latency_s=0.3)
        d.publish_cache(f"wifi{i}", {10 * i})
    return d


class TestDistinctHostGuarantee:
    """Regression: scarce wired pools must never stack one owner's
    replicas (or fragment spread) on a single host."""

    def test_scarce_plan_never_duplicates_hosts(self):
        plan = plan_copies(scarce_directory(), factor=3)
        for owner, hosts in plan.items():
            assert len(hosts) == len(set(hosts)), (owner, hosts)
            # fewer replicas than asked, never a duplicated host
            assert sorted(hosts) == ["wired0", "wired1"]

    def test_replanning_keeps_hosts_distinct(self):
        d = scarce_directory()
        first = plan_copies(d, factor=2)
        second = plan_copies(d, factor=2)   # e.g. after a topology review
        for plan in (first, second):
            for hosts in plan.values():
                assert len(hosts) == len(set(hosts))

    def test_fragment_placement_distinct_while_pool_allows(self):
        d = CacheDirectory()
        for i in range(4):
            d.register_proxy(f"wired{i}", wired=True, response_latency_s=0.01 * (i + 1))
        d.register_proxy("wifi0", wired=False, response_latency_s=0.3)
        d.publish_cache("wifi0", {1})
        plan = d.plan_fragment_placement(k=2, n=4)
        assert len(plan["wifi0"]) == 4
        assert len(set(plan["wifi0"])) == 4  # coded placement inherits distinctness
        # placements resolve failover exactly like whole copies
        d.mark_down("wifi0")
        assert d.best_server(1).name in plan["wifi0"]

    def test_fragment_placement_wraps_round_robin_when_scarce(self):
        d = scarce_directory()
        plan = d.plan_fragment_placement(k=2, n=5)
        for hosts in plan.values():
            assert len(hosts) == 5
            # maximal spread: no host takes a second fragment before
            # every host holds one (counts differ by at most 1)
            counts = sorted(hosts.count(name) for name in set(hosts))
            assert counts[-1] - counts[0] <= 1
            assert set(hosts) == {"wired0", "wired1"}

    def test_fragment_placement_rejects_bad_kn(self):
        d = scarce_directory()
        with pytest.raises(ValueError):
            d.plan_fragment_placement(k=4, n=2)
        with pytest.raises(ValueError):
            d.plan_fragment_placement(k=0, n=2)
