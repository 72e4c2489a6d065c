"""Unit tests for the interval -> proxy routing index."""

import numpy as np
import pytest

from repro.index.interval import IntervalAssignment, IntervalIndex


@pytest.fixture
def index():
    idx = IntervalIndex(np.random.default_rng(0))
    idx.assign("p0", 0, 9)
    idx.assign("p1", 10, 19)
    idx.assign("p2", 20, 29)
    return idx


class TestAssignment:
    def test_invalid_interval_rejected(self):
        with pytest.raises(ValueError):
            IntervalAssignment("p", 5.0, 4.0)

    def test_contains(self):
        a = IntervalAssignment("p", 0.0, 10.0)
        assert a.contains(0.0) and a.contains(10.0)
        assert not a.contains(10.5)


class TestLookup:
    def test_routes_to_owner(self, index):
        assert [a.proxy for a in index.lookup(15.0)] == ["p1"]

    def test_boundaries(self, index):
        assert index.primary(9.0).proxy == "p0"
        assert index.primary(10.0).proxy == "p1"

    def test_uncovered_key(self, index):
        assert index.lookup(99.0) == []
        assert index.primary(99.0) is None

    def test_overlapping_returns_all(self, index):
        index.assign("backup", 5.0, 25.0)
        covering = {a.proxy for a in index.lookup(15.0)}
        assert covering == {"p1", "backup"}

    def test_primary_is_registration_order(self, index):
        index.assign("backup", 0.0, 29.0)
        assert index.primary(15.0).proxy == "p1"

    def test_routing_hops_tracked(self, index):
        index.lookup(15.0)
        assert index.mean_routing_hops >= 0.0

    def test_scales_to_many_proxies(self):
        idx = IntervalIndex(np.random.default_rng(1))
        for i in range(128):
            idx.assign(f"p{i}", i * 10.0, i * 10.0 + 9.0)
        assert idx.primary(555.0).proxy == "p55"
        assert idx.primary(1279.0).proxy == "p127"
