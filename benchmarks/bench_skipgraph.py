"""Section 5 ablation — the order-preserving distributed index.

PRESTO picks skip graphs [14] for its proxy index because they keep keys
ordered (temporally ordered cross-proxy views) with O(log n) routing and no
central coordinator.  This bench measures search/insert/range hop counts as
the proxy population grows and verifies the logarithmic scaling that makes
the single-logical-view abstraction affordable.

Expected shape: mean search hops grow ~ c . log2(n); range queries cost
O(log n + result size); order is preserved at every size.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from conftest import bench_scale, format_table, write_result
from repro.index.skipgraph import SkipGraph

SIZES_SMALL = (16, 64, 256, 1024)
SIZES_PAPER = (16, 64, 256, 1024, 4096)


def build_graph(n, seed=71):
    rng = np.random.default_rng(seed)
    graph = SkipGraph(rng)
    keys = rng.permutation(n).astype(float)
    for key in keys:
        graph.insert(float(key), f"proxy{int(key)}")
    return graph


class TestSkipGraphScaling:
    def test_hop_scaling(self):
        sizes = SIZES_PAPER if bench_scale() == "paper" else SIZES_SMALL
        rows = []
        mean_hops = {}
        rng = np.random.default_rng(72)
        for n in sizes:
            graph = build_graph(n)
            probes = rng.uniform(0, n, 200)
            hops = [graph.search(float(p)).hops for p in probes]
            mean_hops[n] = float(np.mean(hops))
            rows.append(
                [
                    str(n),
                    f"{mean_hops[n]:.1f}",
                    f"{math.log2(n):.1f}",
                    f"{mean_hops[n] / math.log2(n):.2f}",
                ]
            )
        write_result(
            "skipgraph_scaling",
            format_table(
                ["proxies", "mean search hops", "log2(n)", "hops/log2(n)"],
                rows,
                "Skip-graph search cost vs index size",
            ),
        )
        # logarithmic growth: hops/log2(n) stays bounded as n grows 64x
        ratios = [mean_hops[n] / math.log2(n) for n in sizes]
        assert max(ratios) < 6.0
        # and hops grow far slower than linearly
        assert mean_hops[sizes[-1]] < mean_hops[sizes[0]] * (
            sizes[-1] / sizes[0]
        ) * 0.1

    def test_order_preserved_at_scale(self):
        graph = build_graph(2048)
        keys = list(graph.keys_in_order())
        assert keys == sorted(keys)

    def test_range_query_cost(self):
        graph = build_graph(1024)
        found, hops = graph.range_query(100.0, 163.0)
        assert len(found) == 64
        # routing + walk: well under a linear scan of 1024
        assert hops < 64 + 8 * math.log2(1024)

    def test_benchmark_insert_throughput(self, benchmark):
        n = 1024 if bench_scale() == "small" else 8192
        graph = benchmark.pedantic(build_graph, args=(n,), rounds=1, iterations=1)
        assert len(graph) == n

    def test_benchmark_search_throughput(self, benchmark):
        graph = build_graph(1024)
        probes = np.random.default_rng(73).uniform(0, 1024, 1000)

        def search_all():
            return sum(graph.search(float(p)).hops for p in probes)

        total = benchmark.pedantic(search_all, rounds=1, iterations=1)
        assert total > 0
