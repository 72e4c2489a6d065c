"""Tests of the benchmark harness itself (collected by the tier-1 command).

They pin the tracer's arithmetic on a synthetic call tree, that wrapping is
fully undone, that every entry point in the layer map still exists (a
rename in ``src`` must fail here, not silently un-trace a layer), that
``BENCHMARK.json`` declares exactly what the code reports, and that all
five workloads run end to end at ``--quick`` scale with the output checks
on.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parents[1] / "src"))

import endtoend  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402
from tracer import Target, Tracer  # noqa: E402


@pytest.fixture
def tree():
    """A synthetic module: ``outer`` calls ``inner`` twice, ``fact`` recurses,
    ``boom`` raises from two spans deep."""
    module = types.ModuleType("perf_harness_fake")

    class Tree:
        def outer(self):
            time.sleep(0.010)
            self.inner()
            self.inner()
            return "done"

        def inner(self):
            time.sleep(0.005)

        def fact(self, n):
            time.sleep(0.002)
            return 1 if n == 0 else n * self.fact(n - 1)

        def boom(self):
            self.thrower()

        def thrower(self):
            raise KeyError("from two spans deep")

    def helper():
        return "helped"

    module.Tree = Tree
    module.helper = helper
    sys.modules[module.__name__] = module
    importer = types.ModuleType("perf_harness_importer")
    importer.helper = helper          # what ``from fake import helper`` leaves behind
    sys.modules[importer.__name__] = importer
    yield module, importer
    del sys.modules[module.__name__], sys.modules[importer.__name__]


def _targets():
    fake = "perf_harness_fake"
    return [
        Target("a.outer", fake, "Tree.outer", root=True),
        Target("a.inner", fake, "Tree.inner"),
        Target("b", fake, "Tree.fact"),
        Target("c.boom", fake, "Tree.boom"),
        Target("c.thrower", fake, "Tree.thrower"),
        Target("d", fake, "helper"),
    ]


def test_parent_self_time_is_total_minus_children(tree):
    module, _ = tree
    tracer = Tracer(record_spans=True)
    tracer.install(_targets())
    tracer.start()
    assert module.Tree().outer() == "done"
    tracer.stop()
    tracer.uninstall()
    assert tracer.calls["a.outer"] == 1 and tracer.calls["a.inner"] == 2
    outer_s, inner_s = tracer.self_s("a.outer"), tracer.self_s("a.inner")
    # sleeps only guarantee lower bounds; the split is what matters
    assert 0.010 <= outer_s < 0.010 + 0.008
    assert 0.010 <= inner_s < 0.010 + 0.008
    assert tracer.layer_self_s("a") == pytest.approx(outer_s + inner_s)
    assert tracer.layer_self_s("a") <= tracer.traced_wall_s
    # recorded spans: children point at the root, ids are unique, intervals nest
    by_id = {span[0]: span for span in tracer.spans}
    assert len(by_id) == 3
    (root,) = [span for span in tracer.spans if span[1] is None]
    assert root[2] == "a.outer"
    for span in tracer.spans:
        if span is not root:
            assert span[1] == root[0] and root[4] <= span[4] <= span[5] <= root[5]


def test_recursion_counts_every_level_once(tree):
    module, _ = tree
    tracer = Tracer()
    tracer.install(_targets())
    tracer.start()
    assert module.Tree().fact(4) == 24
    tracer.stop()
    tracer.uninstall()
    assert tracer.calls["b"] == 5
    # five levels of 2 ms each: self time is their sum, not the 2+4+..+10 ms
    # a tracer that forgot to subtract children would report
    assert 0.010 <= tracer.self_s("b") < 0.020


def test_exception_unwinds_the_span_stack(tree):
    module, _ = tree
    tracer = Tracer()
    tracer.install(_targets())
    tracer.start()
    with pytest.raises(KeyError):
        module.Tree().boom()
    assert tracer._stack == []
    module.Tree().inner()          # a later span must not inherit a stale parent
    tracer.stop()
    tracer.uninstall()
    assert tracer.calls["c.boom"] == 1 and tracer.calls["c.thrower"] == 1
    assert tracer.calls["a.inner"] == 1
    assert tracer.self_s("a.inner") >= 0.005


def test_nothing_is_counted_outside_start_stop(tree):
    module, _ = tree
    tracer = Tracer()
    tracer.install(_targets())
    module.Tree().outer()
    tracer.uninstall()
    assert sum(tracer.calls.values()) == 0 and sum(tracer.self_ns.values()) == 0


def test_uninstall_restores_every_original_by_identity(tree):
    module, importer = tree
    originals = {
        name: module.Tree.__dict__[name] for name in ("outer", "inner", "fact", "boom", "thrower")
    }
    helper = module.helper
    tracer = Tracer()
    tracer.install(_targets())
    assert module.Tree.__dict__["outer"] is not originals["outer"]
    # a function imported by name elsewhere is patched there too
    assert module.helper is not helper and importer.helper is module.helper
    tracer.uninstall()
    for name, original in originals.items():
        assert module.Tree.__dict__[name] is original
    assert module.helper is helper and importer.helper is helper


def test_count_true_and_gauge(tree):
    module, _ = tree
    module.Tree.flag = lambda self, value: value
    module.Tree.ticks = 0

    def tick(self):
        self.ticks += 3

    module.Tree.tick = tick
    fake = "perf_harness_fake"
    tracer = Tracer()
    tracer.install([
        Target("flag", fake, "Tree.flag", count_true=True),
        Target("tick", fake, "Tree.tick", gauge=lambda tree: tree.ticks),
    ])
    tracer.start()
    node = module.Tree()
    for value in (True, False, True, 1):
        node.flag(value)
    node.tick()
    node.tick()
    tracer.stop()
    tracer.uninstall()
    assert tracer.calls["flag"] == 4 and tracer.true_returns["flag"] == 2
    assert tracer.gauges["tick"] == 6


def test_every_layer_entry_point_resolves():
    for target in layers.TARGETS:
        holder, leaf, original = target.resolve()
        assert callable(original), target.name
    # an inherited method is patched on the class that defines it
    holder, _, _ = next(
        t for t in layers.TARGETS if t.attr == "FederatedSystem.route_query"
    ).resolve()
    from repro.core.federation import FederatedSystem

    assert holder in FederatedSystem.__mro__ and "route_query" in holder.__dict__
    assert {metric.layer for metric in layers.METRICS} == {*layers.LAYERS, "query", "trace"}
    buckets = {target.bucket for target in layers.TARGETS}
    for group in (layers.SENSING, layers.WRITE_PATH, layers.READ_PATH, layers.SYNC_PATH):
        for name in group:
            assert any(b == name or b.startswith(name + ".") for b in buckets), name


def test_benchmark_json_declares_what_the_code_reports():
    declared = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
    assert declared["paths"] == ["benchmarks/perf"]
    assert [w["name"] for w in declared["workloads"]] == list(workloads.WORKLOADS)
    assert declared["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in endtoend.END_TO_END
    ]
    assert declared["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in layers.METRICS
    ]


def test_quick_scale_runs_all_five_workloads_with_checks_on(tmp_path):
    out = tmp_path / "quick.json"
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--quick", "--out", str(out)],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, timeout=120, check=False,
    )
    assert done.returncode == 0, done.stdout
    assert "ALL CHECKS PASSED" in done.stdout and "FAIL" not in done.stdout
    results = json.loads(out.read_text())["workloads"]
    assert list(results) == list(workloads.WORKLOADS)
    for name, record in results.items():
        assert set(record["end_to_end"]) == {m.name for m in endtoend.END_TO_END}, name
        assert set(record["per_layer"]) == {m.name for m in layers.METRICS}, name
        assert record["failed"] == 0 and record["attempted"] > 0, name
    # the compare tool agrees a run is within bounds of itself
    same = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--compare", str(out), str(out)],
        stdout=subprocess.PIPE, text=True, timeout=30, check=False,
    )
    assert same.returncode == 0 and "within bounds" in same.stdout


def test_compare_flags_a_regression_outside_its_bound(tmp_path):
    def record(wall):
        stats = {
            m.name: {"value": 1.0, "min": 1.0, "max": 1.0, "spread": 0.0, "n": 3, "unit": m.unit}
            for m in endtoend.END_TO_END
        }
        stats["wall_s"].update(value=wall, min=wall, max=wall)
        per_layer = {m.name: 0.0 for m in layers.METRICS}
        return {"workloads": {"cell_day": {"seed": 1, "end_to_end": stats, "per_layer": per_layer}}}

    bound = next(m.bound for m in endtoend.END_TO_END if m.name == "wall_s")
    a, inside, outside = tmp_path / "a.json", tmp_path / "in.json", tmp_path / "out.json"
    a.write_text(json.dumps(record(1.0)))
    inside.write_text(json.dumps(record(1.0 + 0.9 * bound)))
    outside.write_text(json.dumps(record(1.0 + 1.1 * bound)))
    run = [sys.executable, str(HERE / "run.py"), "--compare", str(a)]
    ok = subprocess.run(run + [str(inside)], stdout=subprocess.PIPE, text=True, check=False)
    bad = subprocess.run(run + [str(outside)], stdout=subprocess.PIPE, text=True, check=False)
    assert ok.returncode == 0 and "REGRESSION" not in ok.stdout
    assert bad.returncode == 1 and "REGRESSION" in bad.stdout
