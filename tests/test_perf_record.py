"""``tools/perf_pairs.py --record``: what the trajectory file keeps."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "perf_pairs.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("perf_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_record_caps_the_trajectory_and_carries_the_negative_list(tmp_path):
    tool = load_tool()
    path = tmp_path / "BENCH_perf.json"
    negative = [{"experiment": "cummax Lindley", "result": "float drift"}]
    path.write_text(json.dumps({"trajectory": [], "negative": negative}))
    for serial in range(tool.TRAJECTORY_ENTRIES + 3):
        tool.record(path, {"change": f"rev{serial}", "workloads": {}})
    kept = json.loads(path.read_text())
    assert [entry["change"] for entry in kept["trajectory"]] == [
        f"rev{serial}" for serial in range(3, tool.TRAJECTORY_ENTRIES + 3)
    ]
    assert kept["negative"] == negative


def test_record_starts_a_missing_file(tmp_path):
    tool = load_tool()
    path = tmp_path / "new.json"
    tool.record(path, {"change": "rev0", "workloads": {}})
    kept = json.loads(path.read_text())
    assert len(kept["trajectory"]) == 1 and kept["negative"] == []


def test_every_host_metric_is_judged_alike(monkeypatch, tmp_path):
    tool = load_tool()
    # per pair (parent, change): wall_s, setup_s, peak_rss_mb
    pairs = [((1.0, 1.2, 150.0), (0.9, 0.4, 140.0)),
             ((1.1, 1.3, 151.0), (1.1, 0.5, 139.0)),
             ((1.2, 1.1, 152.0), (1.3, 0.3, 152.0))]
    served = {"parent": iter(side[0] for side in pairs), "change": iter(side[1] for side in pairs)}

    def run_child(root, workload, seed, scale, env):
        wall_s, setup_s, peak_rss_mb = next(served[root.name])
        metrics = {"wall_s": wall_s, "setup_s": setup_s, "peak_rss_mb": peak_rss_mb}
        return {"end_to_end": metrics, "summary": "{}"}

    monkeypatch.setattr(tool, "run_child", run_child)
    sides = {"parent": Path("parent"), "change": Path("change")}
    measured = tool.pair_workload(sides, "query_storm", 1105, "quick", len(pairs), env={})
    for metric in tool.HOST_METRICS:
        for side in ("parent", "change"):
            assert set(measured[side][metric]) == {"median", "q1", "q3", "best"}
    assert measured["parent"]["setup_s"] == {"median": 1.2, "q1": 1.15, "q3": 1.25, "best": 1.1}
    assert measured["change"]["setup_s"]["median"] == 0.4
    assert measured["pairs_won"] == {"wall_s": 1, "setup_s": 3, "peak_rss_mb": 2}
    assert measured["ties"] == {"wall_s": 1, "setup_s": 0, "peak_rss_mb": 1}
    assert measured["summaries_identical"] is True
    path = tmp_path / "BENCH_perf.json"
    tool.record(path, {"change": "rev0", "workloads": {"query_storm": measured}})
    assert json.loads(path.read_text())["trajectory"][0]["workloads"]["query_storm"] == measured
