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
