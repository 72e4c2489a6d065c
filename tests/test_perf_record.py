"""``tools/perf_pairs.py --record``: what the trajectory file keeps, and
that every perf claim in CHANGES.md is in it."""

from __future__ import annotations

import importlib.util
import json
import re
import shutil
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
TOOL = REPO / "tools" / "perf_pairs.py"

#: ``--record`` stores the number of the CHANGES entry (``--pr``) from this
#: entry on; the trajectory entries recorded before it stay unnumbered
NUMBERED_FROM = 40


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


def test_both_trees_hold_bytecode_before_the_first_child(monkeypatch):
    """Children run with ``PYTHONDONTWRITEBYTECODE`` (when the host sets it)
    and never cache bytecode, so an unpacked parent that nothing compiled
    would compile ``repro`` inside every child's timed setup."""
    tool = load_tool()
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")

    def unpack_revision(revision, into):
        shutil.copytree(REPO / "src", into / "src",
                        ignore=shutil.ignore_patterns("__pycache__"))

    uncompiled = {}

    def run_child(root, workload, seed, scale, env):
        modules = sorted((root / "src" / "repro").rglob("*.py"))
        uncompiled[root] = [
            module for module in modules
            if not Path(importlib.util.cache_from_source(str(module))).exists()
        ]
        assert len(modules) > 50
        return {"end_to_end": dict.fromkeys(tool.HOST_METRICS, 1.0), "summary": "{}"}

    monkeypatch.setattr(tool, "unpack_revision", unpack_revision)
    monkeypatch.setattr(tool, "run_child", run_child)
    assert tool.main(["--parent", "HEAD", "--pairs", "1", "--workload", "cell_day"]) == 0
    assert len(uncompiled) == 2 and REPO in uncompiled
    assert all(missing == [] for missing in uncompiled.values())


def perf_claims(changes: str) -> list[int]:
    """Numbers of the CHANGES entries tagged ``perf_opt`` (the first
    parenthesised ``tag;`` of an entry's line)."""
    return [
        int(number)
        for number, tag in re.findall(r"^- PR (\d+): [^\n]*?\((\w+);", changes, re.M)
        if tag == "perf_opt"
    ]


def test_perf_claims_reads_each_entry_tag():
    changes = (
        "- PR 3: Faster (perf_opt; claims `wall_s`) — a (simplicity; aside)\n"
        "- PR 4: Smaller (simplicity; claims no gain; see PR 3 (perf_opt; x))\n"
        "  - PR 5: (perf_opt; an indented line is not an entry)\n"
        "- PR 6: Two passes, one (perf_opt; claims `sim_s_per_wall_s`)\n"
    )
    assert perf_claims(changes) == [3, 6]


def test_every_numbered_perf_claim_has_a_trajectory_entry():
    claims = [
        number
        for number in perf_claims((REPO / "CHANGES.md").read_text())
        if number >= NUMBERED_FROM
    ]
    trajectory = json.loads((REPO / "BENCH_perf.json").read_text())["trajectory"]
    recorded = {entry["pr"]: entry for entry in trajectory if "pr" in entry}
    assert claims, "no numbered perf claim yet"
    assert [number for number in claims if number not in recorded] == []
    for number in claims:
        assert recorded[number]["pairs"] >= 10


def test_record_needs_the_entry_number(tmp_path, capsys):
    tool = load_tool()
    with pytest.raises(SystemExit) as exit_:
        tool.main(["--record", str(tmp_path / "BENCH_perf.json")])
    assert exit_.value.code == 2
    assert "--record needs --pr" in capsys.readouterr().err
