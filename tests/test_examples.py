"""Smoke tests: every example must run end-to-end and tell its story."""

import importlib.util
import sys
from pathlib import Path

EXAMPLES_DIR = Path(__file__).parent.parent / "examples"


def run_example(name: str, capsys, prepare=None) -> str:
    spec = importlib.util.spec_from_file_location(name, EXAMPLES_DIR / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    try:
        spec.loader.exec_module(module)
        if prepare is not None:
            prepare(module)
        module.main()
    finally:
        sys.modules.pop(name, None)
    return capsys.readouterr().out


class TestExamples:
    def test_quickstart(self, capsys):
        output = run_example("quickstart", capsys)
        assert "sensor energy" in output
        assert "success rate" in output

    def test_surveillance(self, capsys):
        output = run_example("surveillance", capsys)
        assert "detected" in output
        assert "forensic query" in output

    def test_traffic_monitoring(self, capsys):
        output = run_example("traffic_monitoring", capsys)
        assert "ordering errors after proxy sync correction: 0" in output
        assert "recovered trajectories" in output

    def test_scenario_campaign(self, capsys, tmp_path):
        # Redirect the grid artifact: tests must not write into the tree
        # (the copy the docs embed is docs/results/wearout_vs_loss_grid.txt).
        output = run_example(
            "scenario_campaign",
            capsys,
            prepare=lambda module: setattr(
                module, "GRID_RESULT_PATH", tmp_path / "wearout_vs_loss_grid.txt"
            ),
        )
        assert "what the campaign says" in output
        assert "failovers" in output
        assert "qualifying injected anomalies" in output
        assert "wear-out knee vs channel loss" in output
        assert "wearout_vs_loss_grid/federated — aged_segments" in output
        assert (tmp_path / "wearout_vs_loss_grid.txt").exists()

    def test_campus_federation(self, capsys):
        output = run_example("campus_federation", capsys)
        assert "replication plan" in output
        assert "mesh outage" in output
        assert "answered from the wired replica" in output

    def test_building_monitoring(self, capsys):
        output = run_example("building_monitoring", capsys)
        assert "ordered cross-proxy view, last 30 min:" in output
        assert "global sensor" in output

    def test_elder_care(self, capsys):
        output = run_example("elder_care", capsys)
        assert "fall at" in output
        assert "check interval after matching" in output
