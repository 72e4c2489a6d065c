"""The docs site must not rot: links resolve, guides track the code."""

import importlib.util
import re
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def load_checker():
    path = REPO_ROOT / "tools" / "check_doc_links.py"
    spec = importlib.util.spec_from_file_location("check_doc_links", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestDocLinks:
    def test_docs_exist(self):
        for name in ("architecture.md", "scenarios.md", "benchmarks.md"):
            assert (REPO_ROOT / "docs" / name).exists(), name

    def test_all_relative_links_resolve(self):
        checker = load_checker()
        failures = [
            failure
            for path in checker.iter_doc_files()
            for failure in checker.broken_links(path)
        ]
        assert failures == []

    def test_checker_flags_a_dangling_link(self, tmp_path):
        checker = load_checker()
        page = tmp_path / "page.md"
        page.write_text(
            "[ok](page.md) [gone](missing.md) [web](https://example.com)\n"
        )
        failures = checker.broken_links(page)
        assert len(failures) == 1 and "missing.md" in failures[0]


class TestGuidesTrackTheCode:
    def test_scenarios_guide_lists_every_builtin(self):
        from repro.scenarios import builtin_scenarios

        guide = (REPO_ROOT / "docs" / "scenarios.md").read_text()
        for name in builtin_scenarios():
            assert name in guide, f"docs/scenarios.md misses builtin {name!r}"

    def test_scenarios_guide_lists_every_sweep_parameter(self):
        from repro.scenarios import SWEEP_PARAMETERS
        from repro.scenarios.spec import SWEEP_TABLE

        guide = (REPO_ROOT / "docs" / "scenarios.md").read_text()
        for parameter in SWEEP_PARAMETERS:
            row = SWEEP_TABLE[parameter]
            # name, label, pinned field and value domain, straight from the table
            line = (
                f"| `{row.name}` | `{row.label}=` | "
                f"`{row.section}.{row.name}` | {row.domain} |"
            )
            assert line in guide, (
                f"docs/scenarios.md sweep table misses or misstates {parameter!r}; "
                f"expected a row starting {line!r}"
            )

    def test_scenarios_guide_lists_every_spec_field(self):
        import dataclasses

        from repro.scenarios import ScenarioSpec

        guide = (REPO_ROOT / "docs" / "scenarios.md").read_text()
        for field in dataclasses.fields(ScenarioSpec):
            assert f"`{field.name}`" in guide, (
                f"docs/scenarios.md misses ScenarioSpec field {field.name!r}"
            )

    def test_grid_table_in_guide_matches_committed_artifact(self):
        """The 2-D table shown in the guide is the example's real output."""
        artifact = REPO_ROOT / "docs" / "results" / "wearout_vs_loss_grid.txt"
        guide = (REPO_ROOT / "docs" / "scenarios.md").read_text()
        blocks = re.findall(
            r"^```[a-z]*\n(.*?)^```", guide, flags=re.DOTALL | re.MULTILINE
        )
        assert any(
            block.strip() == artifact.read_text().strip() for block in blocks
        ), "docs/scenarios.md grid table diverged from the committed artifact"

    def test_architecture_map_names_real_modules(self):
        page = (REPO_ROOT / "docs" / "architecture.md").read_text()
        for module in (
            "core/federation.py",
            "core/system.py",
            "scenarios/runner.py",
            "simulation/kernel.py",
        ):
            assert module in page
