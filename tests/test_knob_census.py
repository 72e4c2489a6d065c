"""Knob census: every configuration field has a caller that sets it.

A field nobody sets is a constant wearing an option's clothes — it doubles
the configurations a reader must consider and nothing exercises its other
values.  This scan keeps such fields from regrowing: for each field of the
configuration dataclasses below it looks for the field's name passed as a
keyword argument or written as a string dict key (``**kwargs`` tables)
anywhere in ``src``, ``tests``, ``benchmarks``, ``examples`` or ``tools``
outside the module that defines the class.

Pure AST — nothing scanned is imported — and by *name*: a same-named field
of another class can mask an unset one, so this is a floor, not a proof.
A field that fails here should become a module constant beside the code
that reads it (or get the test or workload that needs it configurable).
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCANNED = ("src", "tests", "benchmarks", "examples", "tools")

#: defining module -> configuration dataclasses whose fields are knobs
CONFIG_CLASSES = {
    "src/repro/core/config.py": ("PrestoConfig", "FederationConfig"),
    "src/repro/serving/config.py": ("ServingConfig",),
    "src/repro/scenarios/runner.py": ("CampaignConfig",),
    "src/repro/scenarios/spec.py": (
        "TracePerturbation",
        "RadioRegime",
        "StoragePressure",
        "ClockRegime",
        "StandingQuerySpec",
        "WorkloadSpec",
        "FederationRegime",
        "ServingRegime",
    ),
}


def class_fields(tree: ast.Module, class_name: str) -> list[str]:
    """Annotated (dataclass-field) names in *class_name*'s body."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and node.name == class_name:
            return [
                statement.target.id
                for statement in node.body
                if isinstance(statement, ast.AnnAssign)
                and isinstance(statement.target, ast.Name)
            ]
    raise AssertionError(f"class {class_name} not found")


def names_set_in(tree: ast.AST) -> set[str]:
    """Every keyword-argument name and string dict key in *tree*."""
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            names.update(kw.arg for kw in node.keywords if kw.arg is not None)
        elif isinstance(node, ast.Dict):
            names.update(
                key.value
                for key in node.keys
                if isinstance(key, ast.Constant) and isinstance(key.value, str)
            )
    return names


def never_set_fields(root: Path = ROOT) -> list[str]:
    """``Class.field`` for every knob no file outside its module sets."""
    trees = {
        path.relative_to(root).as_posix(): ast.parse(path.read_text())
        for directory in SCANNED
        for path in sorted((root / directory).rglob("*.py"))
    }
    set_in = {name: names_set_in(tree) for name, tree in trees.items()}
    unset = []
    for module, class_names in CONFIG_CLASSES.items():
        elsewhere = set().union(
            *(names for name, names in set_in.items() if name != module)
        )
        for class_name in class_names:
            unset += [
                f"{class_name}.{field}"
                for field in class_fields(trees[module], class_name)
                if field not in elsewhere
            ]
    return unset


def test_every_config_field_has_a_setter():
    assert never_set_fields() == []


def test_census_catches_a_never_set_field(tmp_path):
    """The scan itself works: a knob with no caller is named."""
    module = tmp_path / "src/repro/serving/config.py"
    for name in CONFIG_CLASSES:
        path = tmp_path / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text((ROOT / name).read_text())
    module.write_text(
        module.read_text().replace(
            "    offered_qps: float = 200.0\n",
            "    offered_qps: float = 200.0\n    census_canary_s: float = 1.0\n",
        )
    )
    caller = tmp_path / "tests/test_caller.py"
    caller.parent.mkdir()
    caller.write_text("ServingConfig(offered_qps=5.0)\n")
    unset = never_set_fields(tmp_path)
    assert "ServingConfig.census_canary_s" in unset
    assert "ServingConfig.offered_qps" not in unset
