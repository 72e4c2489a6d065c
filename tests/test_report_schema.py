"""Report-schema census: every report metric is declared, and declared once.

A report field's merge rule lives on the field (:mod:`repro.metrics`), and
a report's flat summary is its class's ``SUMMARY`` declaration.  This
census fails on a field that merges by an unstated rule, on a summary
entry that names nothing, on a campaign-row key the summaries lack, and on
a report attribute the perf benchmark reads (``benchmarks/perf/``, by AST,
nothing imported) that the reports no longer have.
"""

from __future__ import annotations

import ast
import dataclasses
import typing
from pathlib import Path

import pytest

from repro.coding import CodingCounters, CodingReport
from repro.core.federation import FederatedReport, RoutingCounters
from repro.core.system import SystemReport
from repro.metrics import MERGE_RULES, Metrics, fold, merge_rule, merged
from repro.scenarios import runner
from repro.serving import ServingReport

ROOT = Path(__file__).resolve().parent.parent
PERF_READERS = ("layers.py", "endtoend.py", "child.py")
REPORTS = (
    SystemReport,
    FederatedReport,
    RoutingCounters,
    CodingCounters,
    CodingReport,
    ServingReport,
)
#: the report class each variable name in the perf tree holds
READ_AS = {"report": SystemReport, "serving": ServingReport, "coding": CodingReport}


def has_attribute(cls: type, name: str) -> bool:
    return name in {f.name for f in dataclasses.fields(cls)} or hasattr(cls, name)


def summary_entries(cls: type[Metrics]) -> list[tuple[str, str]]:
    return [(e, e) if isinstance(e, str) else e for e in cls.SUMMARY]


@pytest.mark.parametrize("cls", REPORTS, ids=lambda cls: cls.__name__)
def test_every_non_int_field_declares_its_merge_rule(cls):
    undeclared = [
        f.name
        for f in dataclasses.fields(cls)
        if f.type not in (int, "int") and "merge" not in f.metadata
    ]
    assert undeclared == []
    assert {merge_rule(f) for f in dataclasses.fields(cls)} <= set(MERGE_RULES)


@pytest.mark.parametrize(
    "cls", [cls for cls in REPORTS if issubclass(cls, Metrics)], ids=lambda cls: cls.__name__
)
def test_summary_declarations_name_fields_or_properties(cls):
    hints = typing.get_type_hints(cls)
    keys = [key for key, _ in summary_entries(cls)]
    assert len(keys) == len(set(keys))
    for key, attribute in summary_entries(cls):
        if key.endswith("_"):
            # a nested report section: a field holding a Metrics report
            assert any(
                isinstance(arg, type) and issubclass(arg, Metrics)
                for arg in typing.get_args(hints[attribute])
            ), attribute
        else:
            assert attribute in hints or isinstance(
                getattr(cls, attribute, None), property
            ), attribute


def test_a_subclass_extends_its_parents_summary():
    parent = summary_entries(SystemReport)
    assert summary_entries(FederatedReport)[: len(parent)] == parent


def test_campaign_rows_read_declared_summary_keys():
    cell = {key for key, _ in summary_entries(SystemReport)}
    federated = {key for key, _ in summary_entries(FederatedReport)}
    assert set(runner.ROW_METRICS) <= cell
    assert set(runner.FEDERATED_ROW_METRICS) <= federated - cell
    assert set(runner.ROW_RENAMES) <= set(runner.ROW_METRICS)
    sections = {key for key, _ in summary_entries(FederatedReport) if key.endswith("_")}
    assert set(runner.ROW_SECTIONS) == sections


def perf_reads() -> list[tuple[str, str, str, bool]]:
    """``(file, variable, attribute, optional)`` for each report read in the perf tree.

    ``report.x`` is *required* (single-cell reports must have it);
    ``getattr(report, "x", default)`` is *optional* (federated reports).
    """
    reads = []
    for name in PERF_READERS:
        tree = ast.parse((ROOT / "benchmarks" / "perf" / name).read_text())
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in READ_AS
            ):
                reads.append((name, node.value.id, node.attr, False))
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "getattr"
                and isinstance(node.args[0], ast.Name)
                and node.args[0].id in READ_AS
                and isinstance(node.args[1], ast.Constant)
            ):
                reads.append((name, node.args[0].id, node.args[1].value, True))
    return reads


def test_perf_tree_reads_existing_report_attributes():
    reads = perf_reads()
    assert {variable for _, variable, _, _ in reads} == set(READ_AS)
    missing = []
    for name, variable, attribute, optional in reads:
        cls = READ_AS[variable]
        if optional and cls is SystemReport:
            cls = FederatedReport
        if not has_attribute(cls, attribute):
            missing.append(f"{name}: {variable}.{attribute}")
    assert missing == []


@dataclasses.dataclass
class Ledger:
    n_sensors: int
    joules: float = merged("sum")
    worst: int = merged("max")
    score: float = merged("sensor_mean")
    by_kind: dict = merged("dict_sum")
    label: str = merged("given")


@dataclasses.dataclass
class Wider(Ledger):
    extra: int = 0


LEDGERS = [
    Ledger(1, 0.5, 3, 1.0, {"a": 1.0}, "x"),
    Ledger(3, 0.25, 2, 0.5, {"b": 2.0, "a": 0.5}, "y"),
]


class TestFold:
    def test_each_rule(self):
        merged_ledger = fold(Ledger, LEDGERS, label="all")
        weighted = (1.0 * 1 + 0.5 * 3) / 4
        assert merged_ledger == Ledger(4, 0.75, 3, weighted, {"a": 1.5, "b": 2.0}, "all")
        assert list(merged_ledger.by_kind) == ["a", "b"]

    def test_refuses_to_sum_a_given_field(self):
        with pytest.raises(TypeError, match="Ledger.label"):
            fold(Ledger, LEDGERS)

    def test_fields_beyond_the_records_must_be_given(self):
        with pytest.raises(TypeError, match="Wider.extra"):
            fold(Wider, LEDGERS, label="all")
        assert fold(Wider, LEDGERS, label="all", extra=7).extra == 7

    def test_undeclared_non_int_field_fails_loud(self):
        @dataclasses.dataclass
        class Loose:
            ratio: float

        with pytest.raises(TypeError, match="ratio"):
            fold(Loose, [Loose(0.5)])

    def test_unknown_rule_rejected(self):
        with pytest.raises(ValueError, match="merge rule"):
            merged("mean")
