"""Tests for the determinism lint framework (``repro lint``).

Fixture snippets live in temp files *outside* the ``repro`` package, so the
policy treats them as critical code with no sanctioned-module exemptions —
every rule applies at full strictness.  The final guard lints the committed
``src`` tree itself: the linter's own repository must ship clean.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analysis import (
    RULES,
    all_rules,
    lint_paths,
    render_json,
    render_text,
)
from repro.analysis.findings import Finding, Suppressions
from repro.analysis.policy import package_relative
from repro.analysis.runner import lint_file

REPO_ROOT = Path(__file__).resolve().parents[1]

EXPECTED_RULE_IDS = {
    "no-global-rng",
    "no-wall-clock",
    "unordered-iteration",
    "mutable-default-arg",
    "worker-shared-state",
    "no-process-global-counter",
    "no-pickle-wire",
    "no-swallowed-exception",
}


def lint_source(tmp_path: Path, code: str, rule_id: str | None = None):
    """Lint *code* from a temp file, optionally restricted to one rule."""
    target = tmp_path / "snippet.py"
    target.write_text(code)
    rules = [RULES[rule_id]] if rule_id else None
    return lint_file(target, rules=rules)


def rule_ids(findings: list[Finding]) -> set[str]:
    return {f.rule for f in findings}


class TestRegistry:
    def test_all_five_rules_registered(self):
        assert EXPECTED_RULE_IDS <= set(RULES)

    def test_ids_match_instances(self):
        for rule_id, rule in RULES.items():
            assert rule.id == rule_id
            assert rule.summary

    def test_all_rules_returns_registry_order(self):
        assert [r.id for r in all_rules()] == list(RULES)


class TestNoGlobalRng:
    def test_flags_import_random(self, tmp_path):
        findings, _ = lint_source(tmp_path, "import random\n", "no-global-rng")
        assert rule_ids(findings) == {"no-global-rng"}

    def test_flags_from_random_import(self, tmp_path):
        findings, _ = lint_source(
            tmp_path, "from random import choice\n", "no-global-rng"
        )
        assert rule_ids(findings) == {"no-global-rng"}

    def test_flags_np_random_module_calls(self, tmp_path):
        code = "import numpy as np\nx = np.random.rand(3)\n"
        findings, _ = lint_source(tmp_path, code, "no-global-rng")
        assert len(findings) == 1
        assert findings[0].line == 2

    def test_flags_default_rng(self, tmp_path):
        code = "import numpy as np\nrng = np.random.default_rng(7)\n"
        findings, _ = lint_source(tmp_path, code, "no-global-rng")
        assert len(findings) == 1
        assert "seeded_rng" in findings[0].message

    def test_allows_threaded_generator(self, tmp_path):
        code = (
            "def run(rng):\n"
            "    return rng.normal(size=4)\n"
        )
        findings, _ = lint_source(tmp_path, code, "no-global-rng")
        assert findings == []


class TestNoWallClock:
    def test_flags_time_time(self, tmp_path):
        code = "import time\nstamp = time.time()\n"
        findings, _ = lint_source(tmp_path, code, "no-wall-clock")
        assert rule_ids(findings) == {"no-wall-clock"}

    def test_flags_datetime_now(self, tmp_path):
        code = "import datetime\nnow = datetime.datetime.now()\n"
        findings, _ = lint_source(tmp_path, code, "no-wall-clock")
        assert rule_ids(findings) == {"no-wall-clock"}

    def test_perf_counter_is_exempt(self, tmp_path):
        # perf_counter feeds wall_clock_s measurement fields, which the
        # drift gates compare under a tolerance band, never byte-for-byte
        code = "import time\nelapsed = time.perf_counter()\n"
        findings, _ = lint_source(tmp_path, code, "no-wall-clock")
        assert findings == []


class TestUnorderedIteration:
    def test_flags_for_over_set_literal(self, tmp_path):
        code = "for item in {'a', 'b'}:\n    print(item)\n"
        findings, _ = lint_source(tmp_path, code, "unordered-iteration")
        assert rule_ids(findings) == {"unordered-iteration"}

    def test_flags_list_of_set_variable(self, tmp_path):
        code = "names = {'x', 'y'}\nordered = list(names)\n"
        findings, _ = lint_source(tmp_path, code, "unordered-iteration")
        assert len(findings) == 1
        assert findings[0].line == 2

    def test_sorted_set_is_fine(self, tmp_path):
        code = "names = {'x', 'y'}\nordered = sorted(names)\n"
        findings, _ = lint_source(tmp_path, code, "unordered-iteration")
        assert findings == []

    def test_parameter_shadowing_module_set_is_fine(self, tmp_path):
        # a *parameter* named like a module-level set variable is opaque:
        # the caller may pass a sorted list, so iterating it is not flagged
        code = (
            "names = {'x', 'y'}\n"
            "def report(names):\n"
            "    for n in names:\n"
            "        print(n)\n"
        )
        findings, _ = lint_source(tmp_path, code, "unordered-iteration")
        assert findings == []

    def test_membership_test_is_fine(self, tmp_path):
        code = "names = {'x', 'y'}\nhit = 'x' in names\n"
        findings, _ = lint_source(tmp_path, code, "unordered-iteration")
        assert findings == []


class TestMutableDefaultArg:
    def test_flags_list_default(self, tmp_path):
        findings, _ = lint_source(
            tmp_path, "def f(items=[]):\n    return items\n", "mutable-default-arg"
        )
        assert rule_ids(findings) == {"mutable-default-arg"}

    def test_flags_dict_call_default(self, tmp_path):
        findings, _ = lint_source(
            tmp_path, "def f(cache=dict()):\n    return cache\n", "mutable-default-arg"
        )
        assert rule_ids(findings) == {"mutable-default-arg"}

    def test_flags_lambda_default(self, tmp_path):
        findings, _ = lint_source(
            tmp_path, "g = lambda acc=set(): acc\n", "mutable-default-arg"
        )
        assert rule_ids(findings) == {"mutable-default-arg"}

    def test_none_and_tuple_defaults_are_fine(self, tmp_path):
        code = "def f(a=None, b=(), c=0):\n    return a, b, c\n"
        findings, _ = lint_source(tmp_path, code, "mutable-default-arg")
        assert findings == []


class TestWorkerSharedState:
    def test_flags_mutating_module_global(self, tmp_path):
        code = (
            "_CACHE = {}\n"
            "def remember(key, value):\n"
            "    _CACHE[key] = value\n"
        )
        findings, _ = lint_source(tmp_path, code, "worker-shared-state")
        assert rule_ids(findings) == {"worker-shared-state"}

    def test_flags_mutator_method_on_global(self, tmp_path):
        code = (
            "_SEEN = set()\n"
            "def visit(item):\n"
            "    _SEEN.add(item)\n"
        )
        findings, _ = lint_source(tmp_path, code, "worker-shared-state")
        assert rule_ids(findings) == {"worker-shared-state"}

    def test_pool_state_in_pool_init_is_sanctioned(self, tmp_path):
        # the per-worker registry pattern: a *_POOL_STATE global populated
        # only by the pool initializer each worker runs for itself
        code = (
            "_SIM_POOL_STATE = {}\n"
            "def _pool_init(config):\n"
            "    _SIM_POOL_STATE['config'] = config\n"
        )
        findings, _ = lint_source(tmp_path, code, "worker-shared-state")
        assert findings == []

    def test_local_mutation_is_fine(self, tmp_path):
        code = (
            "def tally(items):\n"
            "    counts = {}\n"
            "    for item in items:\n"
            "        counts[item] = counts.get(item, 0) + 1\n"
            "    return counts\n"
        )
        findings, _ = lint_source(tmp_path, code, "worker-shared-state")
        assert findings == []


class TestNoProcessGlobalCounter:
    def test_flags_module_level_itertools_count(self, tmp_path):
        code = (
            "import itertools\n"
            "from dataclasses import dataclass, field\n"
            "_ids = itertools.count()\n"
            "@dataclass\n"
            "class Update:\n"
            "    update_id: int = field(default_factory=lambda: next(_ids))\n"
        )
        findings, _ = lint_source(tmp_path, code, "no-process-global-counter")
        assert [(f.rule, f.line) for f in findings] == [
            ("no-process-global-counter", 3)
        ]

    def test_flags_class_level_and_from_import_spelling(self, tmp_path):
        code = (
            "from itertools import count as counter\n"
            "class Packet:\n"
            "    _ids = counter(1)\n"
        )
        findings, _ = lint_source(tmp_path, code, "no-process-global-counter")
        assert [f.line for f in findings] == [3]

    def test_flags_global_rebinding_counter(self, tmp_path):
        code = (
            "_next_id = 0\n"
            "def fresh_id():\n"
            "    global _next_id\n"
            "    _next_id += 1\n"
            "    return _next_id\n"
        )
        findings, _ = lint_source(tmp_path, code, "no-process-global-counter")
        assert [f.line for f in findings] == [4]
        assert "'_next_id'" in findings[0].message

    def test_counter_owned_by_an_object_is_fine(self, tmp_path):
        code = (
            "import itertools\n"
            "class Engine:\n"
            "    def __init__(self):\n"
            "        self._ids = itertools.count()\n"
            "        self._next_id = 0\n"
            "    def register(self):\n"
            "        self._next_id += 1\n"
            "        return next(self._ids)\n"
        )
        findings, _ = lint_source(tmp_path, code, "no-process-global-counter")
        assert findings == []


class TestNoPickleWire:
    def test_flags_every_import_spelling(self, tmp_path):
        code = (
            "import pickle\n"
            "import pickle as wire\n"
            "from pickle import dumps\n"
            "import _pickle\n"
            "import json\n"
        )
        findings, _ = lint_source(tmp_path, code, "no-pickle-wire")
        assert [(f.rule, f.line) for f in findings] == [
            ("no-pickle-wire", 1),
            ("no-pickle-wire", 2),
            ("no-pickle-wire", 3),
            ("no-pickle-wire", 4),
        ]

    def test_scoped_to_coding_and_core(self, tmp_path):
        code = "import pickle\n"
        for package, flagged in (("coding", True), ("core", True), ("scenarios", False)):
            target = tmp_path / "src" / "repro" / package / "snippet.py"
            target.parent.mkdir(parents=True)
            target.write_text(code)
            findings, _ = lint_file(target, rules=[RULES["no-pickle-wire"]])
            assert bool(findings) is flagged, package


class TestNoSwallowedException:
    def test_flags_broad_handlers_that_carry_on(self, tmp_path):
        code = (
            "try:\n    work()\nexcept:\n    pass\n"                      # 3
            "try:\n    work()\nexcept Exception:\n    log()\n"           # 7
            "try:\n    work()\nexcept BaseException as e:\n    keep(e)\n"  # 11
            "try:\n    work()\nexcept (KeyError, Exception):\n    pass\n"  # 15
            "try:\n    work()\nexcept Exception:\n"                       # 19
            "    def later():\n        raise\n"
        )
        findings, _ = lint_source(tmp_path, code, "no-swallowed-exception")
        assert [(f.rule, f.line) for f in findings] == [
            ("no-swallowed-exception", line) for line in (3, 7, 11, 15, 19)
        ]
        assert "bare except" in findings[0].message

    def test_allows_reraise_and_narrow_handlers(self, tmp_path):
        code = (
            "try:\n    work()\nexcept Exception as error:\n"
            "    raise RuntimeError('unit 3 failed') from error\n"
            "try:\n    work()\nexcept BaseException:\n    cleanup()\n    raise\n"
            "try:\n    work()\nexcept:\n    if retry():\n        raise\n"
            "try:\n    work()\nexcept ValueError:\n    pass\n"
            "try:\n    work()\nexcept (KeyError, IndexError):\n    pass\n"
        )
        findings, _ = lint_source(tmp_path, code, "no-swallowed-exception")
        assert findings == []


class TestSuppressions:
    def test_line_scoped_suppression(self, tmp_path):
        code = "import random  # repro-lint: ignore[no-global-rng]\n"
        findings, suppressed = lint_source(tmp_path, code, "no-global-rng")
        assert findings == []
        assert suppressed == 1

    def test_wildcard_suppression(self, tmp_path):
        code = "import random  # repro-lint: ignore[*]\n"
        findings, suppressed = lint_source(tmp_path, code, "no-global-rng")
        assert findings == []
        assert suppressed == 1

    def test_wrong_id_does_not_suppress(self, tmp_path):
        code = "import random  # repro-lint: ignore[no-wall-clock]\n"
        findings, suppressed = lint_source(tmp_path, code, "no-global-rng")
        assert rule_ids(findings) == {"no-global-rng"}
        assert suppressed == 0

    def test_suppression_is_line_scoped_not_file_scoped(self, tmp_path):
        code = (
            "# repro-lint: ignore[no-global-rng]\n"
            "import random\n"
        )
        findings, _ = lint_source(tmp_path, code, "no-global-rng")
        assert rule_ids(findings) == {"no-global-rng"}

    def test_scan_parses_comma_separated_ids(self):
        sup = Suppressions.scan("x = 1  # repro-lint: ignore[rule-a, rule-b]\n")
        assert sup.by_line == {1: {"rule-a", "rule-b"}}


class TestReportersAndRunner:
    def test_syntax_error_becomes_finding(self, tmp_path):
        findings, _ = lint_source(tmp_path, "def broken(:\n")
        assert rule_ids(findings) == {"syntax-error"}

    def test_missing_path_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            lint_paths([tmp_path / "nope"])

    def test_lint_paths_counts_files(self, tmp_path):
        (tmp_path / "a.py").write_text("import random\n")
        (tmp_path / "b.py").write_text("x = 1\n")
        result = lint_paths([tmp_path])
        assert result.files_scanned == 2
        assert not result.clean
        assert rule_ids(result.findings) == {"no-global-rng"}

    def test_findings_sorted_and_deterministic(self, tmp_path):
        (tmp_path / "b.py").write_text("import random\nimport time\nt = time.time()\n")
        (tmp_path / "a.py").write_text("import random\n")
        result = lint_paths([tmp_path])
        assert result.findings == sorted(result.findings)
        assert result.findings[0].path.endswith("a.py")

    def test_text_report_summary_line(self, tmp_path):
        (tmp_path / "a.py").write_text("import random\n")
        text = render_text(lint_paths([tmp_path]))
        lines = text.splitlines()
        assert lines[-1] == "1 finding in 1 files (0 suppressed)"
        assert "no-global-rng" in lines[0]

    def test_json_report_schema(self, tmp_path):
        (tmp_path / "a.py").write_text("import random\nimport random\n")
        payload = json.loads(render_json(lint_paths([tmp_path])))
        assert payload["schema_version"] == 1
        assert payload["files_scanned"] == 1
        assert payload["suppressed"] == 0
        assert payload["counts"] == {"no-global-rng": 2}
        for finding in payload["findings"]:
            assert set(finding) == {"path", "line", "col", "rule", "message"}
            assert finding["rule"] == "no-global-rng"

    def test_finding_render_format(self):
        finding = Finding(path="x.py", line=3, col=4, rule="r", message="m")
        assert finding.render() == "x.py:3:4: r m"


class TestPolicy:
    def test_package_relative_inside_src(self):
        rel = package_relative(REPO_ROOT / "src" / "repro" / "core" / "config.py")
        assert rel == "core/config.py"

    def test_package_relative_outside_package(self, tmp_path):
        assert package_relative(tmp_path / "snippet.py") is None


class TestCommittedTreeIsClean:
    """The repository must satisfy its own linter, with no suppressions."""

    def test_src_lints_clean(self):
        result = lint_paths([REPO_ROOT / "src"])
        assert result.files_scanned > 0
        rendered = [f.render() for f in result.findings]
        assert rendered == [], "committed tree has lint findings"

    def test_src_has_zero_suppressions(self):
        result = lint_paths([REPO_ROOT / "src"])
        assert result.suppressed == 0
