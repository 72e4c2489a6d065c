"""Golden outputs: every scenario's rows and every perf summary, pinned.

Each committed file under ``tests/golden/`` is what the tree computed when
it was last blessed (``tools/bless_golden.py``); a run that computes
anything else fails here with a unified diff naming the metrics that
moved.  A change that means to move them re-blesses the file and says why
in CHANGES.
"""

from __future__ import annotations

import difflib
import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bless_golden.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("bless_golden", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


BLESS = load_tool()
ENTRIES = BLESS.entries()


def test_every_golden_file_has_an_entry():
    committed = set(BLESS.GOLDEN.glob("*/*.json"))
    assert committed == {path for _, _, path in ENTRIES}


@pytest.mark.parametrize(
    ("kind", "name", "path"), ENTRIES, ids=[f"{kind}/{name}" for kind, name, _ in ENTRIES]
)
def test_output_matches_golden(kind, name, path):
    expected = path.read_text()
    actual = BLESS.render(kind, name)
    if actual != expected:
        diff = "".join(
            difflib.unified_diff(
                expected.splitlines(keepends=True),
                actual.splitlines(keepends=True),
                fromfile=f"golden {kind}/{name}",
                tofile=f"computed {kind}/{name}",
            )
        )
        pytest.fail(
            f"{kind} {name!r} moved from {path.name}; if intended, re-bless with "
            f"tools/bless_golden.py --only {name!r}\n{diff}",
            pytrace=False,
        )
