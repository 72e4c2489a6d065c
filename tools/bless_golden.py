#!/usr/bin/env python
"""Regenerate the golden outputs ``tests/test_golden.py`` holds the tree to.

Two families live under ``tests/golden/``:

``scenarios/<slug>.json``
    Each built-in scenario's smoke-campaign rows as
    :func:`repro.analysis.runtime.canonical_rows` serialises them (serial,
    ``wall_clock_s`` stripped), one key per line.
``perf/<workload>.json``
    Each perf workload's quick-scale ``report.summary()``, built through
    ``benchmarks/perf/workloads.build`` (imported read-only), in the
    summary's own key order — so the order is gated too.

A change that moves a golden file re-blesses it and says why in CHANGES.

Usage::

    PYTHONPATH=src python tools/bless_golden.py            # everything
    PYTHONPATH=src python tools/bless_golden.py --only "event storm" cell_day
"""

from __future__ import annotations

import argparse
import functools
import importlib.util
import json
import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

GOLDEN = REPO / "tests" / "golden"
WORKLOADS = REPO / "benchmarks" / "perf" / "workloads.py"
PERF_SEED = 1105


def slug(name: str) -> str:
    """A scenario name as a file stem (``"duty-cycle sweep"`` → ``duty_cycle_sweep``)."""
    return re.sub(r"[^a-z0-9]+", "_", name.lower()).strip("_")


@functools.cache
def perf_workloads():
    """``benchmarks/perf/workloads.py`` as a module, without touching ``sys.path``."""
    spec = importlib.util.spec_from_file_location("perf_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module   # dataclasses resolve annotations through it
    spec.loader.exec_module(module)
    return module


def entries() -> list[tuple[str, str, Path]]:
    """Every golden output as ``(kind, name, path)``, scenarios first."""
    from repro.scenarios import all_scenarios

    scenarios = [
        ("scenarios", name, GOLDEN / "scenarios" / f"{slug(name)}.json")
        for name in all_scenarios()
    ]
    perf = [
        ("perf", name, GOLDEN / "perf" / f"{name}.json")
        for name in perf_workloads().WORKLOADS
    ]
    return scenarios + perf


def render(kind: str, name: str) -> str:
    """The golden text of one entry, computed from the tree as it is now."""
    if kind == "scenarios":
        from repro.analysis.runtime import canonical_rows

        rows = json.loads(canonical_rows(name, jobs=1))
    else:
        system, queries, _ = perf_workloads().build(name, PERF_SEED, "quick")
        rows = system.run(queries=queries).summary()
    # json's float encoding is repr, exact for binary64; indentation puts
    # one value per line so a moved metric is one line of diff
    return json.dumps(rows, indent=1) + "\n"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--only", nargs="+", metavar="NAME", help="scenario or workload names to re-bless"
    )
    args = parser.parse_args(argv)
    chosen = entries()
    if args.only:
        unknown = set(args.only) - {name for _, name, _ in chosen}
        if unknown:
            parser.error(f"unknown golden entries {sorted(unknown)}")
        chosen = [entry for entry in chosen if entry[1] in args.only]
    for kind, name, path in chosen:
        path.parent.mkdir(parents=True, exist_ok=True)
        text = render(kind, name)
        if not path.exists():
            status = "new"
        else:
            status = "kept" if path.read_text() == text else "moved"
        path.write_text(text)
        print(f"{status:5s} {path.relative_to(REPO)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
