#!/usr/bin/env python
"""Standalone double-run determinism audit (CI entry point).

Runs one pinned smoke-scale scenario — or, with ``--scenario all``, every
registered one in turn — in child interpreters under two
``PYTHONHASHSEED`` values and serial vs ``--jobs 2``, and fails unless each
scenario's canonically-serialized reports are byte-identical.  Equivalent
to ``repro lint --runtime`` without the static pass; see
:mod:`repro.analysis.runtime` and ``docs/analysis.md``.

Usage::

    PYTHONPATH=src python tools/determinism_audit.py [--scenario NAME|all]
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

# allow running from a fresh checkout without PYTHONPATH gymnastics
SRC = Path(__file__).resolve().parents[1] / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from repro.analysis.runtime import DEFAULT_SCENARIO, run_audit  # noqa: E402
from repro.scenarios import all_scenarios  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--scenario",
        default=DEFAULT_SCENARIO,
        help="campaign scenario to replay (smoke scale), or 'all' for every registered one",
    )
    args = parser.parse_args(argv)
    names = list(all_scenarios()) if args.scenario == "all" else [args.scenario]
    failed = []
    for name in names:
        result = run_audit(scenario=name)
        print(result.describe())
        if not result.identical:
            failed.append(name)
    if len(names) > 1:
        print(f"audited {len(names)} scenarios; diverged: {failed or 'none'}")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
