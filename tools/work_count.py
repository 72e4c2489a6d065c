#!/usr/bin/env python
"""Exact work of the perf workloads: executed opcodes and calls, per revision.

Wall time moves with the host; the bytecode a run executes does not.  For
each revision this tool unpacks the committed files (``tools/perf_pairs.py``'s
``git archive`` unpacking), then, in a fresh interpreter with the child
environment ``benchmarks/perf/run.py`` gives its children, builds each
workload with *this* tree's ``benchmarks/perf/workloads.py`` against that
revision's ``src`` and counts, over ``system.run(queries=...)`` only:

- Python opcodes (``sys.settrace`` with ``f_trace_opcodes``) and Python
  calls (``call`` events, generator resumptions included), in total and by
  ``repro`` module;
- C calls by callee (``sys.setprofile``'s ``c_call`` events), so that work
  moved into NumPy shows as calls rather than as free.

A federation's partitions run in the counting process (the ``inline``
backend, which the partition tests hold equal to the process pool), so
their work is counted too.  The counts are exact: two runs of the tool on
the same revision print the same bytes.

Usage::

    python tools/work_count.py 81a1b27 HEAD --workload cell_day
    python tools/work_count.py HEAD --scale quick --json counts.json
    python tools/work_count.py . --workload cell_day   # the working tree

A revision ``.`` is the working tree this file lives in, uncommitted
changes included.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "tools"))

import perf_pairs  # noqa: E402  (unpack_revision, and run.py's CHILD_ENV through it)
import workloads  # noqa: E402  (perf_pairs put benchmarks/perf on the path)

#: modules and C callees listed per revision and workload
TOP = 12

#: the counting child: argv is (src, benchmarks/perf, workload, seed, scale)
COUNTER = r"""
import collections, dataclasses, json, sys
src, perf, workload, seed, scale = sys.argv[1:]
sys.path[:0] = [perf, src]
import workloads
system, queries, _ = workloads.build(workload, int(seed), scale)
if hasattr(system, "federation"):
    system.federation = dataclasses.replace(system.federation, partition_backend="inline")
opcodes, calls, c_calls = collections.Counter(), collections.Counter(), collections.Counter()

def local(frame, event, arg):
    if event == "opcode":
        opcodes[frame.f_code] += 1
    return local

def tracer(frame, event, arg):
    calls[frame.f_code] += 1
    frame.f_trace_lines = False
    frame.f_trace_opcodes = True
    return local

def profiler(frame, event, arg):
    if event == "c_call":
        c_calls[getattr(arg, "__qualname__", getattr(arg, "__name__", "?"))] += 1

run = system.run
sys.setprofile(profiler)
sys.settrace(tracer)
run(queries=queries)
sys.settrace(None)
sys.setprofile(None)

def module(code):
    path = code.co_filename.replace("\\", "/")
    if "/repro/" not in path:
        return "(other)"
    return "repro." + path.rsplit("/repro/", 1)[1][: -len(".py")].replace("/", ".")

by_module = collections.defaultdict(lambda: [0, 0])
for code, count in opcodes.items():
    by_module[module(code)][0] += count
for code, count in calls.items():
    by_module[module(code)][1] += count
print(json.dumps({
    "opcodes": sum(opcodes.values()),
    "python_calls": sum(calls.values()),
    "c_calls": sum(c_calls.values()),
    "by_module": {name: {"opcodes": o, "python_calls": c}
                  for name, (o, c) in sorted(by_module.items(), key=lambda item: -item[1][0])},
    "c_calls_by_callee": dict(sorted(c_calls.items(), key=lambda item: (-item[1], item[0]))),
}))
"""


def count(root: Path, workload: str, seed: int, scale: str, env: dict) -> dict:
    """Exact counts of one workload's ``system.run`` on *root*'s ``src``."""
    command = [
        sys.executable, "-c", COUNTER,
        str(root / "src"), str(REPO / perf_pairs.PERF), workload, str(seed), scale,
    ]
    done = subprocess.run(command, env=env, stdout=subprocess.PIPE, text=True, check=False)
    if done.returncode != 0:
        raise SystemExit(f"counting {workload} on {root} failed ({done.returncode})")
    return json.loads(done.stdout.splitlines()[-1])


def print_counts(revision: str, workload: str, counts: dict, baseline: dict | None) -> None:
    """One revision's counts for one workload, with the change from *baseline*."""

    def change(key: str) -> str:
        if baseline is None or not baseline[key]:
            return ""
        return f" ({counts[key] / baseline[key] - 1.0:+.1%})"

    print(f"== {workload} @ {revision}")
    for key in ("opcodes", "python_calls", "c_calls"):
        print(f"  {key:<13} {counts[key]:>12,}{change(key)}")
    total = counts["opcodes"] or 1
    modules = list(counts["by_module"].items())[:TOP]
    print("  opcodes by module: " + ", ".join(
        f"{name} {100.0 * row['opcodes'] / total:.1f} %" for name, row in modules
    ))
    callees = list(counts["c_calls_by_callee"].items())[:TOP]
    print("  C calls by callee: " + ", ".join(f"{name} {n:,}" for name, n in callees))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("revisions", nargs="+", metavar="REV",
                        help="git revisions to count; '.' is the working tree")
    parser.add_argument("--workload", action="append", choices=list(workloads.WORKLOADS),
                        help="repeatable; default: every workload")
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--scale", choices=("full", "quick"), default="full")
    parser.add_argument("--json", type=Path, metavar="FILE",
                        help="also write every count, by revision and workload, to FILE")
    args = parser.parse_args(argv)
    env = {**os.environ, **perf_pairs.perf_run.CHILD_ENV}
    names = args.workload or list(workloads.WORKLOADS)
    results: dict[str, dict[str, dict]] = {}
    with tempfile.TemporaryDirectory(prefix="work_count_") as scratch:
        for index, revision in enumerate(args.revisions):
            root = REPO
            if revision != ".":
                root = Path(scratch) / str(index)
                root.mkdir()
                perf_pairs.unpack_revision(revision, root)
            results[revision] = {
                name: count(root, name, args.seed, args.scale, env) for name in names
            }
    first = results[args.revisions[0]]
    for name in names:
        for revision in args.revisions:
            baseline = None if revision == args.revisions[0] else first[name]
            print_counts(revision, name, results[revision][name], baseline)
    if args.json is not None:
        args.json.write_text(json.dumps(
            {"seed": args.seed, "scale": args.scale, "counts": results}, indent=2
        ) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
