#!/usr/bin/env python
"""Alternating parent/change pairs of the perf benchmark's repetitions.

``benchmarks/perf/run.py --compare`` diffs two *sequential* runs, which on a
host whose speed drifts over tens of seconds measures the host.  This tool
interleaves the two sides instead: the parent revision's committed files are
unpacked into a temporary directory, and for every pair each side's *own*
``benchmarks/perf/child.py`` runs once — in the child environment ``run.py``
uses — with the order flipped from pair to pair.  Per workload it prints
each side's median, quartiles and best ``wall_s``, the pairs the change won,
each side's median ``setup_s`` and ``peak_rss_mb``, and whether every
repetition's ``summary`` (everything simulated) is byte-identical across the
two sides; it exits non-zero when one is not.

Usage::

    python tools/perf_pairs.py --parent HEAD~1 --workload fed_armed --pairs 10
    python tools/perf_pairs.py --parent HEAD --pairs 1 --scale quick --workload cell_day

The change side is the working tree this file lives in.
"""

from __future__ import annotations

import argparse
import fcntl
import io
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
PERF = Path("benchmarks") / "perf"
sys.path.insert(0, str(REPO / PERF))

import run as perf_run  # for CHILD_ENV, the environment run.py gives its children
import workloads


def unpack_revision(revision: str, into: Path) -> None:
    """Committed files of *revision*, unpacked (no checkout, no worktree entry)."""
    archive = subprocess.run(
        ["git", "-C", str(REPO), "archive", "--format=tar", revision],
        stdout=subprocess.PIPE, check=True,
    )
    with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
        tar.extractall(into, filter="data")


def run_child(root: Path, workload: str, seed: int, scale: str, env: dict) -> dict:
    """One untraced repetition of *root*'s own child, in a fresh interpreter."""
    command = [
        sys.executable, str(root / PERF / "child.py"),
        "--workload", workload, "--seed", str(seed), "--scale", scale,
    ]
    done = subprocess.run(command, env=env, stdout=subprocess.PIPE, text=True, check=False)
    if done.returncode != 0:
        raise SystemExit(f"child failed ({done.returncode}): {' '.join(command)}")
    return json.loads(done.stdout.splitlines()[-1])


def describe(walls: list[float]) -> str:
    """median [q1 – q3] best, of one side's ``wall_s`` values."""
    median = statistics.median(walls)
    if len(walls) < 2:
        return f"{median:8.3f}  [     –      ]  best {min(walls):.3f}"
    q1, _, q3 = statistics.quantiles(walls, n=4, method="inclusive")
    return f"{median:8.3f}  [{q1:.3f} – {q3:.3f}]  best {min(walls):.3f}"


def pair_workload(
    sides: dict[str, Path], workload: str, seed: int, scale: str, pairs: int, env: dict
) -> bool:
    """Run and report *pairs* alternating pairs; True when summaries agree."""
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    for pair in range(pairs):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(run_child(sides[side], workload, seed, scale, env))
    walls = {
        side: [run["end_to_end"]["wall_s"] for run in results] for side, results in runs.items()
    }
    won = sum(c < p for p, c in zip(walls["parent"], walls["change"]))
    tied = sum(c == p for p, c in zip(walls["parent"], walls["change"]))
    summaries = {run["summary"] for results in runs.values() for run in results}
    medians = {side: statistics.median(values) for side, values in walls.items()}
    print(f"== {workload} (seed {seed}, scale {scale}, {pairs} alternating pairs)")
    print("  side     wall_s median  [quartiles]       best-of-N")
    for side in ("parent", "change"):
        print(f"  {side:<7} {describe(walls[side])}")
    print(
        f"  change faster in {won} of {pairs} pairs ({tied} ties); median wall_s "
        f"{medians['change'] / medians['parent'] - 1.0:+.1%}, sim_s_per_wall_s "
        f"{medians['parent'] / medians['change'] - 1.0:+.1%}"
    )
    # the other two host-side end-to-end metrics a PR is judged on, same runs
    for metric in ("setup_s", "peak_rss_mb"):
        parent, change = (
            statistics.median(run["end_to_end"][metric] for run in runs[side])
            for side in ("parent", "change")
        )
        print(
            f"  {metric + ' median':<18} parent {parent:8.3f}  change {change:8.3f}  "
            f"({change / parent - 1.0:+.1%})"
        )
    print(f"  summaries byte-identical: {'yes' if len(summaries) == 1 else 'NO'}")
    return len(summaries) == 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", default="HEAD~1", help="revision to compare against")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--workload", action="append", choices=list(workloads.WORKLOADS),
                        help="repeatable; default: every workload")
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--scale", choices=("full", "quick"), default="full")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    env = {**os.environ, **perf_run.CHILD_ENV}
    identical = True
    # the benchmark's own lock: never measure while another run is measuring
    with open(REPO / PERF / ".run.lock", "w") as lock:
        try:
            fcntl.flock(lock, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            raise SystemExit("another perf run holds benchmarks/perf/.run.lock") from None
        with tempfile.TemporaryDirectory(prefix="perf_pairs_parent_") as parent_root:
            unpack_revision(args.parent, Path(parent_root))
            sides = {"parent": Path(parent_root), "change": REPO}
            for workload in args.workload or list(workloads.WORKLOADS):
                identical &= pair_workload(
                    sides, workload, args.seed, args.scale, args.pairs, env
                )
    print("SUMMARIES IDENTICAL" if identical else "SUMMARIES DIFFER")
    return 0 if identical else 1


if __name__ == "__main__":
    raise SystemExit(main())
