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

``--record FILE`` also appends the invocation to the host-time trajectory
(``BENCH_perf.json`` at the repo root): both revisions and, per workload,
exactly the numbers printed.  The file keeps the newest
:data:`TRAJECTORY_ENTRIES` entries and a hand-written ``"negative"`` list —
experiments that measured flat or were dropped, so that they are a row and
not a silence — which recording carries over untouched.

Usage::

    python tools/perf_pairs.py --parent HEAD~1 --workload fed_armed --pairs 10
    python tools/perf_pairs.py --parent HEAD --pairs 1 --scale quick --workload cell_day
    python tools/perf_pairs.py --parent HEAD --pairs 10 --record BENCH_perf.json

The change side is the working tree this file lives in.
"""

from __future__ import annotations

import argparse
import datetime
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

#: entries ``--record`` keeps — one per perf PR, so a few years of them
TRAJECTORY_ENTRIES = 40


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


def spread(values: list[float]) -> dict[str, float]:
    """Median, inclusive quartiles and best of one side's values."""
    median = q1 = q3 = statistics.median(values)
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {
        name: round(value, 4)
        for name, value in (("median", median), ("q1", q1), ("q3", q3), ("best", min(values)))
    }


def pair_workload(
    sides: dict[str, Path], workload: str, seed: int, scale: str, pairs: int, env: dict
) -> dict:
    """Run *pairs* alternating pairs of one workload; what they measured."""
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    for pair in range(pairs):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(run_child(sides[side], workload, seed, scale, env))
    walls = {
        side: [run["end_to_end"]["wall_s"] for run in results] for side, results in runs.items()
    }
    measured: dict = {
        side: {
            "wall_s": spread(walls[side]),
            # the other two host-side end-to-end metrics a PR is judged on, same runs
            **{
                metric: round(
                    statistics.median(run["end_to_end"][metric] for run in runs[side]), 4
                )
                for metric in ("setup_s", "peak_rss_mb")
            },
        }
        for side in ("parent", "change")
    }
    measured["pairs_won"] = sum(c < p for p, c in zip(walls["parent"], walls["change"]))
    measured["ties"] = sum(c == p for p, c in zip(walls["parent"], walls["change"]))
    measured["summaries_identical"] = (
        len({run["summary"] for results in runs.values() for run in results}) == 1
    )
    return measured


def print_workload(workload: str, measured: dict, seed: int, scale: str, pairs: int) -> None:
    """Print one workload's table from what :func:`pair_workload` measured."""
    print(f"== {workload} (seed {seed}, scale {scale}, {pairs} alternating pairs)")
    print("  side     wall_s median  [quartiles]       best-of-N")
    for side in ("parent", "change"):
        wall = measured[side]["wall_s"]
        quartiles = f"{wall['q1']:.3f} – {wall['q3']:.3f}" if pairs > 1 else "     –      "
        print(f"  {side:<7} {wall['median']:8.3f}  [{quartiles}]  best {wall['best']:.3f}")
    parent, change = (measured[side]["wall_s"]["median"] for side in ("parent", "change"))
    print(
        f"  change faster in {measured['pairs_won']} of {pairs} pairs "
        f"({measured['ties']} ties); median wall_s {change / parent - 1.0:+.1%}, "
        f"sim_s_per_wall_s {parent / change - 1.0:+.1%}"
    )
    for metric in ("setup_s", "peak_rss_mb"):
        parent, change = (measured[side][metric] for side in ("parent", "change"))
        print(
            f"  {metric + ' median':<18} parent {parent:8.3f}  change {change:8.3f}  "
            f"({change / parent - 1.0:+.1%})"
        )
    print(f"  summaries byte-identical: {'yes' if measured['summaries_identical'] else 'NO'}")


def git(*arguments: str) -> str:
    """Output of one git command run in the repository."""
    return subprocess.run(
        ["git", "-C", str(REPO), *arguments], stdout=subprocess.PIPE, text=True, check=True
    ).stdout.strip()


def record(path: Path, entry: dict) -> None:
    """Append *entry* to the trajectory at *path*, oldest entries dropped past the cap."""
    kept = json.loads(path.read_text()) if path.exists() else {}
    trajectory = [*kept.get("trajectory", []), entry][-TRAJECTORY_ENTRIES:]
    path.write_text(
        json.dumps(
            {
                "benchmark": "tools/perf_pairs.py",
                "trajectory": trajectory,
                "negative": kept.get("negative", []),
            },
            indent=2,
        )
        + "\n"
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", default="HEAD~1", help="revision to compare against")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--workload", action="append", choices=list(workloads.WORKLOADS),
                        help="repeatable; default: every workload")
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--scale", choices=("full", "quick"), default="full")
    parser.add_argument("--record", type=Path, metavar="FILE",
                        help="append this invocation to the trajectory in FILE")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    env = {**os.environ, **perf_run.CHILD_ENV}
    measured: dict[str, dict] = {}
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
                measured[workload] = pair_workload(
                    sides, workload, args.seed, args.scale, args.pairs, env
                )
                print_workload(workload, measured[workload], args.seed, args.scale, args.pairs)
    if args.record is not None:
        record(
            args.record,
            {
                "date": datetime.date.today().isoformat(),
                "parent": git("rev-parse", "--short", args.parent),
                # the working tree: a "-dirty" suffix means "on top of", not "at"
                "change": git("describe", "--always", "--dirty"),
                "seed": args.seed,
                "scale": args.scale,
                "pairs": args.pairs,
                "workloads": measured,
            },
        )
    identical = all(workload["summaries_identical"] for workload in measured.values())
    print("SUMMARIES IDENTICAL" if identical else "SUMMARIES DIFFER")
    return 0 if identical else 1


if __name__ == "__main__":
    raise SystemExit(main())
