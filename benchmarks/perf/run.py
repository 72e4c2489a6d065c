"""The repo's performance benchmark: five workloads, end to end and by layer.

Full run (every workload, untraced repetitions then one traced one, every
metric printed by name with its unit, every output check; non-zero exit on
any failed check)::

    python benchmarks/perf/run.py [--seed N] [--reps R] [--workload NAME] [--out FILE]

One measurement in the form a driver consumes (last stdout line is one JSON
object: ``correct``, ``attempted``, ``failed``, ``metrics``)::

    python benchmarks/perf/run.py --workload NAME --seed N --seconds S --trace 0|1

Compare two result files written with ``--out``::

    python benchmarks/perf/run.py --compare A.json B.json

Every repetition is a fresh child interpreter (``child.py``), one at a
time, single-threaded.  See README.md for the protocol and the metrics.
"""

from __future__ import annotations

import argparse
import dataclasses
import fcntl
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import endtoend  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402

#: time budget of one measurement when neither --reps nor --seconds is given
DEFAULT_SECONDS = 22.0
#: fewest untraced repetitions a time budget may shrink a measurement to
MIN_REPS = 3
#: a setup_s change smaller than this is never a regression (it is ~0.4 s of import)
SETUP_ABS_FLOOR_S = 0.05

CHILD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    # fixed hash seed: set/dict layouts, and so the run's memory behaviour,
    # repeat from child to child
    "PYTHONHASHSEED": "0",
}


# -- running children ---------------------------------------------------------


def run_child(
    workload: str,
    seed: int,
    scale: str,
    untraced_wall_s: float | None = None,
    trace_out: str | None = None,
) -> dict:
    """One repetition in a fresh interpreter; traced iff *untraced_wall_s* is given."""
    command = [
        sys.executable, str(HERE / "child.py"),
        "--workload", workload, "--seed", str(seed), "--scale", scale,
    ]
    if untraced_wall_s is not None:
        command += ["--traced", "1", "--untraced-wall", repr(untraced_wall_s)]
        if trace_out is not None:
            command += ["--trace-out", trace_out]
    done = subprocess.run(
        command, env={**os.environ, **CHILD_ENV}, stdout=subprocess.PIPE, text=True, check=False
    )
    if done.returncode != 0:
        raise SystemExit(f"child failed ({done.returncode}): {' '.join(command)}")
    return json.loads(done.stdout.splitlines()[-1])


def measure(
    workload: str,
    seed: int,
    scale: str,
    reps: int | None,
    seconds: float,
    traced: bool,
    trace_out: str | None = None,
) -> tuple[list[dict], dict | None]:
    """Untraced repetitions of one workload, then (optionally) a traced one.

    With *reps* unset, repetitions continue while the next one still fits
    into *seconds*, but never stop short of :data:`MIN_REPS`.
    """
    untraced: list[dict] = []
    began = time.perf_counter()
    while True:
        rep_began = time.perf_counter()
        untraced.append(run_child(workload, seed, scale))
        now = time.perf_counter()
        if reps is not None:
            if len(untraced) >= reps:
                break
        elif len(untraced) >= MIN_REPS and (now - began) + (now - rep_began) > seconds:
            break
    traced_run = None
    if traced:
        wall = statistics.mean(run["end_to_end"]["wall_s"] for run in untraced)
        traced_run = run_child(workload, seed, scale, untraced_wall_s=wall, trace_out=trace_out)
    return untraced, traced_run


def reported_value(metric: endtoend.EndToEnd, values: list[float]) -> float:
    """The one number a measurement reports for *metric* from its repetitions.

    Host metrics report the mean (a rate: the harmonic mean, i.e. total work
    over total time, so ``sim_s_per_wall_s`` stays the reciprocal of
    ``wall_s``), not the median: the box's speed flips between two levels for
    about as long as one measurement lasts, a median snaps to the majority
    level, a mean averages over the flip (README, "Repeatability").
    Simulated metrics are identical across repetitions; the median returns
    that common value bit for bit.
    """
    if not metric.host:
        return statistics.median(values)
    if metric.better == "higher":
        return statistics.harmonic_mean(values)
    return statistics.mean(values)


def end_to_end_stats(untraced: list[dict]) -> dict[str, dict]:
    """Per end-to-end metric: reported value, median, extremes and
    ``(max - min) / value`` over the untraced repetitions, and every value."""
    stats = {}
    for metric in endtoend.END_TO_END:
        values = [run["end_to_end"][metric.name] for run in untraced]
        value = reported_value(metric, values)
        stats[metric.name] = {
            "value": value,
            "median": statistics.median(values),
            "min": min(values),
            "max": max(values),
            "spread": (max(values) - min(values)) / value,
            "n": len(values),
            "values": values,
            "unit": metric.unit,
        }
    return stats


# -- printing -----------------------------------------------------------------


def print_end_to_end(stats: dict[str, dict]) -> None:
    for metric in endtoend.END_TO_END:
        record = stats[metric.name]
        note = ""
        if metric.host and record["spread"] > metric.bound:
            note = f"   WARNING spread > bound {metric.bound:g}: comparisons unresolved"
        print(
            f"  {metric.name:<28} {record['value']:>14.6g} {metric.unit:<12} "
            f"n={record['n']} spread={record['spread']:.3f}{note}"
        )
        if metric.name in ("setup_s", "wall_s"):
            print(f"    every repetition: {' '.join(f'{v:.3f}' for v in record['values'])}")


def print_layers(values: dict[str, float]) -> None:
    for metric in layers.METRICS:
        print(f"  {metric.name:<36} {values[metric.name]:>14.6g} {metric.unit}")


def print_checks(title: str, results: list[checks.Check]) -> bool:
    for description, passed in results:
        print(f"  {'PASS' if passed else 'FAIL'}  {title}: {description}")
    return all(passed for _, passed in results)


# -- modes ----------------------------------------------------------------------


def driver_run(args: argparse.Namespace) -> int:
    """One workload, one kind of metrics, result object on the last line."""
    untraced, traced_run = measure(
        args.workload, args.seed, args.scale,
        reps=args.reps if args.reps is not None else (1 if args.trace else None),
        seconds=args.seconds, traced=bool(args.trace), trace_out=args.trace_out,
    )
    runs = untraced + ([traced_run] if traced_run else [])
    print(f"{args.workload} seed={args.seed} load1={os.getloadavg()[0]:.2f}")
    if traced_run is not None:
        print_layers(traced_run["layers"])
        metrics = {
            metric.name: {"value": traced_run["layers"][metric.name], "unit": metric.unit}
            for metric in layers.METRICS
        }
    else:
        stats = end_to_end_stats(untraced)
        print_end_to_end(stats)
        metrics = {
            name: {"value": record["value"], "unit": record["unit"]}
            for name, record in stats.items()
        }
    correct = print_checks("check", checks.exact_checks(args.workload, runs))
    facts = untraced[0]["facts"]
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": facts["attempted"],
                "failed": facts["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


def full_run(args: argparse.Namespace) -> int:
    """Every workload (or the one named): all metrics, all checks, results file."""
    names = [args.workload] if args.workload else list(workloads.WORKLOADS)
    reps = args.reps if args.reps is not None else (1 if args.scale == "quick" else None)
    results: dict[str, dict] = {}
    ok = True
    load_before = os.getloadavg()[0]
    for name in names:
        spec = workloads.WORKLOADS[name]
        print(f"== {name}: {spec.why}")
        untraced, traced_run = measure(
            name, args.seed, args.scale, reps, args.seconds, traced=True,
            trace_out=args.trace_out and f"{args.trace_out}.{name}.jsonl",
        )
        assert traced_run is not None
        stats = end_to_end_stats(untraced)
        print_end_to_end(stats)
        print_layers(traced_run["layers"])
        print("  top self-time lines: " + ", ".join(
            f"{bucket} {seconds:.3f}s" for bucket, seconds in traced_run["top_self"]
        ))
        exact = checks.exact_checks(name, untraced + [traced_run])
        targets = checks.host_targets(name, traced_run) if args.scale == "full" else []
        ok &= print_checks("check", exact)
        ok &= print_checks("target", targets)
        overhead = traced_run["layers"]["trace.overhead_frac"]
        if args.scale == "full" and overhead > checks.MAX_OVERHEAD:
            print(f"  WARNING trace.overhead_frac {overhead:.3f} > {checks.MAX_OVERHEAD}: the "
                  "traced and untraced runs saw different machine speeds; rerun before trusting "
                  "*_self_s")
        facts = untraced[0]["facts"]
        print(f"  operations attempted={facts['attempted']} failed={facts['failed']}")
        results[name] = {
            "seed": args.seed,
            "why": spec.why,
            "parameters": spec.parameters(),
            "end_to_end": stats,
            "per_layer": traced_run["layers"],
            "top_self_s": traced_run["top_self"],
            "attempted": facts["attempted"],
            "failed": facts["failed"],
            "checks": [[d, p] for d, p in exact + targets],
        }
    if args.out:
        record = {
            "meta": {
                "scale": args.scale,
                "nproc": os.cpu_count(),
                "python": platform.python_version(),
                "numpy": importlib.metadata.version("numpy"),
                "load1_before": load_before,
                "load1_after": os.getloadavg()[0],
            },
            # what BENCHMARK.json's fixed schema has no room for
            "declared": {
                "end_to_end": [dataclasses.asdict(m) for m in endtoend.END_TO_END],
                "per_layer": [
                    {**dataclasses.asdict(m), "layer": m.layer} for m in layers.METRICS
                ],
            },
            "workloads": results,
        }
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
        print(f"wrote {args.out}")
    print("ALL CHECKS PASSED" if ok else "SOME CHECKS FAILED")
    return 0 if ok else 1


def compare(path_a: str, path_b: str) -> int:
    """Per workload x end-to-end metric: A's and B's reported values, relative
    change, bound, verdict.

    The change is signed so that positive means B is worse.  ``REGRESSION``
    (worse by more than the bound) fails the command; ``unresolved`` marks a
    host metric whose own spread exceeds its bound unless every B run beats
    every A run; a simulated metric that moved at all between two runs of
    equal seed is marked ``differs`` — a pure speed-up must leave it alone.
    """
    a = json.loads(Path(path_a).read_text())["workloads"]
    b = json.loads(Path(path_b).read_text())["workloads"]
    failed = False
    for name in a:
        if name not in b:
            continue
        same_seed = a[name]["seed"] == b[name]["seed"]
        print(f"== {name} (seed {a[name]['seed']} vs {b[name]['seed']})")
        for metric in endtoend.END_TO_END:
            ra, rb = a[name]["end_to_end"][metric.name], b[name]["end_to_end"][metric.name]
            sign = 1.0 if metric.better == "lower" else -1.0
            change = sign * (rb["value"] - ra["value"]) / ra["value"]
            worse = change > metric.bound
            if metric.name == "setup_s":
                worse &= rb["value"] - ra["value"] > SETUP_ABS_FLOOR_S
            b_beats_a = (
                rb["max"] < ra["min"] if metric.better == "lower" else rb["min"] > ra["max"]
            )
            if worse:
                verdict = "REGRESSION"
                failed = True
            elif metric.host and max(ra["spread"], rb["spread"]) > metric.bound and not b_beats_a:
                verdict = "unresolved (spread > bound)"
            elif not metric.host and same_seed and ra["value"] != rb["value"]:
                verdict = "differs"
            else:
                verdict = "ok"
            print(
                f"  {metric.name:<28} {ra['value']:>13.6g} {rb['value']:>13.6g} "
                f"{change:>+8.2%} bound {metric.bound:g}  {verdict}"
            )
        if same_seed:
            moved = [
                m.name for m in layers.METRICS
                if m.unit not in ("s", "1/s") and not m.name.endswith(".share")
                and m.layer != "trace"
                and a[name]["per_layer"][m.name] != b[name]["per_layer"][m.name]
            ]
            print(f"  exact per-layer counts that differ: {', '.join(moved) or 'none'}")
    print("REGRESSION FOUND" if failed else "within bounds")
    return 1 if failed else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--reps", type=int, help="untraced repetitions (default: fill --seconds)")
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="time budget of one workload's untraced repetitions")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="driver form: 0 = end-to-end metrics, 1 = per-layer metrics")
    parser.add_argument("--quick", dest="scale", action="store_const", const="quick",
                        default="full", help="tiny horizons, one repetition (harness test)")
    parser.add_argument("--out", help="write the full run's results here")
    parser.add_argument("--trace-out", help="write query- and sync-rooted spans (JSONL)")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args()
    if args.compare:
        return compare(*args.compare)
    if args.trace is not None and not args.workload:
        parser.error("--trace needs --workload")
    if args.reps is not None and args.reps < 1:
        parser.error("--reps must be >= 1")
    # Two benchmark runs at once would time each other: hold a lock for the
    # whole run (released by the kernel even if this process is killed).
    with open(HERE / ".run.lock", "w") as lock:
        try:
            fcntl.flock(lock, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            print("another benchmarks/perf/run.py is running here; refusing to start",
                  file=sys.stderr)
            return 2
        return driver_run(args) if args.trace is not None else full_run(args)


if __name__ == "__main__":
    sys.exit(main())
