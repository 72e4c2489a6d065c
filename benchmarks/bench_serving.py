"""Serving front-end benchmark: the saturation knee over a partitioned
federation.

Runs an ``offered_qps x zipf_s`` grid of serving windows over a
federated deployment executing on the partitioned simulation kernel
(``partitions`` pinned to :data:`GRID_PARTITIONS` so the drift-gated
numbers are machine-independent), prints the p50/p95/p99 latency table,
persists it under ``benchmarks/results/``, and appends per-cell rows to
``BENCH_serving.json`` at the repo root — the serving-tier regression
history, sibling of ``BENCH_scenarios.json``.

The grid's structural invariant is the saturation knee: in every
``zipf_s`` row the p99 latency must turn a knee — jump by at least
:data:`KNEE_FACTOR` x over the previous offered-load point — before the
last point, and must be *strictly increasing* past it (offered load
beyond a partition's capacity grows the FIFO backlog without bound, so a
flat or falling p99 past the knee means the queueing model broke).

A separate completion entry runs one large federated campaign with
``partitions=0`` (one partition per CPU core) and records only that it
completed and its wall clock; machine-dependent, so it is *excluded*
from the drift gate.

With ``--check-drift`` the run compares each grid cell's p99 and memo
hit rate against the last same-scale entry and fails on relative drift
beyond ``--drift-tolerance`` — the serving numbers are deterministic
functions of the seed, so the tolerance only absorbs numerical noise.

Run it directly::

    PYTHONPATH=src python benchmarks/bench_serving.py              # default scale
    PYTHONPATH=src python benchmarks/bench_serving.py --smoke      # CI-sized
    PYTHONPATH=src python benchmarks/bench_serving.py --smoke --check-drift
    PYTHONPATH=src python benchmarks/bench_serving.py --skip-completion
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np
from _harness import check_drift, conclude, json_safe

from repro.core.config import FederationConfig, PrestoConfig
from repro.core.federation import FederatedSystem
from repro.serving import ServingConfig
from repro.traces.intel_lab import IntelLabConfig, IntelLabGenerator
from repro.traces.workload import QueryWorkloadConfig, ShardedWorkloadGenerator

RESULT_PATH = Path(__file__).resolve().parent / "results" / "serving_knee.txt"
GRID_CSV_PATH = Path(__file__).resolve().parent / "results" / "serving_knee_grid.csv"
BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_serving.json"

#: partition count pinned for the drift-gated grid — machine-independent
GRID_PARTITIONS = 8

#: offered-load points, ascending through the knee (the backend saturates
#: before the last point at every zipf row)
QPS_POINTS = (40.0, 120.0, 360.0, 1080.0)

#: popularity-skew rows of the grid
ZIPF_POINTS = (0.5, 0.9, 1.3)

#: sub-second memo TTL: memoization visibly absorbs repeats while leaving
#: the miss rate load-dependent, so the knee is reachable
MEMO_TTL_S = 0.5

#: backend CPU per admitted miss — sized so the deduplicated miss rate
#: crosses the grid partitions' capacity inside QPS_POINTS
SERVICE_TIME_S = 0.05

#: a row's p99 jumping this factor over the previous load point marks the
#: saturation knee
KNEE_FACTOR = 3.0


def scale_parameters(smoke: bool) -> dict:
    """Deployment sizing per scale (the 64-cell campaign is the CI size)."""
    if smoke:
        return dict(n_sensors=64, n_proxies=64, duration_s=0.1 * 86_400.0, seed=11)
    return dict(n_sensors=128, n_proxies=64, duration_s=0.2 * 86_400.0, seed=11)


def completion_parameters() -> dict:
    """The large partitions=0 completion run (excluded from drift)."""
    return dict(n_sensors=256, n_proxies=256, duration_s=0.1 * 86_400.0, seed=11)


def build_trace(parameters: dict):
    config = IntelLabConfig(
        n_sensors=parameters["n_sensors"],
        duration_s=parameters["duration_s"],
        epoch_s=31.0,
    )
    return IntelLabGenerator(config, seed=parameters["seed"]).generate()


def run_point(
    trace,
    parameters: dict,
    partitions: int,
    serving: ServingConfig,
) -> tuple:
    """One federated run with the serving front-end; returns (report, wall)."""
    federation = FederationConfig(
        n_proxies=parameters["n_proxies"],
        replication_factor=1,
        partitions=partitions,
    )
    system = FederatedSystem(
        trace,
        config=PrestoConfig(
            sample_period_s=31.0,
            refit_interval_s=6 * 3600.0,
            min_training_epochs=128,
        ),
        federation=federation,
        seed=parameters["seed"],
        serving=serving,
    )
    workload = ShardedWorkloadGenerator(
        [list(shard) for shard in system.shards],
        QueryWorkloadConfig(arrival_rate_per_s=1 / 600.0),
        rng=np.random.default_rng(parameters["seed"] + 1),
    )
    queries = workload.generate(0.0, parameters["duration_s"])
    started = time.perf_counter()
    report = system.run(queries, duration_s=parameters["duration_s"])
    return report, time.perf_counter() - started


def run_grid(trace, parameters: dict) -> list[dict]:
    """The offered_qps x zipf_s grid, one serving row per cell."""
    rows: list[dict] = []
    for zipf_s in ZIPF_POINTS:
        for offered_qps in QPS_POINTS:
            serving = ServingConfig(
                offered_qps=offered_qps,
                zipf_s=zipf_s,
                memo_ttl_s=MEMO_TTL_S,
                service_time_s=SERVICE_TIME_S,
            )
            report, wall = run_point(trace, parameters, GRID_PARTITIONS, serving)
            s = report.serving
            rows.append(
                {
                    "offered_qps": offered_qps,
                    "zipf_s": zipf_s,
                    "p50_s": s.p50_latency_s,
                    "p95_s": s.p95_latency_s,
                    "p99_s": s.p99_latency_s,
                    "memo_hit_rate": s.memo_hit_rate,
                    "utilization": s.utilization,
                    "achieved_qps": s.achieved_qps,
                    "queries": s.n_queries,
                    "distinct_users": s.distinct_users,
                    "unserved": s.unserved,
                    "n_partitions": report.n_partitions,
                    "wall_clock_s": round(wall, 3),
                }
            )
            print(
                f"  qps={offered_qps:g} zipf={zipf_s:g}: "
                f"p99={s.p99_latency_s:.4f}s memo={s.memo_hit_rate:.3f} "
                f"util={s.utilization:.2f} ({wall:.1f}s wall)",
                file=sys.stderr,
                flush=True,
            )
    return rows


def find_knees(rows: list[dict]) -> dict[str, int | None]:
    """Per zipf row: index into QPS_POINTS where p99 turns the knee.

    The knee is the first load point whose p99 is >= KNEE_FACTOR x the
    previous point's; ``None`` when a row never turns.
    """
    knees: dict[str, int | None] = {}
    for zipf_s in ZIPF_POINTS:
        p99 = [
            row["p99_s"]
            for row in rows
            if row["zipf_s"] == zipf_s
        ]
        knee = None
        for index in range(1, len(p99)):
            if p99[index] >= KNEE_FACTOR * p99[index - 1]:
                knee = index
                break
        knees[f"{zipf_s:g}"] = knee
    return knees


def check_knee_invariants(rows: list[dict], knees: dict) -> list[str]:
    """The saturation-knee assertions; returns failures (empty = pass)."""
    failures: list[str] = []
    for zipf_s in ZIPF_POINTS:
        key = f"{zipf_s:g}"
        p99 = [row["p99_s"] for row in rows if row["zipf_s"] == zipf_s]
        knee = knees.get(key)
        if knee is None:
            failures.append(
                f"zipf={key}: p99 never turned the knee "
                f"(>= {KNEE_FACTOR}x jump): {[f'{v:.4f}' for v in p99]}"
            )
            continue
        if knee > len(p99) - 1:
            failures.append(f"zipf={key}: knee index {knee} out of range")
            continue
        for index in range(knee, len(p99)):
            if not p99[index] > p99[index - 1]:
                failures.append(
                    f"zipf={key}: p99 not strictly increasing past the "
                    f"knee (index {index}): {[f'{v:.4f}' for v in p99]}"
                )
                break
    return failures


def grid_table(rows: list[dict], knees: dict) -> str:
    """Fixed-width p99 table, one zipf row per line, knee column marked."""
    corner = "zipf / qps"
    header = f"{corner:>12}" + "".join(f"{qps:>12g}" for qps in QPS_POINTS)
    lines = [header]
    for zipf_s in ZIPF_POINTS:
        knee = knees.get(f"{zipf_s:g}")
        cells = []
        for index, qps in enumerate(QPS_POINTS):
            row = next(
                r for r in rows if r["zipf_s"] == zipf_s and r["offered_qps"] == qps
            )
            mark = "*" if knee is not None and index == knee else " "
            cells.append(f"{row['p99_s']:>11.4f}{mark}")
        lines.append(f"{zipf_s:>12g}" + "".join(cells))
    lines.append("(p99 seconds; * marks the saturation knee in each row)")
    return "\n".join(lines)


def grid_csv(rows: list[dict]) -> str:
    """The p99 grid as CSV (zipf rows x qps columns, full precision)."""
    lines = ["zipf_s/offered_qps," + ",".join(f"{q:g}" for q in QPS_POINTS)]
    for zipf_s in ZIPF_POINTS:
        cells = [
            repr(
                float(
                    next(
                        r
                        for r in rows
                        if r["zipf_s"] == zipf_s and r["offered_qps"] == qps
                    )["p99_s"]
                )
            )
            for qps in QPS_POINTS
        ]
        lines.append(f"{zipf_s:g}," + ",".join(cells))
    return "\n".join(lines) + "\n"


def run_completion() -> dict:
    """The 256-cell partitions=0 campaign: completes, and how fast."""
    parameters = completion_parameters()
    trace = build_trace(parameters)
    serving = ServingConfig(
        offered_qps=200.0, memo_ttl_s=MEMO_TTL_S, service_time_s=SERVICE_TIME_S
    )
    report, wall = run_point(trace, parameters, 0, serving)
    return {
        "n_proxies": parameters["n_proxies"],
        "n_sensors": parameters["n_sensors"],
        "partitions_resolved": report.n_partitions,
        "queries_answered": len(report.answers),
        "serving_queries": report.serving.n_queries,
        "serving_p99_s": report.serving.p99_latency_s,
        "wall_clock_s": round(wall, 3),
    }


def build_record(rows: list[dict], knees: dict, scale: str, parameters: dict) -> dict:
    return {
        "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "scale": scale,
        "n_sensors": parameters["n_sensors"],
        "n_proxies": parameters["n_proxies"],
        "grid_partitions": GRID_PARTITIONS,
        "knees": knees,
        "rows": [
            {key: json_safe(value) for key, value in row.items()} for row in rows
        ],
    }


def row_key(row: dict) -> tuple:
    return (float(row["offered_qps"]), float(row["zipf_s"]))


#: grid metrics the drift gate compares (relative tolerance)
DRIFT_METRICS = ("p99_s", "memo_hit_rate")


def check_grid_drift(record: dict, previous: dict | None, tolerance: float) -> list[str]:
    """Relative drift vs the last same-scale entry (empty = pass)."""
    return check_drift(
        record,
        previous,
        row_key,
        lambda row: f"qps={row['offered_qps']:g}/zipf={row['zipf_s']:g}",
        DRIFT_METRICS,
        lambda before, after: (
            f"drifted {before:.6f} -> {after:.6f} (> {100 * tolerance:g}% relative)"
            if abs(after - before) / max(abs(before), 1e-9) > tolerance
            else None
        ),
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="CI-sized grid (64 sensors x 64 cells x 0.1 days)",
    )
    parser.add_argument(
        "--skip-completion",
        action="store_true",
        help="skip the 256-cell partitions=0 completion run",
    )
    parser.add_argument("--out", type=Path, default=RESULT_PATH)
    parser.add_argument("--grid-csv", type=Path, default=GRID_CSV_PATH)
    parser.add_argument(
        "--json-out",
        type=Path,
        default=BENCH_PATH,
        help="regression-history file (default: BENCH_serving.json)",
    )
    parser.add_argument(
        "--check-drift",
        action="store_true",
        help="fail on p99/memo-hit drift vs the last same-scale entry",
    )
    parser.add_argument(
        "--drift-tolerance",
        type=float,
        default=0.02,
        help="allowed relative drift before --check-drift fails",
    )
    args = parser.parse_args(argv)

    scale = "smoke" if args.smoke else "default"
    parameters = scale_parameters(args.smoke)
    print(
        f"Serving knee grid ({scale} scale): {parameters['n_sensors']} sensors "
        f"x {parameters['n_proxies']} cells, {GRID_PARTITIONS} partitions, "
        f"{len(QPS_POINTS)}x{len(ZIPF_POINTS)} qps x zipf points",
        file=sys.stderr,
        flush=True,
    )
    trace = build_trace(parameters)
    rows = run_grid(trace, parameters)
    knees = find_knees(rows)
    table = grid_table(rows, knees)
    print(table)

    failures = check_knee_invariants(rows, knees)

    record = build_record(rows, knees, scale, parameters)
    if not args.skip_completion:
        record["completion"] = run_completion()
        print(
            f"completion: {record['completion']['n_proxies']}-cell campaign, "
            f"partitions=0 resolved to "
            f"{record['completion']['partitions_resolved']}, "
            f"{record['completion']['wall_clock_s']:.1f}s wall clock"
        )

    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(f"{table}\n")
    args.grid_csv.parent.mkdir(parents=True, exist_ok=True)
    args.grid_csv.write_text(grid_csv(rows))
    print(f"recorded -> {args.out} and {args.grid_csv}")

    def drift_gate(previous: dict | None) -> list[str]:
        return check_grid_drift(record, previous, args.drift_tolerance)

    return conclude(
        record,
        args.json_out,
        "serving_knee",
        failures,
        drift_gate if args.check_drift else None,
        f"grid stable (tolerance {100 * args.drift_tolerance:g}% relative)",
        "saturation knee present in every zipf row",
    )


if __name__ == "__main__":
    sys.exit(main())
