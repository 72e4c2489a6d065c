"""Shared plumbing of the regression benches that keep a ``BENCH_*.json``.

Every such bench ends the same way: look up the last entry recorded at its
``scale``, gate this run against it (row-matched drift, and for campaign
benches a wall-clock band), and — only when every check passed — append
the run to the history.  A regressed run must never become the baseline
later runs are compared against: each drop under the tolerance would
otherwise ratchet the gate down forever.

The first half is bench-agnostic (``bench_serving.py`` brings its own row
key and drift rule); the second half is what the three
:class:`~repro.scenarios.runner.CampaignRunner` benches — scenarios,
coding, offload — share on top, down to their argument parser and the
tail of ``main``.
"""

from __future__ import annotations

import argparse
import json
import math
import time
from collections.abc import Callable, Hashable
from pathlib import Path

from repro.scenarios import CampaignReport

#: entries kept per ``scale`` in a history file — the gate only ever reads
#: the newest; the one before it is kept for a human diffing a change
HISTORY_PER_SCALE = 2


def json_safe(value):
    """NaN/inf -> None so the history file stays strict JSON."""
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def _history(path: Path) -> list[dict]:
    """Every entry in the history file at *path* (empty if there is none)."""
    if not path.exists():
        return []
    return json.loads(path.read_text()).get("history", [])


def last_entry(path: Path, scale: str) -> dict | None:
    """The newest history entry recorded at *scale* (None on a first run)."""
    same_scale = [e for e in _history(path) if e.get("scale") == scale]
    return same_scale[-1] if same_scale else None


def append_history(record: dict, path: Path, benchmark: str) -> None:
    """Append *record* to the history at *path*, capped per scale.

    Older same-scale entries beyond :data:`HISTORY_PER_SCALE` are dropped;
    entries of other scales sharing the file are untouched.
    """
    history = [*_history(path), record]
    same_scale = [e for e in history if e.get("scale") == record["scale"]]
    for stale in same_scale[:-HISTORY_PER_SCALE]:
        history.remove(stale)
    path.write_text(
        json.dumps({"benchmark": benchmark, "history": history}, indent=2) + "\n"
    )


def check_drift(
    record: dict,
    previous: dict | None,
    row_key: Callable[[dict], Hashable],
    row_label: Callable[[dict], str],
    metrics: tuple[str, ...],
    drifted: Callable[[float, float], str | None],
) -> list[str]:
    """Row-matched regressions vs the last same-scale entry (empty = pass).

    Rows pair up by *row_key*; for each of *metrics* present on both sides
    ``drifted(before, after)`` returns the complaint for a regressed pair
    or ``None``.  A row present in the previous entry but absent now is
    also a failure — a silently dropped row must not read as "no drift".
    """
    if previous is None:
        return []
    current = {row_key(row): row for row in record["rows"]}
    failures: list[str] = []
    for row in previous["rows"]:
        label = row_label(row)
        now = current.get(row_key(row))
        if now is None:
            failures.append(f"tracked row {label} missing from this run")
            continue
        for metric in metrics:
            before, after = row.get(metric), now.get(metric)
            if before is None or after is None:
                continue
            complaint = drifted(before, after)
            if complaint:
                failures.append(f"{label} {metric} {complaint}")
    return failures


def check_wall_clock(
    record: dict, previous: dict | None, tolerance: float
) -> list[str]:
    """Campaign wall-clock regressions vs the last same-scale entry.

    Gates on ``variant_wall_clock_s`` — the serial-equivalent cost (sum of
    per-variant wall clocks), which is comparable across ``--jobs``
    settings — with a multiplicative tolerance band: the current cost may
    exceed the previous by at most ``tolerance`` (0.5 = +50%, absorbing
    runner-to-runner noise while catching real hot-path regressions).
    """
    if previous is None:
        return []
    before = float(previous["variant_wall_clock_s"])
    after = float(record["variant_wall_clock_s"])
    if before > 0 and after > before * (1.0 + tolerance):
        return [
            f"campaign serial-equivalent wall clock rose "
            f"{before:.1f}s -> {after:.1f}s "
            f"(> +{100 * tolerance:.0f}% tolerance band)"
        ]
    return []


def conclude(
    record: dict,
    path: Path,
    benchmark: str,
    failures: list[str],
    drift_gate: Callable[[dict | None], list[str]] | None,
    stable: str,
    passed: str,
) -> int:
    """Gate *record*, report, and append it to the history iff it passed.

    *failures* are the bench's own invariant failures; *drift_gate*
    (``None`` without ``--check-drift``) maps the last same-scale entry to
    drift failures.  Returns the process exit code.
    """
    if drift_gate is not None:
        previous = last_entry(path, record["scale"])
        drift = drift_gate(previous)
        if previous is None:
            print("drift check: no prior entry at this scale (first run)")
        elif not drift:
            print(f"drift check: {stable} vs {previous['recorded_at']}")
        failures = failures + drift
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}")
        print(f"history NOT recorded (run failed checks) -> {path}")
        return 1
    append_history(record, path, benchmark)
    print(f"history -> {path}")
    print(f"PASS: {passed}")
    return 0


# -- campaign benches: bench_scenarios / bench_coding / bench_offload ---------

#: the history the three campaign benches share, one ``scale`` family each
BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_scenarios.json"

#: row metrics persisted into the regression history (``wall_clock_s`` is
#: the per-variant simulation cost; only campaign-level totals are gated)
TRACKED_METRICS = (
    "success_rate",
    "mean_error",
    "energy_per_day_j",
    "answered_fraction",
    "notification_recall",
    "wall_clock_s",
)


def campaign_parser(
    description: str | None, result_path: Path, smoke_help: str
) -> argparse.ArgumentParser:
    """The flags every campaign bench takes."""
    parser = argparse.ArgumentParser(description=description)
    parser.add_argument("--smoke", action="store_true", help=smoke_help)
    parser.add_argument("--out", type=Path, default=result_path)
    parser.add_argument(
        "--json-out",
        type=Path,
        default=BENCH_PATH,
        help="regression-history file (default: BENCH_scenarios.json)",
    )
    parser.add_argument(
        "--check-drift",
        action="store_true",
        help="fail when any success rate drops vs the last same-scale entry",
    )
    parser.add_argument(
        "--drift-tolerance",
        type=float,
        default=0.05,
        help="allowed success-rate drop before --check-drift fails",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes for the variant fan-out "
        "(0 = one per CPU core; results identical at any value)",
    )
    parser.add_argument(
        "--wall-tolerance",
        type=float,
        default=0.5,
        help="allowed fractional rise in the campaign's serial-equivalent "
        "wall clock before --check-drift fails (0.5 = +50%%)",
    )
    return parser


def build_record(report: CampaignReport, scale: str) -> dict:
    """This campaign's tracked rows as one history entry (not yet persisted)."""
    rows = [
        {
            "scenario": row["scenario"],
            "harness": row["harness"],
            "variant": row["variant"],
            "sweep": {k: float(v) for k, v in row["sweep"].items()},
            **{metric: json_safe(row[metric]) for metric in TRACKED_METRICS},
            "wall_clock_s": round(float(row["wall_clock_s"]), 3),
        }
        for row in report.rows()
    ]
    return {
        "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "scale": scale,
        "n_sensors": report.config.n_sensors,
        "duration_days": report.config.duration_days,
        "jobs": report.jobs,
        "wall_clock_s": round(report.wall_clock_s, 3),
        "variant_wall_clock_s": round(report.variant_wall_clock_s, 3),
        "speedup": json_safe(
            round(report.speedup, 3) if math.isfinite(report.speedup) else report.speedup
        ),
        "rows": rows,
    }


def row_key(row: dict) -> tuple:
    """The identity campaign drift matching compares rows by.

    Sweep coordinates are canonicalised (sorted parameter order), so two
    rows match whenever they pin the same values — however the axis list
    was ordered when either campaign ran.  The variant label contributes
    only what follows its sweep tokens: the ``lpl=…`` duty-cycle point.
    """
    sweep = row.get("sweep", {})
    tokens = [token for token in row["variant"].split(",") if token]
    coordinates = tuple(sorted((k, float(v)) for k, v in sweep.items()))
    return (row["scenario"], row["harness"], coordinates, tuple(tokens[len(sweep):]))


def row_label(row: dict) -> str:
    """``scenario/harness/variant`` for failure messages."""
    return "/".join(
        part for part in (row["scenario"], row["harness"], row["variant"]) if part
    )


def check_campaign_drift(
    record: dict, previous: dict | None, tolerance: float
) -> list[str]:
    """Success-rate drops beyond *tolerance* vs the last same-scale entry."""
    return check_drift(
        record,
        previous,
        row_key,
        row_label,
        ("success_rate",),
        lambda before, after: (
            f"fell {before:.3f} -> {after:.3f} (tolerance {tolerance})"
            if after < before - tolerance
            else None
        ),
    )


def conclude_campaign(
    report: CampaignReport,
    args: argparse.Namespace,
    scale: str,
    title: str,
    grid_metric: str,
    failures: list[str],
    passed: str,
) -> int:
    """The tail of a campaign bench's ``main``: publish, gate, record.

    Prints the campaign table and its *grid_metric* grids under *title*,
    persists them to ``args.out``, then hands the run to :func:`conclude`
    with the success-rate and wall-clock gates armed by ``--check-drift``.
    """
    body = "\n\n".join([report.to_table(), *report.grid_tables(grid_metric)])
    print(title)
    print(body)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(f"{title}\n\n{body}\n")
    print(f"recorded -> {args.out}")

    record = build_record(report, scale)

    def drift_gate(previous: dict | None) -> list[str]:
        return check_campaign_drift(
            record, previous, args.drift_tolerance
        ) + check_wall_clock(record, previous, args.wall_tolerance)

    return conclude(
        record,
        args.json_out,
        "scenario_campaign",
        failures,
        drift_gate if args.check_drift else None,
        f"no success-rate or wall-clock regression (tolerances "
        f"{args.drift_tolerance} / +{100 * args.wall_tolerance:.0f}%)",
        passed,
    )
