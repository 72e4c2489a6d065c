"""Scenario-campaign benchmark: the built-in adverse regimes, both harnesses.

Runs the full built-in scenario library through the
:class:`~repro.scenarios.runner.CampaignRunner` over the single-cell and
federated harnesses, prints the consolidated campaign table, persists it
under ``benchmarks/results/``, appends per-scenario success/error/energy
rows to ``BENCH_scenarios.json`` at the repo root (the cross-PR regression
history; see ``_harness.py``), and asserts the cross-scenario invariants
that used to live in bespoke harness code:

* the nominal regime answers essentially everything;
* a proxy blackout produces failovers on the federated harness only;
* the event storm's standing queries recall the majority of qualifying
  injected anomalies (gated at >= 50% so tiny CI draws don't flake;
  model-driven push catches rare events by construction and full-scale
  runs recall all of them);
* sensor energy decreases monotonically along the duty-cycle sweep;
* regional-loss bursts actually fire, the failure cascade records one
  replica-staleness figure per proxy death, the wear-out sweep ages more
  archive segments at its smallest capacity, the surge multiplies the
  answered query volume, and adversarial timing bounds notification
  latency;
* the wear-out x loss grid expands its full cross product (one distinct
  coordinate dict per cell, on both harnesses) and keeps the aging knee
  along its capacity axis;
* replica staleness at the ``staleness_vs_sync`` proxy death increases
  with the swept sync interval — the staleness/cost knee is real.

``--jobs N`` fans the campaign's variant cross product over a process
pool (``0`` = one worker per CPU core); results are byte-identical to the
serial run, and the entry records the campaign wall clock, the
serial-equivalent cost (sum of per-variant wall clocks) and the resulting
speedup alongside per-row ``wall_clock_s``.

With ``--check-drift`` the run additionally compares each row's success
rate against the last same-scale ``BENCH_scenarios.json`` entry and fails
when any dropped by more than ``--drift-tolerance`` — the campaign
regression gate CI runs on every PR.  Rows are matched by their sweep
*coordinates* (the ``sweep`` dict each row carries), not by variant-label
order, so re-ordering a scenario's axis values cannot fake or mask drift.
The same gate flags wall-clock regressions: a serial-equivalent campaign
cost more than ``--wall-tolerance`` (default 50%) above the previous
same-scale entry's fails too, so the parallel speedup is itself a
drift-tracked benchmark number.

Run it directly::

    PYTHONPATH=src python benchmarks/bench_scenarios.py            # default scale
    PYTHONPATH=src python benchmarks/bench_scenarios.py --jobs 0   # all cores
    PYTHONPATH=src python benchmarks/bench_scenarios.py --smoke    # CI-sized
    PYTHONPATH=src python benchmarks/bench_scenarios.py --smoke --check-drift
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

from _harness import campaign_parser, conclude_campaign

from repro.scenarios import (
    CampaignConfig,
    CampaignReport,
    CampaignRunner,
    builtin_scenarios,
)

RESULT_PATH = Path(__file__).resolve().parent / "results" / "scenario_campaign.txt"


def check_invariants(report: CampaignReport) -> list[str]:
    """Cross-scenario assertions; returns the failures (empty = pass)."""
    failures: list[str] = []

    def expect(condition: bool, message: str) -> None:
        if not condition:
            failures.append(message)

    by_scenario = {name: report.for_scenario(name) for name in report.scenarios()}
    expect(
        len(by_scenario) >= 14,
        f"campaign ran {len(by_scenario)} scenarios, expected >= 14",
    )
    for name, results in by_scenario.items():
        harnesses = {r.harness for r in results}
        expect(
            harnesses == {"single", "federated"},
            f"{name!r} missing a harness: ran {sorted(harnesses)}",
        )

    for result in by_scenario.get("nominal", []):
        expect(
            result.report.answered_fraction > 0.95,
            f"nominal/{result.harness} answered only "
            f"{result.report.answered_fraction:.3f}",
        )

    blackout = {r.harness: r for r in by_scenario.get("proxy blackout", [])}
    if "federated" in blackout:
        expect(
            getattr(blackout["federated"].report, "failovers", 0) > 0,
            "proxy blackout produced no failovers on the federated harness",
        )
    if "single" in blackout:
        expect(
            blackout["single"].faults_applied == 0,
            "proxy faults must be a no-op on the single-cell harness",
        )

    for result in by_scenario.get("event storm", []):
        if result.qualifying_events == 0:
            continue  # tiny draws can qualify nothing; recall is then NaN
        expect(
            not math.isnan(result.notification_recall),
            f"event storm/{result.harness} recall is NaN with "
            f"{result.qualifying_events} qualifying events",
        )
        expect(
            result.notification_recall >= 0.5,
            f"event storm/{result.harness} recall "
            f"{result.notification_recall:.2f} < 0.5",
        )

    for harness in ("single", "federated"):
        sweep = [
            r for r in by_scenario.get("duty-cycle sweep", [])
            if r.harness == harness
        ]
        energies = [r.report.sensor_energy_per_day_j for r in sweep]
        expect(
            all(a > b for a, b in zip(energies, energies[1:])),
            f"duty-cycle sweep energy not decreasing on {harness}: {energies}",
        )

    for result in by_scenario.get("regional loss", []):
        expect(
            result.bursts_scheduled > 0,
            f"regional loss/{result.harness} scheduled no bursts",
        )

    cascade = {
        r.harness: r for r in by_scenario.get("cascading failures", [])
    }
    if "federated" in cascade:
        result = cascade["federated"]
        fail_actions = 3  # the builtin's schedule: three deaths
        expect(
            len(result.replica_staleness_s) == fail_actions,
            f"cascade recorded {len(result.replica_staleness_s)} staleness "
            f"figures, expected {fail_actions}",
        )
        expect(
            result.report.failovers > 0,
            "cascading failures produced no failovers",
        )
        expect(
            any(math.isfinite(age) for age in result.replica_staleness_s),
            "no cascade death had replicated state to measure staleness on",
        )

    for harness in ("single", "federated"):
        sweep = [
            r for r in by_scenario.get("flash wear-out", [])
            if r.harness == harness
        ]
        if sweep:
            ample, starved = sweep[0].report, sweep[-1].report
            expect(
                starved.archive_aged_segments > ample.archive_aged_segments,
                f"wear-out/{harness}: smallest flash aged "
                f"{starved.archive_aged_segments} segments vs "
                f"{ample.archive_aged_segments} at ample capacity",
            )

    nominal_answers = {
        r.harness: len(r.report.answers) for r in by_scenario.get("nominal", [])
    }
    for result in by_scenario.get("query surge", []):
        baseline = nominal_answers.get(result.harness, 0)
        expect(
            len(result.report.answers) > 2 * baseline,
            f"query surge/{result.harness} answered "
            f"{len(result.report.answers)} vs nominal {baseline} — no surge",
        )

    for result in by_scenario.get("adversarial timing", []):
        if result.qualifying_events == 0:
            continue
        expect(
            not math.isnan(result.notification_recall),
            f"adversarial timing/{result.harness} recall is NaN with "
            f"{result.qualifying_events} qualifying events",
        )
        if result.notification_recall > 0:
            expect(
                math.isfinite(result.worst_notification_latency_s),
                f"adversarial timing/{result.harness} caught events but "
                "reported no worst-case latency",
            )

    for harness in ("single", "federated"):
        grid = [
            r for r in by_scenario.get("wearout_vs_loss_grid", [])
            if r.harness == harness
        ]
        if not grid:
            continue
        expected_cells = 6  # 3 capacities x 2 loss points
        expect(
            len(grid) == expected_cells,
            f"wearout_vs_loss_grid/{harness} ran {len(grid)} cells, "
            f"expected the full {expected_cells}-point cross product",
        )
        coordinates = {
            tuple(sorted(r.sweep_point.items())) for r in grid
        }
        expect(
            len(coordinates) == len(grid),
            f"wearout_vs_loss_grid/{harness} repeated a grid point",
        )
        expect(
            all(len(r.sweep_point) == 2 for r in grid),
            f"wearout_vs_loss_grid/{harness} rows must carry both axis "
            "coordinates",
        )
        # The wear-out knee must survive inside the grid: at the clean-
        # channel loss column, the starved capacity ages more segments.
        losses = sorted({r.sweep_point["loss_probability"] for r in grid})
        clean = sorted(
            (r for r in grid if r.sweep_point["loss_probability"] == losses[0]),
            key=lambda r: -r.sweep_point["flash_capacity_bytes"],
        )
        expect(
            clean[-1].report.archive_aged_segments
            > clean[0].report.archive_aged_segments,
            f"wearout_vs_loss_grid/{harness}: smallest flash aged "
            f"{clean[-1].report.archive_aged_segments} segments vs "
            f"{clean[0].report.archive_aged_segments} at ample capacity",
        )

    staleness_sweep = sorted(
        (
            r for r in by_scenario.get("staleness_vs_sync", [])
            if r.harness == "federated"
        ),
        key=lambda r: r.sweep_point["replica_sync_interval_s"],
    )
    if staleness_sweep:
        expect(
            all(
                len(r.replica_staleness_s) == 1
                and math.isfinite(r.replica_staleness_s[0])
                for r in staleness_sweep
            ),
            "staleness_vs_sync must record one finite staleness per death",
        )
        ages = [r.replica_staleness_s[0] for r in staleness_sweep]
        expect(
            all(a < b for a, b in zip(ages, ages[1:])),
            f"replica staleness not increasing with sync interval: {ages}",
        )
        expect(
            all(r.report.failovers > 0 for r in staleness_sweep),
            "staleness_vs_sync produced no failovers at some sync interval",
        )
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = campaign_parser(
        __doc__, RESULT_PATH, "CI-sized campaign (4 sensors x 0.3 days, 2 proxies)"
    )
    args = parser.parse_args(argv)

    config = CampaignConfig.smoke() if args.smoke else CampaignConfig()
    runner = CampaignRunner(config)
    report = runner.run(list(builtin_scenarios().values()), jobs=args.jobs)

    scale = "smoke" if args.smoke else "default"
    title = (
        f"Scenario campaign ({scale} scale): "
        f"{config.n_sensors} sensors x {config.duration_days:g} days, "
        f"{config.n_proxies} federated proxies, "
        f"{len(report.results)} runs in {report.wall_clock_s:.1f}s "
        f"(jobs={report.jobs}, serial-equivalent "
        f"{report.variant_wall_clock_s:.1f}s, speedup {report.speedup:.2f}x)"
    )
    return conclude_campaign(
        report,
        args,
        scale,
        title,
        "success_rate",
        check_invariants(report),
        "campaign invariants hold",
    )


if __name__ == "__main__":
    sys.exit(main())
