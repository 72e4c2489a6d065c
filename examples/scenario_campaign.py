"""Scenario campaign: site acceptance before a fleet ships.

Run:  python examples/scenario_campaign.py

Before a PRESTO deployment goes live, the operator wants one answer sheet:
what happens to query success, accuracy, energy and event notifications
when the radio turns hostile, a proxy dies, or anomalies arrive in bursts?
Previously each of those questions meant hand-building a harness; the
scenario engine makes the whole acceptance campaign declarative — named
regimes, both harnesses, one consolidated report — and the 2-D sweep grid
charts the flash-capacity x channel-loss wear-out knee as one table
(written to ``benchmarks/results/wearout_vs_loss_grid.txt``; the chart
``docs/scenarios.md`` walks through is its committed copy under
``docs/results/``).
"""

import math
from pathlib import Path

from repro.scenarios import CampaignConfig, CampaignRunner, builtin_scenarios

SCENARIOS = (
    "nominal",
    "lossy uplink",
    "proxy blackout",
    "event storm",
    "cascading failures",
    "adversarial timing",
    "wearout_vs_loss_grid",
)

GRID_RESULT_PATH = (
    Path(__file__).resolve().parent.parent
    / "benchmarks"
    / "results"
    / "wearout_vs_loss_grid.txt"
)


def main() -> None:
    specs = builtin_scenarios()
    # The smoke sizing is tuned so even this tiny scale draws qualifying
    # events for the recall story — reuse it rather than restating it.
    config = CampaignConfig.smoke()
    runner = CampaignRunner(config)
    print(
        f"acceptance campaign: {len(SCENARIOS)} regimes x "
        f"single-cell + {config.n_proxies}-proxy federation "
        f"({config.n_sensors} sensors, {config.duration_days:g} days each)\n"
    )
    report = runner.run([specs[name] for name in SCENARIOS])
    print(report.to_table())

    nominal = {r.harness: r.report for r in report.for_scenario("nominal")}
    lossy = {r.harness: r.report for r in report.for_scenario("lossy uplink")}
    blackout = {r.harness: r for r in report.for_scenario("proxy blackout")}
    storm = {r.harness: r for r in report.for_scenario("event storm")}

    print("\nwhat the campaign says:")
    extra = (
        lossy["single"].sensor_energy_per_day_j
        - nominal["single"].sensor_energy_per_day_j
    )
    print(
        f"  * hostile radio costs {extra:+.2f} J/sensor-day in retransmissions "
        f"(delivery still {lossy['single'].delivery_ratio:.3f})"
    )
    fed = blackout["federated"].report
    print(
        f"  * killing the wireless proxy mid-run forced {fed.failovers} "
        f"failovers; the cluster still answered "
        f"{100 * fed.answered_fraction:.1f}% of all queries"
    )
    recall = storm["federated"].notification_recall
    print(
        f"  * standing queries caught "
        f"{100 * recall:.0f}% of qualifying injected anomalies "
        f"({storm['federated'].notifications} notifications) "
        f"— pushes surface rare events by construction"
    )
    cascade = {
        r.harness: r for r in report.for_scenario("cascading failures")
    }["federated"]
    ages = [
        f"{age:.0f}s" if math.isfinite(age) else "unreplicated"
        for age in cascade.replica_staleness_s
    ]
    print(
        f"  * a rolling fail/recover cascade left replicas "
        f"{', '.join(ages)} stale at each death — overlapping outages "
        f"freeze the failover tier at the last completed sync"
    )
    adversarial = {
        r.harness: r for r in report.for_scenario("adversarial timing")
    }["federated"]
    print(
        f"  * anomalies timed into 90% loss bursts were still recalled at "
        f"{100 * adversarial.notification_recall:.0f}%, worst notification "
        f"{adversarial.worst_notification_latency_s:.0f}s after onset "
        f"— the paper's 'rare events are never missed' under the worst channel"
    )

    # The 2-D knee: how many archive segments the sensors aged away, per
    # (flash capacity, channel loss) grid cell — the wear-out trade-off
    # the single-axis sweep could only show one slice of.
    grid = report.grid(
        "aged_segments",
        "loss_probability",
        "flash_capacity_bytes",
        scenario="wearout_vs_loss_grid",
        harness="federated",
    )
    table = grid.to_table()
    print(f"\nwear-out knee vs channel loss (archive segments aged):\n{table}")
    GRID_RESULT_PATH.parent.mkdir(parents=True, exist_ok=True)
    GRID_RESULT_PATH.write_text(table + "\n")
    print(f"grid table -> {GRID_RESULT_PATH}")


if __name__ == "__main__":
    main()
