"""Erasure-coded replica sync benchmark: fragments vs whole copies.

Runs the ``coded_failover`` and ``coded_staleness_vs_sync`` extended
scenarios — the replica-coding x stripe-width and sync-cadence x coding
grids over a federation with a wired pool big enough to host every
fragment distinctly — and asserts the coding subsystem's headline claims:

* **decode equivalence**: at equal survivability (``rs`` with (k=2, n=3)
  vs ``replication_factor=2`` whole copies) a pinned same-seed pair of
  runs — identical except for the coding mode — produces byte-identical
  answers, failover errors and measured staleness; fragments must change
  the byte bill, never the answers.  (Campaign sweep rows hash their
  coordinates into the variant seed, so cross-row comparisons only hold
  for seed-independent quantities like staleness and sync-byte ledgers;
  the answer-level check runs outside the sweep grid.)
* **strict byte win**: the n=3 coded rows ship strictly fewer sync bytes
  than the survivability-equivalent full-copy counterfactual priced
  inside the same run (and than the actual full-copy rows), with at
  least one real decode and zero irrecoverable failovers;
* **honest ledger**: full-copy rows report ``shipped == full_copy``
  (savings read exactly 0), so the ``rs`` savings are measured against a
  live baseline, not a constant.

Entries append to ``BENCH_scenarios.json`` under their own
``coding-smoke`` / ``coding-default`` scales; ``--check-drift`` applies
the standard row-identity success-rate gate and wall-clock band against
the last same-scale entry.

Run it directly::

    PYTHONPATH=src python benchmarks/bench_coding.py           # default scale
    PYTHONPATH=src python benchmarks/bench_coding.py --smoke   # CI-sized
    PYTHONPATH=src python benchmarks/bench_coding.py --smoke --check-drift
"""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

from _harness import campaign_parser, conclude_campaign

from repro.scenarios import CampaignConfig, CampaignReport, CampaignRunner
from repro.scenarios.library import extended_scenarios
from repro.scenarios.spec import FederationRegime

RESULT_PATH = Path(__file__).resolve().parent / "results" / "coded_replication.txt"

SCENARIOS = ("coded_failover", "coded_staleness_vs_sync")
FULL_CODE, RS_CODE = 1.0, 2.0
#: the stripe width whose byte win is gated strictly: (k=2, n=3) matches
#: replication_factor=2 survivability at 1.5x payload instead of 2x
GATED_N = 3.0

def campaign_config(smoke: bool) -> CampaignConfig:
    """A federation sized so every fragment slot gets its own wired host.

    Six proxies give three wired hosts (>= n); ``replication_factor=2``
    makes the full-copy rows the survivability-equivalent baseline of the
    (k=2, n=3) coded rows.  The coded scenarios only exercise the
    federated harness — the single-cell harness has no replicas to code.
    """
    if smoke:
        return CampaignConfig(
            n_sensors=6,
            duration_days=0.3,
            seed=3,
            n_proxies=6,
            replication_factor=2,
            harnesses=("federated",),
            arrival_rate_per_s=1 / 300.0,
        )
    return CampaignConfig(
        n_sensors=12,
        duration_days=0.75,
        n_proxies=6,
        replication_factor=2,
        harnesses=("federated",),
    )


def check_invariants(report: CampaignReport) -> list[str]:
    """The coding subsystem's acceptance assertions (empty = pass)."""
    failures: list[str] = []

    def expect(condition: bool, message: str) -> None:
        if not condition:
            failures.append(message)

    for scenario in SCENARIOS:
        results = report.for_scenario(scenario)
        expect(bool(results), f"campaign produced no {scenario!r} rows")

    results = report.for_scenario("coded_failover")
    rows = {
        (r.sweep_point["replica_coding"], r.sweep_point["coding_n"]): r
        for r in results
    }
    expect(
        len(rows) == 4,
        f"coded_failover: expected the 2x2 coding grid, got {len(rows)} rows",
    )
    if len(rows) != 4:
        return failures

    for (code, n), result in rows.items():
        coding = result.report.coding
        mode = "rs" if code == RS_CODE else "full"
        expect(
            coding is not None and coding.mode == mode,
            f"coded_failover coding={code:.0f},n={n:.0f}: report mode "
            f"{getattr(coding, 'mode', None)!r} != configured {mode!r}",
        )
        if code == FULL_CODE:
            expect(
                coding.shipped_bytes == coding.full_copy_bytes > 0,
                f"full-copy row n={n:.0f}: ledger not the identity "
                f"({coding.shipped_bytes} vs {coding.full_copy_bytes})",
            )

    gated = rows[(RS_CODE, GATED_N)].report.coding
    baseline = rows[(FULL_CODE, GATED_N)].report.coding
    expect(
        0 < gated.shipped_bytes < gated.full_copy_bytes,
        f"rs n={GATED_N:.0f}: coded sync bytes not strictly below the "
        f"survivability-equivalent full-copy counterfactual "
        f"({gated.shipped_bytes} vs {gated.full_copy_bytes})",
    )
    # Cross-row payloads are only near-identical (query-driven cache
    # churn is seed-sensitive), so the exact like-for-like comparison
    # lives in check_equivalence; here the win just has to survive the
    # sub-percent payload jitter between rows.
    expect(
        gated.shipped_bytes < baseline.shipped_bytes,
        f"rs n={GATED_N:.0f}: coded bytes {gated.shipped_bytes} not below "
        f"the actual full-copy row's {baseline.shipped_bytes}",
    )
    expect(gated.decodes > 0, "rs n=3: failover never decoded a stripe")
    expect(
        gated.irrecoverable == 0,
        f"rs n={GATED_N:.0f}: {gated.irrecoverable} irrecoverable "
        f"failovers with every wired host alive",
    )
    expect(
        gated.sync_radio_j < baseline.sync_radio_j,
        "rs n=3: fragment bytes did not cut per-sync radio energy",
    )

    stale = report.for_scenario("coded_staleness_vs_sync")
    by_point = {
        (r.sweep_point["replica_sync_interval_s"], r.sweep_point["replica_coding"]): r
        for r in stale
    }
    intervals = sorted({key[0] for key in by_point})
    for interval in intervals:
        full_row = by_point[(interval, FULL_CODE)].row()
        rs_row = by_point[(interval, RS_CODE)].row()
        expect(
            full_row["max_replica_staleness_s"] == rs_row["max_replica_staleness_s"],
            f"coded_staleness_vs_sync sync={interval:g}: staleness "
            f"diverged between coding modes",
        )
    return failures


def check_equivalence(runner: CampaignRunner) -> list[str]:
    """The same-seed decode-equivalence pair, outside the sweep grid.

    Sweep rows hash their coordinates into the variant seed, so the
    coding=full and coding=rs campaign rows answer *different* query
    streams and their answers are legitimately incomparable.  This check
    pins the seed instead: two unswept specs share the scenario name
    (hence the variant seed and workload) and differ only in the coding
    mode, so any divergence below is the codec's fault.
    """
    failures: list[str] = []
    base = dataclasses.replace(extended_scenarios()["coded_failover"], sweep=())
    reports = {}
    for mode in ("full", "rs"):
        spec = dataclasses.replace(
            base,
            federation=dataclasses.replace(base.federation, replica_coding=mode),
        )
        reports[mode] = runner.run_one(spec, "federated").report
    full, rs = reports["full"], reports["rs"]

    def answer_key(report):
        # replica_syncs is excluded: it counts shipments (hosts x syncs),
        # which legitimately differs between whole copies and fragments.
        return (
            tuple(answer.latency_s for answer in report.answers),
            tuple(answer.value for answer in report.answers),
            tuple(answer.source for answer in report.answers),
            report.fault_staleness_s,
            report.cross_proxy_hops,
            report.replica_hits,
            report.failovers,
            report.unroutable,
            report.failover_mean_error,
            report.failover_max_error,
        )

    if answer_key(rs) != answer_key(full):
        failures.append(
            "same-seed pair: answers/staleness/routing diverged between "
            "coding modes — fragments must not change answers"
        )
    if full.failovers == 0:
        failures.append(
            "same-seed pair: the fault cascade produced no failovers, so "
            "the equivalence check is vacuous"
        )
    coding = rs.coding
    if not 0 < coding.shipped_bytes < coding.full_copy_bytes:
        failures.append(
            f"same-seed pair: coded bytes {coding.shipped_bytes} not "
            f"strictly below the counterfactual {coding.full_copy_bytes}"
        )
    if coding.shipped_bytes >= full.coding.shipped_bytes:
        failures.append(
            f"same-seed pair: coded bytes {coding.shipped_bytes} not below "
            f"the full-copy run's {full.coding.shipped_bytes}"
        )
    if coding.full_copy_bytes != full.coding.shipped_bytes:
        failures.append(
            f"same-seed pair: in-run counterfactual {coding.full_copy_bytes} "
            f"!= the full-copy run's shipped {full.coding.shipped_bytes} — "
            f"the savings baseline is not honest"
        )
    if coding.decodes == 0:
        failures.append("same-seed pair: failover never decoded a stripe")
    if coding.irrecoverable:
        failures.append(
            f"same-seed pair: {coding.irrecoverable} irrecoverable "
            f"failovers with every wired host alive"
        )
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = campaign_parser(
        __doc__, RESULT_PATH, "CI-sized run (6 sensors x 0.3 days, 6 proxies)"
    )
    args = parser.parse_args(argv)

    config = campaign_config(args.smoke)
    runner = CampaignRunner(config)
    library = extended_scenarios()
    report = runner.run([library[name] for name in SCENARIOS], jobs=args.jobs)

    scale = "coding-smoke" if args.smoke else "coding-default"
    title = (
        f"Erasure-coded replica sync ({scale} scale): "
        f"{config.n_sensors} sensors x {config.duration_days:g} days, "
        f"{len(report.results)} runs in {report.wall_clock_s:.1f}s "
        f"(jobs={report.jobs}, serial-equivalent "
        f"{report.variant_wall_clock_s:.1f}s)"
    )
    return conclude_campaign(
        report,
        args,
        scale,
        title,
        "coding_bytes_saved_fraction",
        check_invariants(report) + check_equivalence(runner),
        "coded sync ships fewer bytes with byte-identical answers",
    )


if __name__ == "__main__":
    sys.exit(main())
