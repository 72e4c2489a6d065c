"""Collaborative-offload benchmark: storage policies on a starved, skewed fleet.

Runs the ``offload_vs_aging`` built-in scenario — the storage-policy x
flash-capacity grid over a capacity-skewed sensor fleet — through the
:class:`~repro.scenarios.runner.CampaignRunner` on both harnesses, prints
the fidelity-retained-per-joule-per-flash-byte chart, and asserts the
subsystem's headline claim:

* at the tightest capacity point at least one collaborative policy
  (``greedy_offload`` or ``mcf_offload``) retains strictly more fidelity
  per joule per byte of fleet flash than purely local aging, on every
  harness — collaborative storage must genuinely beat destroying data
  locally, radio costs included;
* the offload policies actually move segments there (a win with zero
  moves would be seed noise, not collaboration);
* at ample capacity nothing offloads and every policy converges to full
  fidelity — the coordinator must idle when there is no pressure.

Entries append to ``BENCH_scenarios.json`` under their own
``offload-smoke`` / ``offload-default`` scales, so the full-campaign
drift gate (which matches rows within one scale) never mixes these rows
with the library-wide benchmark's.  ``--check-drift`` applies the same
row-identity success-rate gate and wall-clock band against the last
same-scale entry here.

Run it directly::

    PYTHONPATH=src python benchmarks/bench_offload.py           # default scale
    PYTHONPATH=src python benchmarks/bench_offload.py --smoke   # CI-sized
    PYTHONPATH=src python benchmarks/bench_offload.py --smoke --check-drift
"""

from __future__ import annotations

import sys
from pathlib import Path

from _harness import campaign_parser, conclude_campaign

from repro.scenarios import CampaignConfig, CampaignReport, CampaignRunner
from repro.scenarios.library import builtin_scenarios

RESULT_PATH = Path(__file__).resolve().parent / "results" / "offload_policies.txt"

SCENARIO = "offload_vs_aging"
LOCAL_POLICY_CODE = 1.0
OFFLOAD_POLICY_CODES = (2.0, 3.0)


def check_invariants(report: CampaignReport) -> list[str]:
    """The offload subsystem's acceptance assertions (empty = pass)."""
    failures: list[str] = []

    def expect(condition: bool, message: str) -> None:
        if not condition:
            failures.append(message)

    results = report.for_scenario(SCENARIO)
    expect(bool(results), f"campaign produced no {SCENARIO!r} rows")
    if not results:
        return failures
    capacities = sorted({r.sweep_point["flash_capacity_bytes"] for r in results})
    tightest, ample = capacities[0], capacities[-1]

    for harness in ("single", "federated"):
        rows = {
            (r.sweep_point["storage_policy"], r.sweep_point["flash_capacity_bytes"]): r
            for r in results
            if r.harness == harness
        }
        expect(
            len(rows) == 3 * len(capacities),
            f"{harness}: expected the full policy x capacity grid, "
            f"got {len(rows)} rows",
        )

        def efficiency(policy: float, capacity: float) -> float:
            return rows[(policy, capacity)].row()["fidelity_per_joule_per_flash_byte"]

        local = efficiency(LOCAL_POLICY_CODE, tightest)
        best = max(efficiency(code, tightest) for code in OFFLOAD_POLICY_CODES)
        expect(
            best > local,
            f"{harness}: no offload policy beat local aging at "
            f"{tightest:.0f} B ({best:.3e} <= {local:.3e} fidelity/J/B)",
        )
        moved = sum(
            rows[(code, tightest)].report.segments_offloaded
            for code in OFFLOAD_POLICY_CODES
        )
        expect(
            moved > 0,
            f"{harness}: offload policies moved no segments under pressure",
        )
        for code in OFFLOAD_POLICY_CODES:
            idle = rows[(code, ample)].report
            expect(
                idle.segments_offloaded == 0,
                f"{harness}: policy {code:.0f} offloaded "
                f"{idle.segments_offloaded} segments at ample capacity",
            )
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = campaign_parser(
        __doc__, RESULT_PATH, "CI-sized run (4 sensors x 0.3 days, 2 proxies)"
    )
    args = parser.parse_args(argv)

    config = CampaignConfig.smoke() if args.smoke else CampaignConfig()
    runner = CampaignRunner(config)
    report = runner.run([builtin_scenarios()[SCENARIO]], jobs=args.jobs)

    scale = "offload-smoke" if args.smoke else "offload-default"
    title = (
        f"Collaborative offload ({scale} scale): "
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
        "fidelity_per_joule_per_flash_byte",
        check_invariants(report),
        "collaborative offload beats local aging under pressure",
    )


if __name__ == "__main__":
    sys.exit(main())
