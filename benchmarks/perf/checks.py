"""Output checks: what must hold for a run's numbers to mean anything.

Two kinds, kept apart on purpose:

* :func:`exact_checks` — identities and inequalities over simulated
  statistics and call counts.  They never name a pinned value, so any seed
  runs green, and they are what the result line's ``correct`` reports.
* :func:`host_targets` — the per-workload layer-share targets and the
  share of ``run()`` the tracer could not attribute.  They are ratios of
  host times taken inside one traced run, meaningful only at full scale,
  and decide the exit code of a full run, not ``correct``: a noisy
  neighbour must not turn a right answer wrong.  ``trace.overhead_frac``
  compares two runs taken at different moments, so exceeding
  :data:`MAX_OVERHEAD` only warns.

Each check is ``(description, passed)``.
"""

from __future__ import annotations

Check = tuple[str, bool]

#: layers that must record exactly zero calls on the single-cell workload
CELL_DAY_IDLE = ("index.lookups", "core.federation.routed", "coding.syncs",
                 "coding.reconstructs", "storage.offload_plans", "serving.queries")

MAX_UNATTRIBUTED = 0.15
MAX_OVERHEAD = 0.25


def exact_checks(workload: str, runs: list[dict]) -> list[Check]:
    """Checks over every repetition of one workload (traced one included)."""
    first = runs[0]
    facts = first["facts"]
    checks: list[Check] = [
        (
            f"summary byte-identical across {len(runs)} repetitions (traced or not)",
            all(run["summary"] == first["summary"] for run in runs),
        ),
        (
            f"answers logged ({facts['answers']}) == queries issued ({facts['issued']})",
            facts["answers"] == facts["issued"],
        ),
    ]
    if workload == "query_storm":
        checks += [
            (f"failovers ({facts['failovers']}) > 0", facts["failovers"] > 0),
            (f"unroutable ({facts['unroutable']}) == 0", facts["unroutable"] == 0),
        ]
    if workload == "sync_coded":
        checks += [
            (f"decodes ({facts['coding_decodes']}) > 0", facts["coding_decodes"] > 0),
            (
                f"irrecoverable ({facts['coding_irrecoverable']}) == 0",
                facts["coding_irrecoverable"] == 0,
            ),
            (
                f"shipped bytes ({facts['coding_shipped_bytes']}) < full-copy ledger "
                f"({facts['coding_full_copy_bytes']})",
                facts["coding_shipped_bytes"] < facts["coding_full_copy_bytes"],
            ),
        ]
    if workload == "flash_pressure":
        checks += [
            (f"offload moves ({facts['offload_moves']}) > 0", facts["offload_moves"] > 0),
            (f"aged segments ({facts['aged_segments']}) > 0", facts["aged_segments"] > 0),
        ]
    traced = [run for run in runs if run["layers"] is not None]
    if workload == "cell_day" and traced:
        layers = traced[0]["layers"]
        busy = [name for name in CELL_DAY_IDLE if layers[name] != 0]
        checks.append((f"zero calls in idle layers (busy: {busy or 'none'})", not busy))
    return checks


def host_targets(workload: str, traced: dict) -> list[Check]:
    """Layer-share targets and the attribution floor of one full-scale traced run."""
    layers = traced["layers"]
    shares = traced["shares"]
    targets: list[Check] = [
        (
            f"trace.unattributed_frac {layers['trace.unattributed_frac']:.3f} <= "
            f"{MAX_UNATTRIBUTED}",
            layers["trace.unattributed_frac"] <= MAX_UNATTRIBUTED,
        ),
    ]
    if workload == "cell_day":
        targets.append(
            (f"write-path share {shares['write_path']:.3f} >= 0.80", shares["write_path"] >= 0.80)
        )
    if workload == "query_storm":
        targets += [
            (
                f"read path + serving + federation share {shares['read_path']:.3f} >= 0.60",
                shares["read_path"] >= 0.60,
            ),
            (f"sensing share {shares['sensing']:.3f} < 0.10", shares["sensing"] < 0.10),
        ]
    if workload == "sync_coded":
        targets.append(
            (
                f"coding + export share {shares['sync_path']:.3f} >= 0.25",
                shares["sync_path"] >= 0.25,
            )
        )
    if workload == "flash_pressure":
        targets.append(
            (f"storage share {shares['storage']:.3f} >= 0.30", shares["storage"] >= 0.30)
        )
    return targets
