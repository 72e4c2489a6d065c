"""The built-in scenario library.

Each entry is one question about PRESTO under adversity, previously
answerable only by hand-building a harness (the failure-injection tests,
the federation failover benchmark, the duty-cycle sweep each grew their
own).  ``builtin_scenarios()`` makes every one a one-liner through the
:class:`~repro.scenarios.runner.CampaignRunner`.
"""

from __future__ import annotations

from repro.core.continuous import TriggerKind
from repro.scenarios.spec import (
    ClockRegime,
    FaultSchedule,
    FederationRegime,
    ProxyFault,
    RadioRegime,
    ScenarioSpec,
    ServingRegime,
    StandingQuerySpec,
    StoragePressure,
    SweepAxis,
    TracePerturbation,
    WorkloadSpec,
)

#: flash sized at a small fraction of a day's readings — forces aging mid-run
STARVED_FLASH_BYTES = 40 * 264

#: the wear-out sweep's descending capacities: ample -> starved -> dying.
#: Descending order on purpose — the report reads as the aging knee.
WEAR_OUT_CAPACITIES = (320 * 264, 80 * 264, 20 * 264)

#: the wear-out grid's second axis: a clean channel vs heavy loss — the
#: cross product charts whether retransmission pressure moves the aging knee
WEAR_OUT_LOSSES = (0.05, 0.45)

#: the offload-vs-aging grid's capacity axis: ample (no policy should ever
#: move a segment) and dying — the tightest wear-out point, where the
#: storage-policy choice actually changes outcomes
OFFLOAD_CAPACITIES = (320 * 264, 20 * 264)

#: replica-sync cadences for the staleness knee, ascending cost savings.
#: Deliberately not divisors of typical death times, so the staleness at a
#: mid-run failure is a non-trivial remainder at every scale.
SYNC_INTERVALS = (1_000.0, 4_000.0, 9_000.0)

#: where the staleness scenario kills its proxy: off the half-way mark so
#: the death never lands exactly on a sync tick of any SYNC_INTERVALS entry
STALENESS_DEATH_FRACTION = 0.55


def builtin_scenarios() -> dict[str, ScenarioSpec]:
    """Name → spec for every built-in scenario (insertion = campaign order)."""
    scenarios = (
        ScenarioSpec(
            name="nominal",
            description="clean channel, ample storage — the reference row",
            radio=RadioRegime(loss_probability=0.05),
        ),
        ScenarioSpec(
            name="lossy uplink",
            description="35% steady loss with 85% interference bursts",
            radio=RadioRegime(
                loss_probability=0.35,
                burst_loss_probability=0.85,
                burst_period_s=4 * 3600.0,
                burst_duration_s=1800.0,
            ),
        ),
        ScenarioSpec(
            name="storage starvation",
            description="tiny flash + aggressive aging floor",
            storage=StoragePressure(
                flash_capacity_bytes=STARVED_FLASH_BYTES,
                segment_readings=256,
                aging_max_level=2,
            ),
        ),
        ScenarioSpec(
            name="proxy blackout",
            description="the last (wireless) proxy dies halfway through",
            faults=(ProxyFault(proxy_index=-1, at_fraction=0.5, action="fail"),),
        ),
        ScenarioSpec(
            name="event storm",
            description="frequent injected anomalies with standing queries armed",
            trace=TracePerturbation(
                event_rate_per_sensor_day=2.0,
                event_magnitude=8.0,
                event_duration_epochs=20,
            ),
            standing=StandingQuerySpec(
                kind=TriggerKind.ABOVE, threshold_offset=4.0, min_interval_s=600.0
            ),
        ),
        ScenarioSpec(
            name="drift storm",
            description="wild clocks plus sensing dropout",
            clocks=ClockRegime(
                model_clocks=True,
                offset_std_s=2.0,
                skew_ppm_std=120.0,
            ),
            trace=TracePerturbation(dropout_rate=0.1),
        ),
        ScenarioSpec(
            name="duty-cycle sweep",
            description="LPL check interval swept across operating points",
            radio=RadioRegime(
                loss_probability=0.1, duty_cycle_points=(0.5, 2.0, 8.0)
            ),
        ),
        ScenarioSpec(
            name="regional loss",
            description="90% interference bursts on the last cell only",
            radio=RadioRegime(
                loss_probability=0.05,
                burst_loss_probability=0.9,
                burst_period_s=3 * 3600.0,
                burst_duration_s=1800.0,
                cell_indices=(-1,),
            ),
        ),
        ScenarioSpec(
            name="cascading failures",
            description="rolling fail/recover cascade across two proxies",
            faults=(
                ProxyFault(proxy_index=-1, at_fraction=0.25, action="fail"),
                ProxyFault(proxy_index=-1, at_fraction=0.45, action="recover"),
                ProxyFault(proxy_index=-2, at_fraction=0.5, action="fail"),
                ProxyFault(proxy_index=-2, at_fraction=0.7, action="recover"),
                ProxyFault(proxy_index=-1, at_fraction=0.8, action="fail"),
            ),
        ),
        ScenarioSpec(
            name="flash wear-out",
            description="flash capacity swept downward to the aging knee",
            sweep=SweepAxis(
                parameter="flash_capacity_bytes", values=WEAR_OUT_CAPACITIES
            ),
        ),
        ScenarioSpec(
            name="query surge",
            description="6x query-arrival spike through a mid-run window",
            workload=WorkloadSpec(
                arrival_rate_per_s=1 / 120.0,
                surge_multiplier=6.0,
                surge_start_fraction=0.5,
                surge_duration_fraction=0.2,
            ),
        ),
        ScenarioSpec(
            name="adversarial timing",
            description="anomalies phase-locked to 90% loss bursts",
            trace=TracePerturbation(
                align_to_bursts=True,
                event_magnitude=8.0,
                event_duration_epochs=30,
            ),
            radio=RadioRegime(
                loss_probability=0.2,
                burst_loss_probability=0.9,
                burst_period_s=3 * 3600.0,
                burst_duration_s=1800.0,
            ),
            standing=StandingQuerySpec(
                kind=TriggerKind.ABOVE, threshold_offset=4.0, min_interval_s=600.0
            ),
        ),
        ScenarioSpec(
            name="wearout_vs_loss_grid",
            description="2-D knee: flash capacity x channel loss cross product",
            sweep=(
                SweepAxis(
                    parameter="flash_capacity_bytes", values=WEAR_OUT_CAPACITIES
                ),
                SweepAxis(parameter="loss_probability", values=WEAR_OUT_LOSSES),
            ),
        ),
        ScenarioSpec(
            name="staleness_vs_sync",
            description="replica sync interval swept against failover staleness",
            federation=FederationRegime(),  # pinned per point by the sweep
            sweep=SweepAxis(
                parameter="replica_sync_interval_s", values=SYNC_INTERVALS
            ),
            faults=(
                ProxyFault(
                    proxy_index=-1,
                    at_fraction=STALENESS_DEATH_FRACTION,
                    action="fail",
                ),
            ),
        ),
        ScenarioSpec(
            name="offload_vs_aging",
            description=(
                "storage policies x starved flash on a capacity-skewed fleet: "
                "fidelity retained per joule per flash byte, local aging vs "
                "collaborative offload"
            ),
            # Alternate sensors between 0.5x and 1.5x of the swept nominal
            # capacity (same fleet total): heterogeneous pressure is where
            # collaborative storage can beat purely local aging.
            storage=StoragePressure(capacity_skew=0.5),
            sweep=(
                SweepAxis(parameter="storage_policy", values=(1.0, 2.0, 3.0)),
                SweepAxis(
                    parameter="flash_capacity_bytes",
                    values=OFFLOAD_CAPACITIES,
                ),
            ),
        ),
    )
    return {spec.name: spec for spec in scenarios}


#: offered-load points for the serving saturation grid, ascending through
#: the knee (the last point queues past one partition's capacity)
SERVING_QPS_POINTS = (60.0, 240.0, 960.0)

#: Zipf skews for the saturation grid: mild vs heavy popularity skew —
#: heavier skew concentrates the memo's hits, moving the knee right
SERVING_ZIPF_POINTS = (0.6, 1.1)


#: stripe widths for the coded-failover grid at a pinned k=2: n=3 buys one
#: parity fragment of survivability at 1.5x payload (vs 2x for a full
#: second copy); n=2 is the no-parity baseline (same bytes as one copy)
CODING_N_POINTS = (3.0, 2.0)

#: pinned data-fragment count for the coded scenarios — small enough that
#: the default campaign's wired pool can host every fragment distinctly
CODED_K = 2


def extended_scenarios() -> dict[str, ScenarioSpec]:
    """Name → spec for scenarios beyond the pinned built-in set.

    These are *not* part of :func:`builtin_scenarios` (whose names, order
    and count are drift-gated API in ``BENCH_scenarios.json``); they run
    on request via ``--scenario`` or through their own benchmarks
    (``bench_serving.py`` owns the saturation grid, ``bench_coding.py``
    the replica-coding rows).
    """
    scenarios = (
        ScenarioSpec(
            name="serving_saturation",
            description="offered qps x zipf grid over a partitioned "
            "federation's serving front-end",
            federation=FederationRegime(partitions=2),
            serving=ServingRegime(offered_qps=SERVING_QPS_POINTS[0]),
            sweep=(
                SweepAxis(parameter="offered_qps", values=SERVING_QPS_POINTS),
                SweepAxis(parameter="zipf_s", values=SERVING_ZIPF_POINTS),
            ),
        ),
        ScenarioSpec(
            name="burst_locked_blackout",
            description="proxy deaths phase-locked to interference burst "
            "onsets — failover measured when the channel is at its worst",
            radio=RadioRegime(
                loss_probability=0.2,
                burst_loss_probability=0.9,
                burst_period_s=3 * 3600.0,
                burst_duration_s=1800.0,
            ),
            faults=FaultSchedule(
                faults=(
                    ProxyFault(proxy_index=-1, at_fraction=0.3, action="fail"),
                    ProxyFault(proxy_index=-2, at_fraction=0.6, action="fail"),
                ),
                align_to_bursts=True,
            ),
        ),
        ScenarioSpec(
            name="coded_failover",
            description="replica coding x stripe width under the cascading "
            "failures fault schedule — coded sync bytes vs failover fidelity",
            federation=FederationRegime(
                replica_coding="full", coding_k=CODED_K, coding_n=3
            ),
            sweep=(
                SweepAxis(parameter="replica_coding", values=(1.0, 2.0)),
                SweepAxis(parameter="coding_n", values=CODING_N_POINTS),
            ),
            faults=(
                ProxyFault(proxy_index=-1, at_fraction=0.25, action="fail"),
                ProxyFault(proxy_index=-1, at_fraction=0.45, action="recover"),
                ProxyFault(proxy_index=-2, at_fraction=0.5, action="fail"),
                ProxyFault(proxy_index=-2, at_fraction=0.7, action="recover"),
                ProxyFault(proxy_index=-1, at_fraction=0.8, action="fail"),
            ),
        ),
        ScenarioSpec(
            name="coded_staleness_vs_sync",
            description="sync cadence x replica coding against failover "
            "staleness — fragments must not change what replicas answer",
            federation=FederationRegime(
                replica_coding="full", coding_k=CODED_K, coding_n=3
            ),
            sweep=(
                SweepAxis(
                    parameter="replica_sync_interval_s", values=SYNC_INTERVALS
                ),
                SweepAxis(parameter="replica_coding", values=(1.0, 2.0)),
            ),
            faults=(
                ProxyFault(
                    proxy_index=-1,
                    at_fraction=STALENESS_DEATH_FRACTION,
                    action="fail",
                ),
            ),
        ),
    )
    return {spec.name: spec for spec in scenarios}


def all_scenarios() -> dict[str, ScenarioSpec]:
    """The full registry: pinned built-ins first, then the extended set."""
    return {**builtin_scenarios(), **extended_scenarios()}


#: the specs the default campaign runs, in order — pass directly to
#: :meth:`~repro.scenarios.runner.CampaignRunner.run`.  Deliberately the
#: pinned built-ins only: the extended set stays out of the drift-gated
#: default campaign.
DEFAULT_CAMPAIGN = tuple(builtin_scenarios().values())
