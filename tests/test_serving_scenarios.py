"""Scenario-layer wiring for the serving tier, partitions and fault
phase-locking (the FaultSchedule satellite)."""

import dataclasses

import pytest

from repro.core.continuous import TriggerKind
from repro.scenarios import (
    DEFAULT_CAMPAIGN,
    CampaignConfig,
    CampaignRunner,
    FaultSchedule,
    FederationRegime,
    ProxyFault,
    RadioRegime,
    ScenarioSpec,
    ServingRegime,
    StandingQuerySpec,
    SweepAxis,
    all_scenarios,
    builtin_scenarios,
    extended_scenarios,
)


def small_config(**overrides):
    defaults = dict(
        n_sensors=4,
        duration_days=0.3,
        seed=3,
        n_proxies=2,
        arrival_rate_per_s=1 / 400.0,
    )
    defaults.update(overrides)
    return CampaignConfig(**defaults)


BURSTY_RADIO = RadioRegime(
    loss_probability=0.1,
    burst_loss_probability=0.8,
    burst_period_s=2.5 * 3600.0,
    burst_duration_s=1200.0,
)


class TestFaultSchedule:
    def test_quacks_like_the_tuple_it_replaces(self):
        faults = (
            ProxyFault(proxy_index=-1, at_fraction=0.3, action="fail"),
            ProxyFault(proxy_index=-1, at_fraction=0.6, action="recover"),
        )
        schedule = FaultSchedule(faults)
        assert schedule == faults
        assert list(schedule) == list(faults)
        assert len(schedule) == 2
        assert schedule[0] is faults[0]
        assert bool(schedule)
        assert not FaultSchedule()
        assert FaultSchedule() == ()

    def test_spec_normalises_plain_tuples(self):
        spec = ScenarioSpec(
            name="x",
            faults=(ProxyFault(proxy_index=0, at_fraction=0.5),),
        )
        assert isinstance(spec.faults, FaultSchedule)
        assert not spec.faults.align_to_bursts
        assert ScenarioSpec(name="y").faults == ()

    def test_unordered_cascade_still_rejected(self):
        with pytest.raises(ValueError, match="ordered"):
            FaultSchedule(
                (
                    ProxyFault(proxy_index=0, at_fraction=0.6),
                    ProxyFault(proxy_index=0, at_fraction=0.3),
                )
            )

    def test_aligned_schedule_ignores_fraction_order(self):
        FaultSchedule(
            (
                ProxyFault(proxy_index=0, at_fraction=0.6),
                ProxyFault(proxy_index=0, at_fraction=0.3),
            ),
            align_to_bursts=True,
        )

    def test_align_needs_faults_and_bursts(self):
        with pytest.raises(ValueError, match="at least one fault"):
            FaultSchedule(align_to_bursts=True)
        with pytest.raises(ValueError, match="burst"):
            ScenarioSpec(
                name="x",
                faults=FaultSchedule(
                    (ProxyFault(proxy_index=0, at_fraction=0.5),),
                    align_to_bursts=True,
                ),
            )

    def test_runner_places_faults_at_burst_onsets(self):
        spec = ScenarioSpec(
            name="locked",
            radio=BURSTY_RADIO,
            faults=FaultSchedule(
                (
                    ProxyFault(proxy_index=-1, at_fraction=0.5, action="fail"),
                    ProxyFault(proxy_index=-1, at_fraction=0.7, action="recover"),
                ),
                align_to_bursts=True,
            ),
        )
        runner = CampaignRunner(small_config())
        result = runner.run_one(spec, "federated")
        assert result.faults_applied == 2
        assert result.report.failovers > 0

    def test_runner_rejects_more_faults_than_bursts(self):
        spec = ScenarioSpec(
            name="overfull",
            radio=dataclasses.replace(BURSTY_RADIO, burst_period_s=5 * 3600.0),
            faults=FaultSchedule(
                tuple(
                    ProxyFault(proxy_index=-1, at_fraction=0.5, action=action)
                    for action in ("fail", "recover", "fail", "recover")
                ),
                align_to_bursts=True,
            ),
        )
        runner = CampaignRunner(small_config())
        with pytest.raises(ValueError, match="phase-locks"):
            runner.run_one(spec, "federated")


class TestServingWiring:
    def test_sweep_appliers_reach_their_knobs(self):
        spec = ScenarioSpec(
            name="x",
            serving=ServingRegime(offered_qps=50.0),
            sweep=(
                SweepAxis("offered_qps", (10.0, 20.0)),
                SweepAxis("zipf_s", (0.5,)),
                SweepAxis("memo_ttl_s", (5.0,)),
                SweepAxis("partitions", (2.0,)),
            ),
        )
        applied = CampaignRunner._apply_sweep(
            spec,
            {"offered_qps": 20.0, "zipf_s": 0.5, "memo_ttl_s": 5.0, "partitions": 2.0},
        )
        assert applied.serving.offered_qps == 20.0
        assert applied.serving.zipf_s == 0.5
        assert applied.serving.memo_ttl_s == 5.0
        assert applied.federation.partitions == 2

    def test_serving_sweep_without_frontend_rejected(self):
        spec = ScenarioSpec(name="x", sweep=(SweepAxis("zipf_s", (0.5,)),))
        with pytest.raises(ValueError, match="serving"):
            CampaignRunner._apply_sweep(spec, {"zipf_s": 0.5})

    def test_partition_sweep_values_must_be_whole(self):
        with pytest.raises(ValueError, match="whole"):
            SweepAxis("partitions", (1.5,))

    def test_serving_regime_validation(self):
        with pytest.raises(ValueError):
            ServingRegime(offered_qps=0.0)
        with pytest.raises(ValueError):
            FederationRegime(partitions=-1)
        assert not ServingRegime().enabled
        assert ServingRegime(offered_qps=10.0).enabled

    def test_partitioned_run_carries_serving_columns(self):
        spec = ScenarioSpec(
            name="served",
            federation=FederationRegime(partitions=2),
            serving=ServingRegime(offered_qps=30.0),
        )
        runner = CampaignRunner(small_config())
        result = runner.run_one(spec, "federated")
        row = result.row()
        assert row["n_partitions"] == 2.0
        assert row["serving_queries"] > 0
        assert row["serving_p50_s"] <= row["serving_p99_s"]
        # the single-cell harness has no serving tier
        single = runner.run_one(spec, "single").row()
        assert "serving_queries" not in single

    def test_standing_queries_run_partitioned(self):
        spec = ScenarioSpec(
            name="armed",
            federation=FederationRegime(partitions=2),
            standing=StandingQuerySpec(kind=TriggerKind.DELTA, threshold_offset=0.05),
        )
        runner = CampaignRunner(small_config())
        split = runner.run_one(spec, "federated")
        assert split.report.n_partitions == 2
        assert split.notifications > 0
        whole = runner.run_one(
            dataclasses.replace(spec, federation=FederationRegime()), "federated"
        )
        assert split.notifications == whole.notifications

    def test_partitioned_bursts_fire(self):
        spec = ScenarioSpec(
            name="bursty",
            radio=BURSTY_RADIO,
            federation=FederationRegime(partitions=2),
        )
        runner = CampaignRunner(small_config())
        result = runner.run_one(spec, "federated")
        assert result.bursts_scheduled > 0


class TestExtendedLibrary:
    def test_extended_scenarios_outside_pinned_set(self):
        builtin = builtin_scenarios()
        extended = extended_scenarios()
        assert "serving_saturation" in extended
        assert "burst_locked_blackout" in extended
        assert not set(extended) & set(builtin)
        default_names = {spec.name for spec in DEFAULT_CAMPAIGN}
        assert not set(extended) & default_names
        assert set(all_scenarios()) == set(builtin) | set(extended)
        for spec in extended.values():
            assert spec.description

    def test_saturation_grid_shape(self):
        spec = extended_scenarios()["serving_saturation"]
        assert [axis.parameter for axis in spec.sweep] == [
            "offered_qps",
            "zipf_s",
        ]
        assert len(spec.sweep_points()) >= 6
        assert spec.serving.enabled
        assert spec.federation.partitions == 2

    def test_blackout_is_phase_locked(self):
        spec = extended_scenarios()["burst_locked_blackout"]
        assert spec.faults.align_to_bursts
        assert spec.radio.burst_loss_probability is not None
