"""Unit + integration tests for the scenario-campaign engine."""

import dataclasses
import importlib.util
import json
import math
from pathlib import Path

import numpy as np
import pytest

from repro.core.continuous import TriggerKind
from repro.core.federation import FederatedSystem, _CellPartition
from repro.scenarios import (
    CampaignConfig,
    CampaignRunner,
    ClockRegime,
    FederationRegime,
    ProxyFault,
    RadioRegime,
    ScenarioSpec,
    StandingQuerySpec,
    StoragePressure,
    SweepAxis,
    TracePerturbation,
    WorkloadSpec,
    builtin_scenarios,
)
from repro.scenarios.runner import EPOCH_S
from repro.scenarios.spec import SWEEP_PARAMETERS, SWEEP_TABLE

REQUIRED_SCENARIOS = (
    "lossy uplink",
    "storage starvation",
    "proxy blackout",
    "event storm",
    "drift storm",
    "duty-cycle sweep",
    "regional loss",
    "cascading failures",
    "flash wear-out",
    "query surge",
    "adversarial timing",
)

#: the exact built-in library, pinned: a library edit that renames or drops
#: a scenario must be deliberate (and update the regression history too)
BUILTIN_NAMES = (
    "nominal",
    "lossy uplink",
    "storage starvation",
    "proxy blackout",
    "event storm",
    "drift storm",
    "duty-cycle sweep",
    "regional loss",
    "cascading failures",
    "flash wear-out",
    "query surge",
    "adversarial timing",
    "wearout_vs_loss_grid",
    "staleness_vs_sync",
    "offload_vs_aging",
)


def small_config(**overrides):
    """Campaign sizing small enough for unit tests."""
    defaults = dict(
        n_sensors=4,
        duration_days=0.3,
        seed=3,
        n_proxies=2,
        arrival_rate_per_s=1 / 400.0,
    )
    defaults.update(overrides)
    return CampaignConfig(**defaults)


class TestSpecValidation:
    def test_benign_default(self):
        spec = ScenarioSpec(name="x")
        assert not spec.injects_events
        assert spec.standing is None and spec.faults == ()

    def test_invalid_knobs_rejected(self):
        with pytest.raises(ValueError):
            TracePerturbation(dropout_rate=1.0)
        with pytest.raises(ValueError):
            TracePerturbation(event_duration_epochs=0)
        with pytest.raises(ValueError):
            RadioRegime(loss_probability=1.0)
        with pytest.raises(ValueError):
            RadioRegime(burst_loss_probability=0.5, burst_period_s=0.0)
        with pytest.raises(ValueError):
            # overlapping bursts would interleave apply/restore events
            RadioRegime(
                burst_loss_probability=0.5,
                burst_period_s=1800.0,
                burst_duration_s=1800.0,
            )
        with pytest.raises(ValueError):
            RadioRegime(duty_cycle_points=(1.0, 0.0))
        with pytest.raises(ValueError):
            StoragePressure(flash_capacity_bytes=0)
        with pytest.raises(ValueError):
            StandingQuerySpec(kind=TriggerKind.DELTA, threshold_offset=0.0)
        with pytest.raises(ValueError):
            ProxyFault(at_fraction=0.0)
        with pytest.raises(ValueError):
            ProxyFault(action="pause")
        with pytest.raises(ValueError):
            ScenarioSpec(name="")

    def test_campaign_config_validation(self):
        with pytest.raises(ValueError):
            CampaignConfig(n_proxies=9, n_sensors=4)
        with pytest.raises(ValueError):
            CampaignConfig(harnesses=("single", "cloud"))
        with pytest.raises(ValueError):
            CampaignConfig(duration_days=0.0)
        with pytest.raises(ValueError):
            CampaignConfig(n_proxies=0)

    def test_single_harness_ignores_proxy_sizing(self):
        # an unused federated default must not reject a 2-sensor fleet
        config = CampaignConfig(n_sensors=2, harnesses=("single",))
        assert config.n_proxies == 3  # irrelevant but accepted


#: (sub-spec class, invalid kwargs) — every validator, every rejection path
INVALID_SUBSPEC_CASES = [
    (TracePerturbation, {"dropout_rate": 1.0}),
    (TracePerturbation, {"dropout_rate": -0.01}),
    (TracePerturbation, {"event_rate_per_sensor_day": -1.0}),
    (TracePerturbation, {"event_duration_epochs": 0}),
    (TracePerturbation, {"align_to_bursts": True, "event_rate_per_sensor_day": 1.0}),
    (RadioRegime, {"loss_probability": 1.0}),
    (RadioRegime, {"loss_probability": -0.1}),
    (RadioRegime, {"burst_loss_probability": 1.2}),
    (RadioRegime, {"burst_loss_probability": 0.5, "burst_period_s": 0.0}),
    (RadioRegime, {"burst_loss_probability": 0.5, "burst_duration_s": -1.0}),
    (
        RadioRegime,
        {
            "burst_loss_probability": 0.5,
            "burst_period_s": 1800.0,
            "burst_duration_s": 1800.0,
        },
    ),
    (RadioRegime, {"duty_cycle_points": (1.0, 0.0)}),
    (RadioRegime, {"cell_indices": (0,)}),  # targeting without bursts
    (RadioRegime, {"burst_loss_probability": 0.5, "cell_indices": (1, 1)}),
    (StoragePressure, {"flash_capacity_bytes": 0}),
    (StoragePressure, {"segment_readings": 0}),
    (StoragePressure, {"aging_max_level": 0}),
    (ClockRegime, {"offset_std_s": -1.0}),
    (ClockRegime, {"skew_ppm_std": -0.5}),
    (WorkloadSpec, {"arrival_rate_per_s": 0.0}),
    (WorkloadSpec, {"arrival_rate_per_s": -1.0}),
    (WorkloadSpec, {"surge_multiplier": 0.5}),
    (WorkloadSpec, {"surge_start_fraction": 1.0}),
    (WorkloadSpec, {"surge_start_fraction": -0.1}),
    (WorkloadSpec, {"surge_duration_fraction": 0.0}),
    (WorkloadSpec, {"surge_start_fraction": 0.9, "surge_duration_fraction": 0.2}),
    (StandingQuerySpec, {"min_interval_s": -1.0}),
    (StandingQuerySpec, {"kind": TriggerKind.DELTA, "threshold_offset": 0.0}),
    (ProxyFault, {"at_fraction": 0.0}),
    (ProxyFault, {"at_fraction": 1.0}),
    (ProxyFault, {"action": "pause"}),
    (WorkloadSpec, {"surge_multiplier": 2.0, "surge_profile": "spike"}),
    (WorkloadSpec, {"surge_profile": "ramp"}),          # shaping without surge
    (WorkloadSpec, {"surge_hotspot_zipf": 2.0}),        # hotspot without surge
    (WorkloadSpec, {"surge_multiplier": 2.0, "surge_hotspot_zipf": 0.0}),
    (FederationRegime, {"replica_sync_interval_s": 0.0}),
    (FederationRegime, {"replica_sync_interval_s": -60.0}),
    (SweepAxis, {"parameter": "unknown_knob", "values": (1.0,)}),
    (SweepAxis, {"parameter": "flash_capacity_bytes", "values": ()}),
    (SweepAxis, {"parameter": "flash_capacity_bytes", "values": (0.0,)}),
    (SweepAxis, {"parameter": "flash_capacity_bytes", "values": (8.0, 8.0)}),
    (SweepAxis, {"parameter": "loss_probability", "values": (1.5,)}),
    (SweepAxis, {"parameter": "surge_multiplier", "values": (0.5,)}),
    (SweepAxis, {"parameter": "replica_sync_interval_s", "values": (-1.0,)}),
]

#: one benign instance of every frozen sub-spec
FROZEN_SUBSPEC_INSTANCES = [
    TracePerturbation(),
    RadioRegime(),
    StoragePressure(),
    ClockRegime(),
    WorkloadSpec(),
    FederationRegime(),
    StandingQuerySpec(),
    ProxyFault(),
    SweepAxis(parameter="loss_probability", values=(0.2,)),
    ScenarioSpec(name="frozen-probe"),
]


class TestSpecProperties:
    """Property-style coverage of every sub-spec validator."""

    @pytest.mark.parametrize(
        "cls,kwargs",
        INVALID_SUBSPEC_CASES,
        ids=[
            f"{cls.__name__}-{'-'.join(kwargs)}"
            for cls, kwargs in INVALID_SUBSPEC_CASES
        ],
    )
    def test_invalid_fields_always_raise(self, cls, kwargs):
        with pytest.raises(ValueError):
            cls(**kwargs)

    @pytest.mark.parametrize(
        "instance",
        FROZEN_SUBSPEC_INSTANCES,
        ids=[type(i).__name__ for i in FROZEN_SUBSPEC_INSTANCES],
    )
    def test_frozen_specs_reject_mutation(self, instance):
        field_name = dataclasses.fields(instance)[0].name
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(instance, field_name, object())

    def test_default_spec_is_exactly_nominal(self):
        spec = ScenarioSpec(name="x")
        assert spec.trace == TracePerturbation()
        assert spec.radio == RadioRegime()
        assert spec.storage == StoragePressure()
        assert spec.clocks == ClockRegime()
        assert spec.workload == WorkloadSpec()
        assert not spec.workload.surges
        assert spec.standing is None
        assert spec.faults == ()
        assert spec.sweep == ()
        assert spec.sweep_points() == [{}]
        assert spec.federation == FederationRegime()
        assert not spec.injects_events

    def test_unordered_fault_cascade_rejected(self):
        with pytest.raises(ValueError, match="ordered"):
            ScenarioSpec(
                name="x",
                faults=(
                    ProxyFault(proxy_index=-1, at_fraction=0.6, action="fail"),
                    ProxyFault(proxy_index=-1, at_fraction=0.3, action="recover"),
                ),
            )

    def test_align_to_bursts_requires_bursts(self):
        with pytest.raises(ValueError, match="burst"):
            ScenarioSpec(
                name="x", trace=TracePerturbation(align_to_bursts=True)
            )

    def test_align_to_bursts_counts_as_injecting(self):
        spec = ScenarioSpec(
            name="x",
            trace=TracePerturbation(align_to_bursts=True),
            radio=RadioRegime(burst_loss_probability=0.8),
        )
        assert spec.injects_events


class TestLibrary:
    def test_required_scenarios_present(self):
        specs = builtin_scenarios()
        assert len(specs) >= 12
        for name in REQUIRED_SCENARIOS:
            assert name in specs, f"missing built-in scenario {name!r}"

    def test_builtin_names_and_count_pinned(self):
        """Library edits must be deliberate — names and order are the API."""
        assert tuple(builtin_scenarios()) == BUILTIN_NAMES

    def test_injects_events_matches_trace_perturbation(self):
        """`injects_events` must stay derivable from the trace sub-spec, so
        recall metrics can never silently detach from their ground truth."""
        for name, spec in builtin_scenarios().items():
            expected = (
                spec.trace.event_rate_per_sensor_day > 0
                or spec.trace.align_to_bursts
            )
            assert spec.injects_events == expected, name

    def test_event_injecting_builtins_arm_standing_queries(self):
        """Injected ground truth without a standing query would orphan the
        notification-recall metric (always NaN) — forbid it in the library."""
        for name, spec in builtin_scenarios().items():
            if spec.injects_events:
                assert spec.standing is not None, (
                    f"{name!r} injects events but arms no standing query"
                )

    def test_every_builtin_described(self):
        for spec in builtin_scenarios().values():
            assert spec.description

    def test_sweep_carries_points(self):
        sweep = builtin_scenarios()["duty-cycle sweep"]
        assert len(sweep.radio.duty_cycle_points) >= 3

    def test_wear_out_sweep_descends(self):
        sweep = builtin_scenarios()["flash wear-out"].sweep
        assert len(sweep) == 1
        axis = sweep[0]
        assert axis.parameter == "flash_capacity_bytes"
        assert list(axis.values) == sorted(axis.values, reverse=True)

    def test_grid_builtin_crosses_two_axes(self):
        spec = builtin_scenarios()["wearout_vs_loss_grid"]
        assert [axis.parameter for axis in spec.sweep] == [
            "flash_capacity_bytes",
            "loss_probability",
        ]
        points = spec.sweep_points()
        assert len(points) == len(spec.sweep[0].values) * len(
            spec.sweep[1].values
        )
        assert all(len(point) == 2 for point in points)

    def test_staleness_builtin_sweeps_sync_interval_with_a_death(self):
        spec = builtin_scenarios()["staleness_vs_sync"]
        assert [axis.parameter for axis in spec.sweep] == [
            "replica_sync_interval_s"
        ]
        assert any(fault.action == "fail" for fault in spec.faults)

    def test_cascade_schedule_is_ordered_with_multiple_deaths(self):
        faults = builtin_scenarios()["cascading failures"].faults
        assert len(faults) >= 4
        assert sum(1 for f in faults if f.action == "fail") >= 2
        fractions = [f.at_fraction for f in faults]
        assert fractions == sorted(fractions)


@pytest.fixture(scope="module")
def campaign():
    """One small campaign over blackout + event storm + a 2-point sweep."""
    specs = builtin_scenarios()
    sweep = ScenarioSpec(
        name="duty-cycle sweep",
        radio=RadioRegime(loss_probability=0.1, duty_cycle_points=(1.0, 8.0)),
    )
    runner = CampaignRunner(small_config())
    report = runner.run(
        [specs["proxy blackout"], specs["event storm"], sweep]
    )
    return report


class TestCampaignMatrix:
    def test_every_scenario_ran_both_harnesses(self, campaign):
        for name in campaign.scenarios():
            harnesses = {r.harness for r in campaign.for_scenario(name)}
            assert harnesses == {"single", "federated"}

    def test_sweep_expands_per_point_and_harness(self, campaign):
        sweep = campaign.for_scenario("duty-cycle sweep")
        assert len(sweep) == 4  # 2 points x 2 harnesses
        assert {r.variant for r in sweep} == {"lpl=1s", "lpl=8s"}

    def test_rows_and_table_consolidated(self, campaign):
        rows = campaign.rows()
        assert len(rows) == len(campaign.results)
        for key in (
            "success_rate",
            "mean_error",
            "energy_per_day_j",
            "notification_recall",
        ):
            assert all(key in row for row in rows)
        table = campaign.to_table()
        for name in campaign.scenarios():
            assert name in table

    def test_longer_check_interval_saves_energy(self, campaign):
        for harness in ("single", "federated"):
            sweep = [
                r for r in campaign.for_scenario("duty-cycle sweep")
                if r.harness == harness
            ]
            energies = [r.report.sensor_energy_per_day_j for r in sweep]
            assert energies[0] > energies[1]


class TestFaults:
    def test_blackout_fails_over_on_federated_only(self, campaign):
        results = {r.harness: r for r in campaign.for_scenario("proxy blackout")}
        assert results["single"].faults_applied == 0
        federated = results["federated"]
        assert federated.faults_applied == 1
        assert federated.report.failovers > 0
        # replication keeps the cluster answering through the blackout
        assert federated.report.answered_fraction > 0.8


class TestEventsAndRecall:
    def test_storm_injects_and_recalls(self, campaign):
        for result in campaign.for_scenario("event storm"):
            assert result.events_injected > 0
            assert result.qualifying_events > 0
            assert not math.isnan(result.notification_recall)
            assert result.notification_recall >= 0.5
            assert result.notifications > 0

    def test_recall_nan_without_standing_queries(self, campaign):
        for result in campaign.for_scenario("proxy blackout"):
            assert math.isnan(result.notification_recall)
            assert result.notifications == 0


class TestBursts:
    def test_bursts_scheduled_and_degrade_delivery(self):
        runner = CampaignRunner(small_config())
        clean = runner.run_one(
            ScenarioSpec(name="clean", radio=RadioRegime(loss_probability=0.0)), "single"
        )
        bursty = runner.run_one(
            ScenarioSpec(
                name="bursty",
                radio=RadioRegime(
                    loss_probability=0.3,
                    burst_loss_probability=0.9,
                    burst_period_s=7200.0,
                    burst_duration_s=3600.0,
                ),
            ),
            "single",
        )
        # 0.3 days = 25920 s -> bursts start at 7200, 14400, 21600
        assert bursty.bursts_scheduled == 3
        assert clean.bursts_scheduled == 0
        assert bursty.report.delivery_ratio < clean.report.delivery_ratio

    def test_unknown_harness_rejected(self):
        runner = CampaignRunner(small_config())
        with pytest.raises(ValueError):
            runner.run_one(ScenarioSpec(name="x"), "cloud")

    def test_out_of_range_fault_index_rejected(self):
        runner = CampaignRunner(small_config())  # 2 federated proxies
        bad = ScenarioSpec(name="x", faults=(ProxyFault(proxy_index=5),))
        with pytest.raises(ValueError, match="out of range"):
            runner.run_one(bad, "federated")

    def test_sub_hour_horizon_still_generates_queries(self):
        """The workload warm-up clamps below the horizon, so campaigns
        shorter than the fixed one-hour warm-up must still run."""
        runner = CampaignRunner(small_config(duration_days=0.02))
        result = runner.run_one(ScenarioSpec(name="tiny"), "single")
        assert len(result.report.answers) > 0


@pytest.fixture(scope="module")
def adverse_campaign():
    """One small campaign over the five new adverse built-ins + nominal."""
    specs = builtin_scenarios()
    runner = CampaignRunner(small_config())
    report = runner.run(
        [
            specs["nominal"],
            specs["regional loss"],
            specs["cascading failures"],
            specs["flash wear-out"],
            specs["query surge"],
            specs["adversarial timing"],
        ]
    )
    return report


def _two_cell_system(runner, spec):
    """The federated system run_one would build for *spec* (2 cells)."""
    _, trace, _ = runner._build_trace(spec)
    return FederatedSystem(
        trace,
        runner._presto_config(spec, None),
        federation=runner._federation_config(spec),
        seed=1,
    )


class TestRegionalLoss:
    def test_targeted_burst_flips_only_the_addressed_cell(self):
        """The scheduled burst swaps exactly cell 1's links, then restores."""
        runner = CampaignRunner(small_config())  # 0.3 days = 25920 s
        spec = ScenarioSpec(
            name="regional",
            radio=RadioRegime(
                loss_probability=0.1,
                burst_loss_probability=0.9,
                burst_period_s=7200.0,
                burst_duration_s=1800.0,
                cell_indices=(1,),
            ),
        )
        system = _two_cell_system(runner, spec)
        count = runner._schedule_bursts(spec, system, 2)
        assert count == 3  # bursts at 7200, 14400, 21600
        partition = _CellPartition(
            system._context(runner.config.duration_s), [0, 1], [], []
        )
        partition.setup()

        def loss(proxy_name):
            return partition._built[proxy_name].network.link_config.loss_probability

        partition.sim.run_until(8000.0)  # inside the first burst (7200..9000)
        assert loss("proxy1") == 0.9
        assert loss("proxy0") == 0.1
        partition.sim.run_until(9500.0)  # past the burst end
        assert loss("proxy1") == 0.1
        assert loss("proxy0") == 0.1

    def test_out_of_range_cell_index_rejected(self):
        runner = CampaignRunner(small_config())
        spec = ScenarioSpec(
            name="regional",
            radio=RadioRegime(
                burst_loss_probability=0.9, cell_indices=(2,)
            ),
        )
        with pytest.raises(ValueError, match="out of range"):
            runner._schedule_bursts(spec, _two_cell_system(runner, spec), 2)

    def test_negative_index_resolves_on_both_harnesses(self, adverse_campaign):
        """cell_indices=(-1,) addresses the only cell single-cell-side and
        the last (wireless) cell federated-side — bursts fire on both."""
        for result in adverse_campaign.for_scenario("regional loss"):
            assert result.bursts_scheduled > 0, result.label


class TestCascades:
    def test_cascade_runs_all_faults_federated_only(self, adverse_campaign):
        results = {
            r.harness: r
            for r in adverse_campaign.for_scenario("cascading failures")
        }
        assert results["single"].faults_applied == 0
        assert results["single"].replica_staleness_s == ()
        federated = results["federated"]
        assert federated.faults_applied == 5
        assert federated.report.failovers > 0

    def test_staleness_recorded_per_death(self, adverse_campaign):
        federated = next(
            r
            for r in adverse_campaign.for_scenario("cascading failures")
            if r.harness == "federated"
        )
        # the builtin schedules three deaths (two of proxy -1, one of -2)
        assert len(federated.replica_staleness_s) == 3
        assert any(np.isfinite(age) for age in federated.replica_staleness_s)
        assert all(
            age >= 0.0 or not np.isfinite(age)
            for age in federated.replica_staleness_s
        )
        assert federated.report.max_replica_staleness_s == max(
            federated.replica_staleness_s
        )


class TestSweeps:
    def test_sweep_expands_per_point_with_shared_scenario_row(
        self, adverse_campaign
    ):
        sweep = adverse_campaign.for_scenario("flash wear-out")
        assert len(sweep) == 6  # 3 capacities x 2 harnesses
        for harness in ("single", "federated"):
            variants = [r.variant for r in sweep if r.harness == harness]
            assert variants == ["flash=84480", "flash=21120", "flash=5280"]

    def test_wear_out_knee_ages_more_segments_when_starved(
        self, adverse_campaign
    ):
        for harness in ("single", "federated"):
            points = [
                r
                for r in adverse_campaign.for_scenario("flash wear-out")
                if r.harness == harness
            ]
            ample = points[0].report.archive_aged_segments
            starved = points[-1].report.archive_aged_segments
            assert starved > ample, harness
            assert points[-1].report.archive_worst_level >= 1

    def test_apply_sweep_pins_each_supported_parameter(self):
        base = ScenarioSpec(
            name="s",
            sweep=SweepAxis(parameter="flash_capacity_bytes", values=(4096.0,)),
        )
        pinned = CampaignRunner._apply_sweep(base, {"flash_capacity_bytes": 4096.0})
        assert pinned.storage.flash_capacity_bytes == 4096
        assert isinstance(pinned.storage.flash_capacity_bytes, int)

        rate = dataclasses.replace(
            base, sweep=SweepAxis(parameter="arrival_rate_per_s", values=(0.01,))
        )
        assert CampaignRunner._apply_sweep(
            rate, {"arrival_rate_per_s": 0.01}
        ).workload.arrival_rate_per_s == 0.01

        loss = dataclasses.replace(
            base, sweep=SweepAxis(parameter="loss_probability", values=(0.4,))
        )
        assert CampaignRunner._apply_sweep(
            loss, {"loss_probability": 0.4}
        ).radio.loss_probability == 0.4

        sync = dataclasses.replace(
            base,
            sweep=SweepAxis(
                parameter="replica_sync_interval_s", values=(600.0,)
            ),
        )
        assert CampaignRunner._apply_sweep(
            sync, {"replica_sync_interval_s": 600.0}
        ).federation.replica_sync_interval_s == 600.0

        surge = dataclasses.replace(
            base,
            workload=WorkloadSpec(surge_multiplier=2.0),
            sweep=SweepAxis(parameter="surge_multiplier", values=(4.0,)),
        )
        assert CampaignRunner._apply_sweep(
            surge, {"surge_multiplier": 4.0}
        ).workload.surge_multiplier == 4.0

        policy = dataclasses.replace(
            base, sweep=SweepAxis(parameter="storage_policy", values=(2.0,))
        )
        assert CampaignRunner._apply_sweep(
            policy, {"storage_policy": 2.0}
        ).storage.storage_policy == "greedy_offload"

    def test_storage_policy_axis_validates_codes(self):
        SweepAxis(parameter="storage_policy", values=(1.0, 2.0, 3.0))
        with pytest.raises(ValueError):
            SweepAxis(parameter="storage_policy", values=(1.5,))
        with pytest.raises(ValueError):
            SweepAxis(parameter="storage_policy", values=(4.0,))

    def test_apply_sweep_pins_both_axes_of_a_grid_point(self):
        base = ScenarioSpec(
            name="grid",
            sweep=(
                SweepAxis(parameter="flash_capacity_bytes", values=(4096.0,)),
                SweepAxis(parameter="loss_probability", values=(0.4,)),
            ),
        )
        pinned = CampaignRunner._apply_sweep(
            base, {"flash_capacity_bytes": 4096.0, "loss_probability": 0.4}
        )
        assert pinned.storage.flash_capacity_bytes == 4096
        assert pinned.radio.loss_probability == 0.4

    def test_sweep_point_without_axis_rejected(self):
        runner = CampaignRunner(small_config())
        with pytest.raises(ValueError, match="no such axis"):
            runner.run_one(
                ScenarioSpec(name="x"),
                "single",
                sweep_point={"loss_probability": 0.5},
            )


class TestSurgeWorkload:
    def test_surge_stream_is_ordered_unique_and_denser_in_window(self):
        runner = CampaignRunner(small_config())
        duration = runner.config.duration_s
        spec = ScenarioSpec(
            name="surge",
            workload=WorkloadSpec(
                arrival_rate_per_s=1 / 100.0,
                surge_multiplier=6.0,
                surge_start_fraction=0.5,
                surge_duration_fraction=0.2,
            ),
        )
        _, trace, _ = runner._build_trace(spec)
        queries = runner._generate_queries(
            spec, trace, None, runner.variant_seed(spec.name, "single")
        )
        times = [q.arrival_time for q in queries]
        assert times == sorted(times)
        ids = [q.query_id for q in queries]
        assert len(set(ids)) == len(ids)
        in_surge = sum(1 for t in times if 0.5 * duration <= t < 0.7 * duration)
        before = sum(1 for t in times if 0.2 * duration <= t < 0.4 * duration)
        assert in_surge > 3 * before

    def test_scenario_rate_overrides_campaign_default(self):
        runner = CampaignRunner(small_config())  # campaign default 1/400
        _, trace, _ = runner._build_trace(ScenarioSpec(name="x"))
        seed = runner.variant_seed("x", "single")
        default_queries = runner._generate_queries(
            ScenarioSpec(name="x"), trace, None, seed
        )
        fast_queries = runner._generate_queries(
            ScenarioSpec(
                name="x", workload=WorkloadSpec(arrival_rate_per_s=1 / 50.0)
            ),
            trace,
            None,
            seed,
        )
        assert len(fast_queries) > 3 * len(default_queries)

    def test_surge_multiplies_answered_volume(self, adverse_campaign):
        nominal = {
            r.harness: len(r.report.answers)
            for r in adverse_campaign.for_scenario("nominal")
        }
        for result in adverse_campaign.for_scenario("query surge"):
            assert len(result.report.answers) > 2 * nominal[result.harness]


class TestAdversarialTiming:
    def test_events_phase_locked_to_burst_onsets(self):
        runner = CampaignRunner(small_config())
        spec = builtin_scenarios()["adversarial timing"]
        _, trace, events = runner._build_trace(spec)
        # 0.3 days, 3 h period -> bursts at 10800 s and 21600 s
        expected_epochs = {
            int(round(10800.0 / EPOCH_S)),
            int(round(21600.0 / EPOCH_S)),
        }
        assert len(events) == len(expected_epochs) * runner.config.n_sensors
        assert {e.start_epoch for e in events} == expected_epochs
        assert all(e.magnitude > 0 for e in events)

    def test_recall_and_worst_latency_reported(self, adverse_campaign):
        for result in adverse_campaign.for_scenario("adversarial timing"):
            assert result.events_injected > 0
            assert result.qualifying_events == result.events_injected
            assert result.notification_recall >= 0.5, result.label
            assert np.isfinite(result.worst_notification_latency_s)
            assert result.worst_notification_latency_s >= 0.0
            row = result.row()
            assert (
                row["worst_notification_latency_s"]
                == result.worst_notification_latency_s
            )

    def test_worst_latency_nan_without_standing_queries(self, adverse_campaign):
        for result in adverse_campaign.for_scenario("nominal"):
            assert math.isnan(result.worst_notification_latency_s)


class TestReplicaFidelity:
    def test_failover_answers_diverge_boundedly(self, adverse_campaign):
        """The ROADMAP's replica-answer fidelity item: failover answers stay
        within signal-unit distance of the dead cell's in-simulation truth,
        and the bound lands in the campaign report row."""
        federated = next(
            r
            for r in adverse_campaign.for_scenario("cascading failures")
            if r.harness == "federated"
        )
        report = federated.report
        assert report.failovers > 0
        assert np.isfinite(report.failover_mean_error)
        assert report.failover_mean_error < 3.0
        assert report.failover_mean_error <= report.failover_max_error
        row = federated.row()
        assert row["failover_mean_error"] == report.failover_mean_error
        assert row["max_replica_staleness_s"] == report.max_replica_staleness_s

    def test_single_harness_rows_omit_federated_metrics(self, adverse_campaign):
        single = next(
            r
            for r in adverse_campaign.for_scenario("nominal")
            if r.harness == "single"
        )
        row = single.row()
        assert "failover_mean_error" not in row
        assert "max_replica_staleness_s" not in row


class TestSweepGridSpec:
    """The composable-grid surface of ScenarioSpec.sweep."""

    def test_single_axis_shim_normalises_to_tuple(self):
        axis = SweepAxis(parameter="loss_probability", values=(0.1, 0.2))
        spec = ScenarioSpec(name="x", sweep=axis)
        assert spec.sweep == (axis,)

    def test_none_normalises_to_empty_tuple(self):
        assert ScenarioSpec(name="x", sweep=None).sweep == ()

    def test_list_of_axes_normalises_to_tuple(self):
        axes = [
            SweepAxis(parameter="flash_capacity_bytes", values=(1024.0,)),
            SweepAxis(parameter="loss_probability", values=(0.1,)),
        ]
        assert ScenarioSpec(name="x", sweep=axes).sweep == tuple(axes)

    def test_duplicate_axis_parameters_rejected(self):
        with pytest.raises(ValueError, match="distinct parameters"):
            ScenarioSpec(
                name="x",
                sweep=(
                    SweepAxis(parameter="loss_probability", values=(0.1,)),
                    SweepAxis(parameter="loss_probability", values=(0.2,)),
                ),
            )

    def test_non_axis_entries_rejected(self):
        with pytest.raises(ValueError, match="SweepAxis"):
            ScenarioSpec(name="x", sweep=("loss_probability",))

    def test_sweep_points_cross_product_rightmost_fastest(self):
        spec = ScenarioSpec(
            name="x",
            sweep=(
                SweepAxis(parameter="flash_capacity_bytes", values=(2048, 1024)),
                SweepAxis(parameter="loss_probability", values=(0.1, 0.3)),
            ),
        )
        assert spec.sweep_points() == [
            {"flash_capacity_bytes": 2048, "loss_probability": 0.1},
            {"flash_capacity_bytes": 2048, "loss_probability": 0.3},
            {"flash_capacity_bytes": 1024, "loss_probability": 0.1},
            {"flash_capacity_bytes": 1024, "loss_probability": 0.3},
        ]

    def test_axis_values_list_normalises_to_tuple(self):
        assert SweepAxis(
            parameter="loss_probability", values=[0.1, 0.2]
        ).values == (0.1, 0.2)


@pytest.fixture(scope="module")
def grid_campaign():
    """A 2x2 grid scenario over both harnesses at tiny scale."""
    spec = ScenarioSpec(
        name="grid",
        sweep=(
            SweepAxis(parameter="flash_capacity_bytes", values=(84480, 5280)),
            SweepAxis(parameter="loss_probability", values=(0.05, 0.4)),
        ),
    )
    runner = CampaignRunner(small_config(duration_days=0.1))
    return runner.run([spec])


class TestGridExpansion:
    def test_row_count_is_product_of_axis_lengths(self, grid_campaign):
        for harness in ("single", "federated"):
            rows = [
                r
                for r in grid_campaign.for_scenario("grid")
                if r.harness == harness
            ]
            assert len(rows) == 4  # 2 x 2 cross product
            assert len({tuple(sorted(r.sweep_point.items())) for r in rows}) == 4

    def test_each_row_carries_both_coordinates(self, grid_campaign):
        for result in grid_campaign.for_scenario("grid"):
            assert set(result.sweep_point) == {
                "flash_capacity_bytes",
                "loss_probability",
            }
            assert f"flash={result.sweep_point['flash_capacity_bytes']:g}" in (
                result.variant
            )
            assert f"loss={result.sweep_point['loss_probability']:g}" in (
                result.variant
            )

    def test_rows_round_trip_coordinates_through_json(self, grid_campaign):
        rows = json.loads(json.dumps(grid_campaign.rows()))
        points = [row["sweep"] for row in rows]
        assert all(len(point) == 2 for point in points)
        assert points == [dict(r.sweep_point) for r in grid_campaign.results]

    def test_grid_assembles_cells_in_axis_order(self, grid_campaign):
        grid = grid_campaign.grid(
            "success_rate",
            "loss_probability",
            "flash_capacity_bytes",
            harness="single",
        )
        assert grid.scenario == "grid" and grid.harness == "single"
        assert grid.x_values == (0.05, 0.4)
        assert grid.y_values == (84480, 5280)
        by_point = {
            tuple(sorted(r.sweep_point.items())): r.row()["success_rate"]
            for r in grid_campaign.for_scenario("grid")
            if r.harness == "single"
        }
        for iy, y in enumerate(grid.y_values):
            for ix, x in enumerate(grid.x_values):
                key = tuple(
                    sorted(
                        {
                            "flash_capacity_bytes": y,
                            "loss_probability": x,
                        }.items()
                    )
                )
                assert grid.cells[iy][ix] == by_point[key]
        table = grid.to_table()
        assert "success_rate" in table and "0.05" in table and "84480" in table

    def test_grid_ambiguous_harness_rejected(self, grid_campaign):
        with pytest.raises(ValueError, match="harness"):
            grid_campaign.grid(
                "success_rate", "loss_probability", "flash_capacity_bytes"
            )

    def test_grid_unknown_metric_rejected(self, grid_campaign):
        with pytest.raises(ValueError, match="metric"):
            grid_campaign.grid(
                "made_up",
                "loss_probability",
                "flash_capacity_bytes",
                harness="single",
            )

    def test_grid_tables_renders_one_table_per_harness(self, grid_campaign):
        tables = grid_campaign.grid_tables()
        assert len(tables) == 2  # one grid scenario x both harnesses
        assert "grid/single — success_rate" in tables[0]
        assert "grid/federated — success_rate" in tables[1]

    def test_grid_without_matching_axes_rejected(self, grid_campaign):
        with pytest.raises(ValueError, match="no runs"):
            grid_campaign.grid(
                "success_rate",
                "replica_sync_interval_s",
                "flash_capacity_bytes",
                harness="single",
            )


class TestSweepTable:
    """``spec.SWEEP_TABLE`` is the one declaration of every sweep parameter."""

    #: name -> (label, sub-spec it pins, a sweep value, the field value it
    #: becomes).  Pinned literally, in table order: names are hashed into
    #: variant seeds and labels build the ``variant`` strings of committed
    #: ``BENCH_scenarios.json`` rows — a rename must fail here first.
    PINNED = {
        "flash_capacity_bytes": ("flash", "storage", 4096.0, 4096),
        "arrival_rate_per_s": ("rate", "workload", 0.01, 0.01),
        "loss_probability": ("loss", "radio", 0.4, 0.4),
        "replica_sync_interval_s": ("sync", "federation", 600.0, 600.0),
        "surge_multiplier": ("surge", "workload", 4.0, 4.0),
        "offered_qps": ("qps", "serving", 50.0, 50.0),
        "zipf_s": ("zipf", "serving", 1.2, 1.2),
        "memo_ttl_s": ("memo", "serving", 5.0, 5.0),
        "partitions": ("parts", "federation", 2.0, 2),
        "storage_policy": ("policy", "storage", 3.0, "mcf_offload"),
        "replica_coding": ("coding", "federation", 2.0, "rs"),
        "coding_n": ("n", "federation", 5.0, 5),
    }

    def test_names_and_labels_are_pinned(self):
        assert SWEEP_PARAMETERS == tuple(self.PINNED)
        for name, (label, *_) in self.PINNED.items():
            assert SWEEP_TABLE[name].label == label

    def test_every_parameter_lands_on_its_field_with_its_type(self):
        base = ScenarioSpec(name="s")
        for name, (_, section, value, expected) in self.PINNED.items():
            pinned = SWEEP_TABLE[name].apply(base, value)
            landed = getattr(getattr(pinned, section), name)
            assert landed == expected and type(landed) is type(expected), name
            untouched = dataclasses.replace(pinned, **{section: getattr(base, section)})
            assert untouched == base, name

    def test_choice_parameters_round_trip_names_and_codes(self):
        choice_rows = [row for row in SWEEP_TABLE.values() if row.choices]
        assert [row.name for row in choice_rows] == ["storage_policy", "replica_coding"]
        for row in choice_rows:
            for code, name in enumerate(row.choices, 1):
                assert row.parse(name) == row.parse(str(code)) == float(code)
                assert row.field_value(float(code)) == name
            for bad in (0.0, 1.5, len(row.choices) + 1.0):
                with pytest.raises(ValueError, match=row.name):
                    SweepAxis(parameter=row.name, values=(bad,))


def load_bench_harness():
    """Import benchmarks/_harness.py the way test_examples loads examples."""
    path = Path(__file__).parent.parent / "benchmarks" / "_harness.py"
    spec = importlib.util.spec_from_file_location("bench_harness_for_test", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestDriftCoordinateMatching:
    """--check-drift matches variant rows by coordinates, not label order."""

    def test_row_key_ignores_axis_order(self):
        bench = load_bench_harness()
        a = {
            "scenario": "g",
            "harness": "single",
            "variant": "flash=5280,loss=0.4",
            "sweep": {"flash_capacity_bytes": 5280.0, "loss_probability": 0.4},
        }
        b = {
            "scenario": "g",
            "harness": "single",
            "variant": "loss=0.4,flash=5280",
            "sweep": {"loss_probability": 0.4, "flash_capacity_bytes": 5280.0},
        }
        assert bench.row_key(a) == bench.row_key(b)

    def test_row_key_keeps_duty_cycle_tokens(self):
        bench = load_bench_harness()
        half = {"scenario": "s", "harness": "single", "variant": "lpl=0.5s"}
        eight = {"scenario": "s", "harness": "single", "variant": "lpl=8s"}
        assert bench.row_key(half) != bench.row_key(eight)

    def test_check_drift_matches_reordered_rows(self):
        bench = load_bench_harness()
        previous = {
            "rows": [
                {
                    "scenario": "g",
                    "harness": "single",
                    "variant": "loss=0.4,flash=5280",
                    "sweep": {
                        "loss_probability": 0.4,
                        "flash_capacity_bytes": 5280.0,
                    },
                    "success_rate": 0.9,
                }
            ]
        }
        matching = {
            "rows": [
                {
                    "scenario": "g",
                    "harness": "single",
                    "variant": "flash=5280,loss=0.4",
                    "sweep": {
                        "flash_capacity_bytes": 5280.0,
                        "loss_probability": 0.4,
                    },
                    "success_rate": 0.89,
                }
            ]
        }
        assert bench.check_campaign_drift(matching, previous, tolerance=0.05) == []
        regressed = json.loads(json.dumps(matching))
        regressed["rows"][0]["success_rate"] = 0.5
        failures = bench.check_campaign_drift(regressed, previous, tolerance=0.05)
        assert len(failures) == 1 and "fell" in failures[0]

    def test_check_drift_flags_missing_coordinates(self):
        bench = load_bench_harness()
        previous = {
            "rows": [
                {
                    "scenario": "g",
                    "harness": "single",
                    "variant": "flash=5280",
                    "sweep": {"flash_capacity_bytes": 5280.0},
                    "success_rate": 0.9,
                }
            ]
        }
        record = {"rows": []}
        failures = bench.check_campaign_drift(record, previous, tolerance=0.05)
        assert len(failures) == 1 and "missing" in failures[0]


class TestSurgeShaping:
    def _queries(self, workload):
        runner = CampaignRunner(small_config())
        spec = ScenarioSpec(name="surge", workload=workload)
        _, trace, _ = runner._build_trace(spec)
        return runner, spec, runner._generate_queries(
            spec, trace, None, runner.variant_seed(spec.name, "single")
        )

    def test_ramp_profile_densifies_the_window_tail(self):
        runner, _, queries = self._queries(
            WorkloadSpec(
                arrival_rate_per_s=1 / 40.0,
                surge_multiplier=8.0,
                surge_start_fraction=0.4,
                surge_duration_fraction=0.4,
                surge_profile="ramp",
            )
        )
        duration = runner.config.duration_s
        times = [q.arrival_time for q in queries]
        first_half = sum(1 for t in times if 0.4 * duration <= t < 0.6 * duration)
        second_half = sum(1 for t in times if 0.6 * duration <= t < 0.8 * duration)
        assert second_half > 1.5 * first_half

    def test_decay_profile_densifies_the_window_head(self):
        runner, _, queries = self._queries(
            WorkloadSpec(
                arrival_rate_per_s=1 / 40.0,
                surge_multiplier=8.0,
                surge_start_fraction=0.4,
                surge_duration_fraction=0.4,
                surge_profile="decay",
            )
        )
        duration = runner.config.duration_s
        times = [q.arrival_time for q in queries]
        first_half = sum(1 for t in times if 0.4 * duration <= t < 0.6 * duration)
        second_half = sum(1 for t in times if 0.6 * duration <= t < 0.8 * duration)
        assert first_half > 1.5 * second_half

    def test_shaped_stream_stays_ordered_with_unique_ids(self):
        _, _, queries = self._queries(
            WorkloadSpec(
                arrival_rate_per_s=1 / 60.0,
                surge_multiplier=6.0,
                surge_profile="ramp",
            )
        )
        times = [q.arrival_time for q in queries]
        assert times == sorted(times)
        ids = [q.query_id for q in queries]
        assert ids == list(range(len(ids)))

    def test_hotspot_reskew_concentrates_surge_traffic(self):
        runner, _, flat = self._queries(
            WorkloadSpec(
                arrival_rate_per_s=1 / 40.0,
                surge_multiplier=8.0,
                surge_start_fraction=0.4,
                surge_duration_fraction=0.4,
            )
        )
        _, _, skewed = self._queries(
            WorkloadSpec(
                arrival_rate_per_s=1 / 40.0,
                surge_multiplier=8.0,
                surge_start_fraction=0.4,
                surge_duration_fraction=0.4,
                surge_hotspot_zipf=6.0,
            )
        )
        duration = runner.config.duration_s

        def hot_fraction(queries):
            window = [
                q
                for q in queries
                if 0.4 * duration <= q.arrival_time < 0.8 * duration
            ]
            return sum(1 for q in window if q.sensor == 0) / len(window)

        assert hot_fraction(skewed) > hot_fraction(flat) + 0.1


class TestFederationRegimePlumbing:
    def test_spec_override_reaches_federation_config(self):
        from repro.core import FederationConfig

        runner = CampaignRunner(small_config())
        pinned = ScenarioSpec(
            name="x",
            federation=FederationRegime(replica_sync_interval_s=123.0),
        )
        assert runner._federation_config(pinned).replica_sync_interval_s == 123.0
        default = runner._federation_config(ScenarioSpec(name="y"))
        assert (
            default.replica_sync_interval_s
            == FederationConfig().replica_sync_interval_s
        )
