"""Integration tests: the full PRESTO cell over a trace + workload."""

import numpy as np
import pytest

from repro.core import PrestoConfig, PrestoSystem
from repro.energy.constants import TELOS_PROFILE
from repro.radio.link import LinkConfig
from repro.sync.clock import ClockModel
from repro.traces.workload import QueryWorkloadConfig, QueryWorkloadGenerator


@pytest.fixture(scope="module")
def run_result(two_day_trace):
    config = PrestoConfig(
        sample_period_s=31.0,
        refit_interval_s=6 * 3600.0,
        min_training_epochs=256,
    )
    workload = QueryWorkloadGenerator(
        two_day_trace.n_sensors,
        QueryWorkloadConfig(arrival_rate_per_s=1 / 240.0),
        np.random.default_rng(3),
    )
    queries = workload.generate(3600.0, two_day_trace.config.duration_s)
    system = PrestoSystem(two_day_trace, config, seed=3)
    report = system.run(queries=queries)
    return system, report, queries


class TestEndToEnd:
    def test_all_queries_answered(self, run_result):
        _, report, queries = run_result
        assert len(report.answers) == len(queries)
        assert report.answered_fraction > 0.99

    def test_success_rate_high(self, run_result):
        _, report, _ = run_result
        assert report.success_rate > 0.9

    def test_interactive_latency(self, run_result):
        """The headline claim: proxy answers are interactive (~ms), never
        gated on duty-cycled sensors in the common case."""
        _, report, _ = run_result
        assert report.mean_latency_s < 0.5
        assert report.p95_latency_s < 2.0

    def test_energy_far_below_streaming(self, run_result):
        """PRESTO must transmit far fewer readings than it samples."""
        system, report, _ = run_result
        total_samples = report.n_sensors * system.trace.n_epochs
        transmitted = report.pushes + report.cold_pushes
        assert transmitted < 0.5 * total_samples

    def test_mean_error_within_tolerance(self, run_result):
        _, report, _ = run_result
        assert report.mean_error < 0.5

    def test_answers_come_mostly_from_proxy(self, run_result):
        _, report, _ = run_result
        mix = report.answer_mix()
        local = mix.get("cache", 0) + mix.get("prediction", 0) + mix.get("spatial", 0)
        assert local / len(report.answers) > 0.9

    def test_energy_breakdown_radio_dominated(self, run_result):
        """Radio must dominate sensor energy — the premise of the paper."""
        _, report, _ = run_result
        radio = sum(
            joules
            for category, joules in report.sensor_energy_by_category.items()
            if category.startswith("radio")
        )
        assert radio > 0.8 * report.sensor_energy_j

    def test_archives_hold_everything(self, run_result):
        system, _, _ = run_result
        for sensor in system.sensors:
            archived = sensor.archive.readings_archived
            buffered = len(sensor.archive._buffer_values)
            assert archived + buffered == sensor.samples_taken
            assert sensor.archive.readings_dropped == 0

    def test_models_got_fitted(self, run_result):
        _, report, _ = run_result
        assert report.model_refits >= report.n_sensors

    def test_report_summary_keys(self, run_result):
        _, report, _ = run_result
        summary = report.summary()
        for key in ("sensor_energy_j", "mean_latency_s", "success_rate"):
            assert key in summary


class TestEmptyReport:
    def test_no_queries_is_nan_not_perfect(self, small_trace):
        """A run without queries has no evidence of query success — the
        derived rates must be NaN, not a perfect 1.0."""
        config = PrestoConfig(
            sample_period_s=31.0,
            refit_interval_s=6 * 3600.0,
            min_training_epochs=128,
        )
        report = PrestoSystem(small_trace, config, seed=11).run(
            duration_s=2 * 3600.0
        )
        assert np.isnan(report.answered_fraction)
        assert np.isnan(report.success_rate)
        summary = report.summary()
        assert np.isnan(summary["answered_fraction"])
        assert np.isnan(summary["success_rate"])
        # latency/error defaults stay 0.0 (sums, not rates)
        assert report.mean_latency_s == 0.0
        assert report.mean_error == 0.0


class TestNodeProfile:
    def test_telos_platform_reprices_the_ledger(self, small_trace):
        """The no-query case above on the other platform ``PrestoConfig``
        can name: same protocol, different joules, ledger still closed."""

        def run(**platform):
            config = PrestoConfig(
                sample_period_s=31.0,
                refit_interval_s=6 * 3600.0,
                min_training_epochs=128,
                **platform,
            )
            system = PrestoSystem(small_trace, config, seed=11)
            return system, system.run(duration_s=6 * 3600.0)

        _, mica2 = run()
        system, telos = run(node_profile=TELOS_PROFILE)
        assert telos.pushes + telos.cold_pushes > 0
        assert set(telos.sensor_energy_by_category) == set(
            mica2.sensor_energy_by_category
        )
        for category, joules in mica2.sensor_energy_by_category.items():
            assert telos.sensor_energy_by_category[category] != joules, category
        meter_total = sum(sensor.meter.total_j for sensor in system.sensors)
        assert meter_total == pytest.approx(telos.sensor_energy_j, rel=1e-12)
        assert sum(telos.sensor_energy_by_category.values()) == pytest.approx(
            meter_total, rel=1e-12
        )


class TestLossyLinks:
    def test_survives_heavy_loss(self, small_trace):
        config = PrestoConfig(
            sample_period_s=31.0,
            refit_interval_s=3 * 3600.0,
            min_training_epochs=128,
            link=LinkConfig(loss_probability=0.3),
        )
        workload = QueryWorkloadGenerator(
            small_trace.n_sensors,
            QueryWorkloadConfig(arrival_rate_per_s=1 / 600.0),
            np.random.default_rng(5),
        )
        queries = workload.generate(3600.0, small_trace.config.duration_s)
        report = PrestoSystem(small_trace, config, seed=5).run(queries=queries)
        assert report.delivery_ratio > 0.95  # ARQ recovers
        assert report.success_rate > 0.6


class TestLinkChangeTime:
    @pytest.mark.parametrize("at_s", [float("nan"), -5.0, float("inf")])
    def test_bad_time_rejected(self, small_trace, at_s):
        system = PrestoSystem(small_trace, PrestoConfig(sample_period_s=31.0), seed=5)
        with pytest.raises(ValueError, match="event time"):
            system.schedule_link_change(at_s, LinkConfig(loss_probability=0.9))


class TestConfigRejectsNonFinite:
    """A NaN or infinite float knob is refused where it is given: before,
    ``push_delta=nan`` silently stopped every push, ``batch_interval_s=nan``
    acted as 0 and a NaN period or refit interval failed mid-run."""

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize(
        "field",
        [
            "sample_period_s",
            "push_delta",
            "batch_interval_s",
            "refit_interval_s",
            "retune_interval_s",
            "default_check_interval_s",
        ],
    )
    def test_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            PrestoConfig(**{field: value})


class TestClockedSensors:
    def test_sync_corrects_timestamps(self, small_trace):
        config = PrestoConfig(
            sample_period_s=31.0,
            refit_interval_s=3 * 3600.0,
            min_training_epochs=128,
        )
        system = PrestoSystem(
            small_trace,
            config,
            seed=6,
            clock_model=ClockModel(offset_std_s=2.0, skew_ppm_std=100.0),
        )
        system.run()
        # after a day of pushes, every sensor that pushed has an estimate
        for sensor in system.sensors:
            estimate = system.proxy.sync.estimate_for(sensor.name)
            if estimate is not None:
                true_skew = sensor.clock.skew
                assert estimate.rate - 1.0 == pytest.approx(true_skew, abs=5e-5)


class TestDeterminism:
    def test_same_seed_same_report(self, small_trace):
        config = PrestoConfig(
            sample_period_s=31.0,
            refit_interval_s=6 * 3600.0,
            min_training_epochs=128,
        )
        workload_a = QueryWorkloadGenerator(
            small_trace.n_sensors,
            QueryWorkloadConfig(arrival_rate_per_s=1 / 900.0),
            np.random.default_rng(7),
        )
        queries_a = workload_a.generate(0.0, small_trace.config.duration_s)
        report_a = PrestoSystem(small_trace, config, seed=9).run(queries=queries_a)

        workload_b = QueryWorkloadGenerator(
            small_trace.n_sensors,
            QueryWorkloadConfig(arrival_rate_per_s=1 / 900.0),
            np.random.default_rng(7),
        )
        queries_b = workload_b.generate(0.0, small_trace.config.duration_s)
        report_b = PrestoSystem(small_trace, config, seed=9).run(queries=queries_b)

        assert report_a.sensor_energy_j == pytest.approx(report_b.sensor_energy_j)
        assert report_a.pushes == report_b.pushes
        assert [a.value for a in report_a.answers] == [
            a.value for a in report_b.answers
        ]
