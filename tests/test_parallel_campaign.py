"""Parallel campaign execution: equivalence, seeds, pickling, failure.

The contract under test: ``CampaignRunner.run(jobs=N)`` produces a
``CampaignReport`` whose rows are byte-identical to the serial run (only
the wall-clock timing fields may differ), because every variant seeds its
randomness from :meth:`CampaignRunner.variant_seed` — a pure function of
the variant's identity, never of where or when it executes.
"""

import math
import pickle

import pytest

from repro.scenarios import (
    CampaignConfig,
    CampaignRunner,
    ProxyFault,
    RadioRegime,
    ScenarioSpec,
    SweepAxis,
    builtin_scenarios,
)
from repro.simulation import pool as pool_module


def small_config(**overrides):
    """Campaign sizing small enough for unit tests."""
    defaults = dict(
        n_sensors=4,
        duration_days=0.1,
        seed=3,
        n_proxies=2,
        arrival_rate_per_s=1 / 400.0,
    )
    defaults.update(overrides)
    return CampaignConfig(**defaults)


def tiny_campaign_specs():
    """A small but representative matrix: plain, gridded, duty-cycled."""
    return [
        ScenarioSpec(name="plain"),
        ScenarioSpec(
            name="gridded",
            sweep=[
                SweepAxis("flash_capacity_bytes", (84480, 5280)),
                SweepAxis("loss_probability", (0.05, 0.3)),
            ],
        ),
        ScenarioSpec(
            name="cycled",
            radio=RadioRegime(duty_cycle_points=(1.0, 4.0)),
        ),
    ]


def comparable_row(result):
    """A result's row minus the only field allowed to differ: timing."""
    row = result.row()
    row.pop("wall_clock_s")
    return row


def rows_equal(a, b):
    """NaN-tolerant equality over row dicts."""
    if isinstance(a, float) and isinstance(b, float):
        return (math.isnan(a) and math.isnan(b)) or a == b
    if isinstance(a, dict):
        return set(a) == set(b) and all(rows_equal(a[k], b[k]) for k in a)
    return a == b


class TestJobsResolution:
    def test_default_is_serial(self):
        runner = CampaignRunner(small_config())
        assert runner.resolve_jobs() == 1
        assert runner.resolve_jobs(None) == 1

    def test_zero_means_all_cores(self):
        import os

        runner = CampaignRunner(small_config())
        assert runner.resolve_jobs(0) == (os.cpu_count() or 1)

    def test_explicit_count_wins_over_config(self):
        runner = CampaignRunner(small_config())
        assert runner.resolve_jobs(2) == 2

    def test_negative_jobs_rejected(self):
        runner = CampaignRunner(small_config())
        with pytest.raises(ValueError):
            runner.resolve_jobs(-1)


class TestVariantSeed:
    def test_stable_across_runner_instances(self):
        a = CampaignRunner(small_config())
        b = CampaignRunner(small_config())
        seed = a.variant_seed(
            "x", "single", {"loss_probability": 0.1}, duty_cycle_point=2.0
        )
        assert seed == b.variant_seed(
            "x", "single", {"loss_probability": 0.1}, duty_cycle_point=2.0
        )

    def test_canonicalises_coordinate_order_and_type(self):
        runner = CampaignRunner(small_config())
        forward = {"flash_capacity_bytes": 84480, "loss_probability": 0.05}
        reverse = {"loss_probability": 0.05, "flash_capacity_bytes": 84480.0}
        assert runner.variant_seed("x", "single", forward) == runner.variant_seed(
            "x", "single", reverse
        )

    def test_distinct_per_variant(self):
        runner = CampaignRunner(small_config())
        seeds = {
            runner.variant_seed("x", "single"),
            runner.variant_seed("x", "federated"),
            runner.variant_seed("y", "single"),
            runner.variant_seed("x", "single", {"loss_probability": 0.1}),
            runner.variant_seed("x", "single", duty_cycle_point=2.0),
        }
        assert len(seeds) == 5

    def test_campaign_seed_feeds_the_hash(self):
        assert CampaignRunner(small_config(seed=3)).variant_seed(
            "x", "single"
        ) != CampaignRunner(small_config(seed=4)).variant_seed("x", "single")


class TestParallelSerialEquivalence:
    @pytest.fixture(scope="class")
    def reports(self):
        runner = CampaignRunner(small_config())
        specs = tiny_campaign_specs()
        return runner.run(specs), runner.run(specs, jobs=2)

    def test_same_rows_in_same_order(self, reports):
        serial, parallel = reports
        assert parallel.jobs == 2
        assert len(serial.results) == len(parallel.results)
        for s, p in zip(serial.results, parallel.results):
            assert rows_equal(comparable_row(s), comparable_row(p)), s.label

    def test_run_one_matches_campaign_row(self, reports):
        """A variant run alone reproduces its campaign row exactly."""
        serial, _ = reports
        runner = CampaignRunner(small_config())
        target = next(
            r
            for r in serial.results
            if r.scenario == "gridded" and r.harness == "federated"
        )
        alone = runner.run_one(
            tiny_campaign_specs()[1],
            "federated",
            sweep_point=dict(target.sweep_point),
        )
        assert rows_equal(comparable_row(alone), comparable_row(target))

    def test_timing_fields_populated(self, reports):
        serial, parallel = reports
        for report in (serial, parallel):
            assert report.wall_clock_s > 0
            assert all(r.wall_clock_s > 0 for r in report.results)
            assert report.variant_wall_clock_s == pytest.approx(
                sum(r.wall_clock_s for r in report.results)
            )
        assert serial.jobs == 1


class TestGridFixSlicing:
    @pytest.fixture(scope="class")
    def cube_report(self):
        """A 3-axis grid campaign: 2 x 2 x 2 sweep cube, one harness."""
        config = small_config(harnesses=("single",))
        spec = ScenarioSpec(
            name="cube",
            sweep=[
                SweepAxis("flash_capacity_bytes", (84480, 5280)),
                SweepAxis("loss_probability", (0.05, 0.3)),
                SweepAxis("surge_multiplier", (1.0, 4.0)),
            ],
        )
        return CampaignRunner(config).run([spec])

    def test_unsliced_cube_is_ambiguous(self, cube_report):
        with pytest.raises(ValueError, match="duplicate grid point"):
            cube_report.grid(
                "success_rate", "loss_probability", "flash_capacity_bytes"
            )

    def test_fix_slices_the_left_out_axis(self, cube_report):
        grid = cube_report.grid(
            "success_rate",
            "loss_probability",
            "flash_capacity_bytes",
            fix={"surge_multiplier": 1.0},
        )
        assert grid.x_values == (0.05, 0.3)
        assert grid.y_values == (84480.0, 5280.0)
        assert all(cell is not None for row in grid.cells for cell in row)
        other = cube_report.grid(
            "success_rate",
            "loss_probability",
            "flash_capacity_bytes",
            fix={"surge_multiplier": 4.0},
        )
        assert other.x_values == grid.x_values

    def test_fix_of_a_chart_axis_rejected(self, cube_report):
        with pytest.raises(ValueError, match="chart axes"):
            cube_report.grid(
                "success_rate",
                "loss_probability",
                "flash_capacity_bytes",
                fix={"loss_probability": 0.05},
            )

    def test_fix_at_a_missing_value_has_no_runs(self, cube_report):
        with pytest.raises(ValueError, match="no runs"):
            cube_report.grid(
                "success_rate",
                "loss_probability",
                "flash_capacity_bytes",
                fix={"surge_multiplier": 99.0},
            )


class TestWorkItems:
    def test_flattening_order_is_the_campaign_order(self):
        runner = CampaignRunner(small_config())
        items = runner.work_items(tiny_campaign_specs())
        # plain: 2 harnesses; gridded: 2x2x2; cycled: 2x2 = 14 items, with
        # scenario outermost, then harness, sweep point and duty-cycle point
        assert [item.label for item in items] == [
            "plain/single",
            "plain/federated",
            "gridded/single [flash=84480,loss=0.05]",
            "gridded/single [flash=84480,loss=0.3]",
            "gridded/single [flash=5280,loss=0.05]",
            "gridded/single [flash=5280,loss=0.3]",
            "gridded/federated [flash=84480,loss=0.05]",
            "gridded/federated [flash=84480,loss=0.3]",
            "gridded/federated [flash=5280,loss=0.05]",
            "gridded/federated [flash=5280,loss=0.3]",
            "cycled/single [lpl=1s]",
            "cycled/single [lpl=4s]",
            "cycled/federated [lpl=1s]",
            "cycled/federated [lpl=4s]",
        ]

    def test_work_items_pickle(self):
        runner = CampaignRunner(small_config())
        for item in runner.work_items(tiny_campaign_specs()):
            assert pickle.loads(pickle.dumps(item)) == item


class TestPickleRoundTrips:
    def test_every_builtin_spec_round_trips(self):
        for name, spec in builtin_scenarios().items():
            assert pickle.loads(pickle.dumps(spec)) == spec, name

    def test_prepared_trace_and_result_round_trip(self):
        import numpy as np

        runner = CampaignRunner(small_config())
        spec = builtin_scenarios()["event storm"]
        prepared = runner._build_trace(spec)
        base, trace, events = pickle.loads(pickle.dumps(prepared))
        np.testing.assert_array_equal(trace.values, prepared[1].values)
        assert events == prepared[2]
        result = runner.run_one(spec, "single", _prepared=prepared)
        clone = pickle.loads(pickle.dumps(result))
        assert rows_equal(comparable_row(clone), comparable_row(result))


class TestPreparedTraceIsReadOnly:
    def test_build_trace_freezes_arrays(self):
        runner = CampaignRunner(small_config())
        for spec in (
            ScenarioSpec(name="plain"),
            builtin_scenarios()["event storm"],
        ):
            base, trace, _ = runner._build_trace(spec)
            for array in (base.values, trace.values, trace.timestamps):
                assert not array.flags.writeable
                with pytest.raises(ValueError):
                    array[...] = 0.0

    def test_campaign_runs_on_frozen_traces(self):
        """No simulation path writes into the shared trace arrays."""
        runner = CampaignRunner(small_config())
        report = runner.run([ScenarioSpec(name="plain")])
        assert len(report.results) == 2


class TestPoolFailure:
    """A failing variant fails the campaign the same way at every ``jobs``."""

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_invalid_variant_raises_value_error_naming_it(self, jobs):
        """A bad spec stays bad input (what the CLI reports), never a slow pass."""
        runner = CampaignRunner(small_config())
        # proxy index 9 of 2: the federated variant raises while arming faults
        bad = ScenarioSpec(name="bad", faults=[ProxyFault(proxy_index=9)])
        with pytest.raises(ValueError, match=r"variant bad/federated: .*out of range"):
            runner.run([ScenarioSpec(name="plain"), bad], jobs=jobs)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_crashing_variant_is_named(self, jobs, monkeypatch):
        original = CampaignRunner._generate_queries

        def crash(runner, spec, *args):
            if spec.name == "bad":
                raise KeyError("boom")
            return original(runner, spec, *args)

        monkeypatch.setattr(CampaignRunner, "_generate_queries", crash)
        runner = CampaignRunner(small_config(harnesses=("single",)))
        specs = [ScenarioSpec(name="plain"), ScenarioSpec(name="bad")]
        with pytest.raises(
            RuntimeError, match=r"campaign variant bad/single failed: KeyError\('boom'\)"
        ):
            runner.run(specs, jobs=jobs)

    def test_pool_that_cannot_start_fails_the_campaign(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise OSError("no processes for you")

        monkeypatch.setattr(pool_module, "ProcessPoolExecutor", no_pool)
        runner = CampaignRunner(small_config())
        with pytest.raises(OSError, match="no processes for you"):
            runner.run([ScenarioSpec(name="plain")], jobs=2)
