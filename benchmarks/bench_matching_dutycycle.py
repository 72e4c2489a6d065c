"""Section 3 ablation — query-sensor matching of the radio duty cycle.

"If it is known that the worst case notification latency for typical
queries is 10 minutes, the proxy can instruct remote sensors to set its
radio duty-cycling parameters accordingly in order to conserve energy."

This bench sweeps the workload's latency bound and reports the operating
point the matcher derives and the resulting idle-listening energy.

Expected shape: sensor energy per day falls steeply (≈1/latency) as the
bound relaxes, until the check-interval cap; query latency stays within
the bound throughout (pulls wait at most one check interval).
"""

from __future__ import annotations

import numpy as np
import pytest

from conftest import bench_scale, format_table, write_result
from repro.core import PrestoConfig, PrestoSystem
from repro.core.matching import QuerySensorMatcher
from repro.energy.constants import MICA2_RADIO
from repro.energy.duty_cycle import DutyCycleConfig, lpl_average_power
from repro.traces.intel_lab import IntelLabConfig, IntelLabGenerator
from repro.traces.workload import QueryWorkloadConfig, QueryWorkloadGenerator

LATENCY_BOUNDS_S = (2.0, 10.0, 60.0, 600.0, 3600.0)


def _trace():
    scale = bench_scale()
    n_sensors = 8 if scale == "paper" else 4
    days = 2.0 if scale == "paper" else 1.0
    config = IntelLabConfig(
        n_sensors=n_sensors, duration_s=days * 86_400.0, epoch_s=31.0
    )
    return IntelLabGenerator(config, seed=51).generate()


@pytest.fixture(scope="module")
def trace():
    return _trace()


def run_bound(trace, latency_bound):
    workload = QueryWorkloadGenerator(
        trace.n_sensors,
        QueryWorkloadConfig(
            arrival_rate_per_s=1 / 300.0, latency_bound_s=latency_bound
        ),
        np.random.default_rng(52),
    )
    queries = workload.generate(1800.0, trace.config.duration_s)
    config = PrestoConfig(
        sample_period_s=31.0,
        refit_interval_s=6 * 3600.0,
        min_training_epochs=256,
        retune_interval_s=1800.0,
    )
    report = PrestoSystem(trace, config, seed=53).run(queries=queries)
    days = report.duration_s / 86_400.0
    check_interval = QuerySensorMatcher.check_interval_for_latency(latency_bound)
    return {
        "check_interval_s": check_interval,
        "energy_per_day": report.sensor_energy_per_day_j,
        "lpl_per_day": report.sensor_energy_by_category.get("radio.lpl", 0.0)
        / report.n_sensors
        / days,
        "met_latency": float(
            np.mean([a.met_latency for a in report.answers]) if report.answers else 1.0
        ),
        "mean_latency_ms": report.mean_latency_s * 1000,
    }


class TestMatchingDutyCycle:
    def test_latency_bound_sweep(self, trace):
        rows = []
        results = {}
        for bound in LATENCY_BOUNDS_S:
            result = run_bound(trace, bound)
            results[bound] = result
            rows.append(
                [
                    f"{bound:g}",
                    f"{result['check_interval_s']:.2f}",
                    f"{result['lpl_per_day']:.2f}",
                    f"{result['energy_per_day']:.2f}",
                    f"{result['mean_latency_ms']:.1f}",
                    f"{100 * result['met_latency']:.0f}%",
                ]
            )
        title = (
            f"Query-sensor matching: duty cycle from latency bound "
            f"({trace.n_sensors} sensors, {trace.config.duration_s / 86_400:.0f} days)"
        )
        write_result(
            "matching_dutycycle",
            format_table(
                [
                    "latency bound (s)",
                    "check interval (s)",
                    "LPL E/day (J)",
                    "total E/day (J)",
                    "mean latency (ms)",
                    "bound met",
                ],
                rows,
                title,
            ),
        )
        # idle-listening energy falls monotonically with the bound
        lpl = [results[b]["lpl_per_day"] for b in LATENCY_BOUNDS_S]
        assert all(a >= b * 0.999 for a, b in zip(lpl, lpl[1:]))
        # the 10-minute example from the paper: ~10x cheaper idle than 2 s
        assert results[600.0]["lpl_per_day"] < results[2.0]["lpl_per_day"] / 5
        # latency bounds are honoured
        for bound in LATENCY_BOUNDS_S:
            assert results[bound]["met_latency"] > 0.95

    def test_analytic_idle_power_curve(self):
        """Pure-model check of the 1/interval idle-power law."""
        rows = []
        previous = None
        for bound in LATENCY_BOUNDS_S:
            interval = QuerySensorMatcher.check_interval_for_latency(bound)
            power_mw = (
                lpl_average_power(MICA2_RADIO, DutyCycleConfig(interval)) * 1e3
            )
            rows.append([f"{bound:g}", f"{interval:.2f}", f"{power_mw:.4f}"])
            if previous is not None:
                assert power_mw <= previous * 1.001
            previous = power_mw
        write_result(
            "matching_idle_power",
            format_table(
                ["latency bound (s)", "check interval (s)", "idle power (mW)"],
                rows,
                "Idle radio power vs matched check interval (Mica2/CC1000)",
            ),
        )

    def test_benchmark_one_bound(self, benchmark, trace):
        result = benchmark.pedantic(
            run_bound, args=(trace, 600.0), rounds=1, iterations=1
        )
        assert result["met_latency"] > 0.9
