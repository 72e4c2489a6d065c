"""Section 3 ablation — model-driven push vs model family and delta.

The paper claims model-driven push (a) suppresses predictable traffic and
(b) never misses rare events.  This bench sweeps the model family and the
push threshold Δ and reports, for each point: the push fraction (traffic),
the sensor energy, and the detection rate of injected rare events.

Expected shape: differenced ARIMA ≪ AR < Markov < seasonal in push traffic
on front-dominated data; event detection stays ~100% for every model at
Δ ≤ half the event magnitude (pushes fire exactly when the model breaks).
"""

from __future__ import annotations

import numpy as np
import pytest

from conftest import bench_scale, format_table, write_result
from repro.core import PrestoConfig, PrestoSystem
from repro.core.cache import EntrySource
from repro.traces.events import inject_events
from repro.traces.intel_lab import IntelLabConfig, IntelLabGenerator

EVENT_MAGNITUDE = 6.0
EVENT_EPOCHS = 20


def _traced_events():
    scale = bench_scale()
    n_sensors = 8 if scale == "paper" else 4
    days = 4.0 if scale == "paper" else 2.0
    config = IntelLabConfig(
        n_sensors=n_sensors,
        duration_s=days * 86_400.0,
        epoch_s=31.0,
        spike_rate_per_day=0.0,  # injected events are the only anomalies
    )
    base = IntelLabGenerator(config, seed=31).generate()
    return inject_events(
        base,
        np.random.default_rng(32),
        rate_per_sensor_day=1.0,
        magnitude=EVENT_MAGNITUDE,
        duration_epochs=EVENT_EPOCHS,
    )


@pytest.fixture(scope="module")
def traced_events():
    return _traced_events()


def run_point(trace, events, model_kind, delta):
    """One sweep point: returns (push_fraction, energy/day, detection)."""
    config = PrestoConfig(
        sample_period_s=31.0,
        model_kind=model_kind,
        push_delta=delta,
        refit_interval_s=6 * 3600.0,
        min_training_epochs=256,
        retune_interval_s=1e12,  # hold delta fixed: no matcher interference
    )
    system = PrestoSystem(trace, config, seed=33)
    report = system.run()
    total_samples = report.n_sensors * trace.n_epochs
    push_fraction = (report.pushes + report.cold_pushes) / total_samples
    energy_per_day = report.sensor_energy_per_day_j

    detected = 0
    considered = 0
    period = config.sample_period_s
    for event in events:
        onset = event.start_epoch * period
        if onset > report.duration_s - EVENT_EPOCHS * period:
            continue
        considered += 1
        # detected if any PUSHED cache entry lands inside the event span
        entries = system.proxy.cache.entries_in(
            event.sensor, onset, onset + EVENT_EPOCHS * period
        )
        if any(e.source is EntrySource.PUSHED for e in entries):
            detected += 1
    detection = detected / considered if considered else 1.0
    return push_fraction, energy_per_day, detection


class TestPushAblation:
    def test_model_family_and_delta_sweep(self, traced_events):
        trace, events = traced_events
        rows = []
        results = {}
        for model_kind in ("arima", "ar", "seasonal", "markov"):
            for delta in (0.5, 1.0, 2.0):
                push_fraction, energy, detection = run_point(
                    trace, events, model_kind, delta
                )
                results[(model_kind, delta)] = (push_fraction, energy, detection)
                rows.append(
                    [
                        model_kind,
                        f"{delta:g}",
                        f"{100 * push_fraction:.1f}%",
                        f"{energy:.2f}",
                        f"{100 * detection:.0f}%",
                    ]
                )
        title = (
            f"Model-driven push ablation ({trace.n_sensors} sensors, "
            f"{trace.config.duration_s / 86_400:.0f} days, "
            f"{len(events)} injected events of {EVENT_MAGNITUDE:g}C)"
        )
        write_result(
            "push_ablation",
            format_table(
                ["model", "delta", "push frac", "E/day (J)", "event detection"],
                rows,
                title,
            ),
        )

        # paper claim 1: larger delta -> less traffic, for every model
        for model_kind in ("arima", "ar", "seasonal", "markov"):
            fractions = [results[(model_kind, d)][0] for d in (0.5, 1.0, 2.0)]
            assert fractions[0] >= fractions[1] >= fractions[2]
        # paper claim 2: rare events are essentially never missed at
        # delta well below the event magnitude
        for model_kind in ("arima", "ar"):
            for delta in (0.5, 1.0, 2.0):
                assert results[(model_kind, delta)][2] > 0.9
        # the differenced model tracks fronts that break the static profile
        assert results[("arima", 1.0)][0] < results[("seasonal", 1.0)][0]

    def test_benchmark_one_point(self, benchmark, traced_events):
        trace, events = traced_events
        result = benchmark.pedantic(
            run_point, args=(trace, events, "arima", 1.0), rounds=1, iterations=1
        )
        assert result[2] > 0.9
