"""Section 4 ablation — graceful aging under storage pressure.

"If storage is constrained on each sensor, graceful aging of archived data
can be enabled using wavelet-based multi-resolution techniques [10]."

This bench shrinks the sensor flash and reports what happens to archived
history: how much of the time span stays covered, at what resolution, and
with what reconstruction error — versus the naive alternative (evict the
oldest data outright).

Expected shape: with aging, coverage stays near 100% while RMS error grows
gently as capacity shrinks; without aging (eviction only), error stays zero
but coverage collapses linearly with capacity.
"""

from __future__ import annotations

import numpy as np
import pytest

from conftest import bench_scale, format_table, write_result
from repro.energy.constants import MICA2_FLASH
from repro.energy.meter import EnergyMeter
from repro.storage.aging import AgingPolicy
from repro.storage.archive import BYTES_PER_READING, SensorArchive
from repro.storage.flash import FlashDevice
from repro.traces.intel_lab import IntelLabConfig, IntelLabGenerator


def _series():
    scale = bench_scale()
    days = 8.0 if scale == "paper" else 3.0
    config = IntelLabConfig(n_sensors=1, duration_s=days * 86_400.0, epoch_s=31.0)
    trace = IntelLabGenerator(config, seed=61).generate()
    return trace.timestamps, trace.values[0]


@pytest.fixture(scope="module")
def series():
    return _series()


def run_capacity(series, capacity_fraction, max_level):
    """Archive a series into flash sized to a fraction of the raw bytes."""
    timestamps, values = series
    raw_bytes = values.size * BYTES_PER_READING
    capacity = max(int(raw_bytes * capacity_fraction), MICA2_FLASH.page_bytes * 4)
    meter = EnergyMeter("sensor")
    flash = FlashDevice(MICA2_FLASH, meter, capacity_bytes=capacity)
    # 1024-reading segments (8 KB ~ 31 pages) so page rounding still leaves
    # aging room down to level 4 (2 pages)
    archive = SensorArchive(
        flash,
        segment_readings=1024,
        aging_policy=AgingPolicy(max_level=max_level),
    )
    for t, v in zip(timestamps, values):
        archive.append(float(t), float(v))
    archive.flush()

    covered, errors = 0, []
    span = archive.coverage
    read_t, read_v, worst = archive.read_range(timestamps[0], timestamps[-1])
    if read_t.size:
        # coverage: fraction of epochs with a reconstructable value
        covered = read_t.size / values.size
        truth_idx = np.clip(
            np.round(read_t / 31.0).astype(int), 0, values.size - 1
        )
        errors = np.abs(read_v - values[truth_idx])
    return {
        "coverage": covered,
        "rms_error": float(np.sqrt(np.mean(np.square(errors)))) if len(errors) else 0.0,
        "worst_level": worst,
        "evictions": archive.aging_policy.evictions,
        "flash_j": meter.group_j("flash"),
    }


FRACTIONS = (1.2, 0.6, 0.3, 0.15, 0.075)


class TestAgingBench:
    def test_capacity_sweep_with_aging(self, series):
        rows = []
        aged_results = {}
        evict_results = {}
        for fraction in FRACTIONS:
            aged = run_capacity(series, fraction, max_level=4)
            evict = run_capacity(series, fraction, max_level=1)
            aged_results[fraction] = aged
            evict_results[fraction] = evict
            rows.append(
                [
                    f"{100 * fraction:.1f}%",
                    f"{100 * aged['coverage']:.1f}%",
                    f"{aged['rms_error']:.3f}",
                    f"L{aged['worst_level']}",
                    f"{100 * evict['coverage']:.1f}%",
                    f"{evict['rms_error']:.3f}",
                ]
            )
        title = (
            "Graceful aging vs eviction under storage pressure "
            f"({series[1].size} readings, 1024-reading segments)"
        )
        write_result(
            "aging_capacity",
            format_table(
                [
                    "capacity/raw",
                    "aged coverage",
                    "aged RMS (C)",
                    "worst res",
                    "evict coverage",
                    "evict RMS (C)",
                ],
                rows,
                title,
            ),
        )
        # with ample capacity both are lossless
        assert aged_results[1.2]["rms_error"] < 0.01
        assert aged_results[1.2]["coverage"] > 0.99
        # under pressure, aging keeps (much) more history than eviction
        for fraction in (0.3, 0.15):
            assert aged_results[fraction]["coverage"] > \
                evict_results[fraction]["coverage"]
        # error grows gently and monotonically-ish with pressure
        assert aged_results[0.075]["rms_error"] >= aged_results[1.2]["rms_error"]
        # resolution floor respected
        for result in aged_results.values():
            assert result["worst_level"] <= 4

    def test_benchmark_archival_throughput(self, benchmark, series):
        """Time archiving one sensor-day into constrained flash."""
        timestamps, values = series
        day = slice(0, int(86_400 / 31.0))

        def archive_day():
            meter = EnergyMeter("sensor")
            flash = FlashDevice(
                MICA2_FLASH, meter, capacity_bytes=MICA2_FLASH.page_bytes * 64
            )
            archive = SensorArchive(flash, segment_readings=256)
            for t, v in zip(timestamps[day], values[day]):
                archive.append(float(t), float(v))
            archive.flush()
            return archive

        archive = benchmark.pedantic(archive_day, rounds=1, iterations=1)
        assert archive.readings_archived > 0
