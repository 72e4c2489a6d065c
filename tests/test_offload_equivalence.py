"""Property test: the hop-window offload planner does exactly what the
full-scan planner did.

Two identical fleets are built from the same draw — one registered with
:class:`repro.storage.offload.OffloadCoordinator`, one with the full-scan
``ScanOffloadCoordinator`` kept in ``tests/reference_offload.py`` — and
driven through the same operation stream: bursts of readings (each flush
may offload, coarsen a guest or age), evictions of the oldest segment
(local first, hosted once nothing local is left) and point reads that may
resolve on a host.  After every operation the two must agree with ``==``,
never ``approx``: the executed moves, the coordinator's stats, every
device's used pages and :class:`~repro.storage.flash.FlashStats`, every
record's ``(level, pages, hosted_by)``, the aging history, and every
meter's joules by category.  The strategy draws what the planners branch
on: fleet size (windows clipped at both ends of the line), capacities and
their skew, segment sizes (one page or several), the aging floor, flat and
bursty values, both policies, and ``now_fn`` set or ``None``.

Mutation note: narrowing the window to ``MAX_OFFLOAD_HOPS - 1`` hops (in
``OffloadCoordinator._window``) must fail this test —
``test_far_host_at_the_window_edge`` pins a fleet whose only host with room
is exactly ``MAX_OFFLOAD_HOPS`` away, and the strategy draws such fleets
too.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_offload import ScanOffloadCoordinator

from repro.energy.constants import MICA2_FLASH, MICA2_RADIO
from repro.energy.meter import EnergyMeter
from repro.storage.aging import AgingPolicy
from repro.storage.archive import SensorArchive
from repro.storage.flash import FlashDevice
from repro.storage.offload import MAX_OFFLOAD_HOPS, OffloadCoordinator

PAGE = MICA2_FLASH.page_bytes
EPOCH_S = 30.0


class Clock:
    """The fleet's shared notion of now: the newest reading appended."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def build_fleet(coordinator_class, capacities, segment_readings, max_level, policy, timed):
    clock = Clock()
    coordinator = coordinator_class(
        policy=policy, radio=MICA2_RADIO, now_fn=clock if timed else None
    )
    archives = []
    for index, capacity in enumerate(capacities):
        flash = FlashDevice(MICA2_FLASH, EnergyMeter(f"sensor{index}"), capacity_bytes=capacity)
        archive = SensorArchive(
            flash,
            segment_readings=segment_readings,
            aging_policy=AgingPolicy(max_level=max_level),
        )
        coordinator.register(archive)
        archives.append(archive)
    return clock, coordinator, archives


def state(coordinator, archives) -> dict:
    """Everything the planner can move, as plain comparable data."""
    return {
        "moves": list(coordinator.moves),
        "stats": coordinator.stats,
        "devices": [
            (archive.flash.used_pages, archive.flash.stats) for archive in archives
        ],
        "records": [
            [
                (record.record_id, record.level, record.pages, record.hosted_by)
                for record in archive.records.values()
            ]
            for archive in archives
        ],
        "aging": [
            (archive.aging_policy.history, archive.aging_policy.evictions,
             archive.readings_dropped)
            for archive in archives
        ],
        "joules": [archive.flash.meter.snapshot().by_category for archive in archives],
    }


def apply(operation, clock, archives, rng_values) -> None:
    kind, index, amount = operation
    archive = archives[index % len(archives)]
    if kind == "round":  # every sensor samples, in cell order, like one epoch each
        for _ in range(amount):
            clock.now += EPOCH_S
            for each in archives:
                each.append(clock.now, next(rng_values))
    elif kind == "append":
        for _ in range(amount):
            clock.now += EPOCH_S
            archive.append(clock.now, next(rng_values))
    elif kind == "evict":
        archive.aging_policy._evict_oldest(archive)
    else:  # a point read somewhere in the archive's span, maybe on a host
        span = archive.coverage
        if span is not None:
            start, end = span
            archive.read_point(start + (end - start) * amount / 100.0)


def readings(seed: int, bursty: bool):
    """An endless stream of finite readings: a slow drift plus noise or bursts."""
    rng = np.random.default_rng(seed)
    level = 20.0
    while True:
        level += rng.normal(0.0, 0.05)
        if bursty and rng.random() < 0.05:
            yield float(level + rng.normal(0.0, 15.0))
        else:
            yield float(level + rng.normal(0.0, 0.3))


def assert_same_run(capacities, segment_readings, max_level, policy, timed, operations,
                    seed, bursty):
    """Drive both fleets; returns the window planner's ``(coordinator, archives)``."""
    fleets = [
        build_fleet(cls, capacities, segment_readings, max_level, policy, timed)
        for cls in (OffloadCoordinator, ScanOffloadCoordinator)
    ]
    streams = [readings(seed, bursty) for _ in fleets]
    for step, operation in enumerate(operations):
        for (clock, _coordinator, archives), values in zip(fleets, streams):
            apply(operation, clock, archives, values)
        (_, window, window_archives), (_, scan, scan_archives) = fleets
        assert state(window, window_archives) == state(scan, scan_archives), (step, operation)
    return fleets[0][1:]


operation = st.one_of(
    st.tuples(st.just("round"), st.just(0), st.integers(1, 200)),
    st.tuples(st.just("append"), st.integers(0, 15), st.integers(1, 160)),
    st.tuples(st.just("evict"), st.integers(0, 15), st.just(0)),
    st.tuples(st.just("read"), st.integers(0, 15), st.integers(0, 100)),
)


@st.composite
def capacities(draw):
    """Per-sensor flash sizes: a base size alternately skewed down and up."""
    n_sensors = draw(st.integers(2, 11))
    base_bytes = draw(st.integers(PAGE, 12 * PAGE))
    skew = draw(st.sampled_from([0.0, 0.5, 0.8]) | st.floats(0.0, 0.9))
    jitter = draw(st.lists(st.integers(0, 2 * PAGE), min_size=n_sensors, max_size=n_sensors))
    return [
        max(PAGE, int(round(base_bytes * (1.0 + (skew if i % 2 else -skew))))) + jitter[i]
        for i in range(n_sensors)
    ]


@settings(max_examples=60, deadline=None)
@given(
    capacities=capacities(),
    segment_readings=st.sampled_from([2, 16, 33, 34, 64, 100]) | st.integers(2, 140),
    max_level=st.integers(1, 5),
    policy=st.sampled_from(["greedy_offload", "mcf_offload"]),
    timed=st.booleans(),
    operations=st.lists(operation, min_size=4, max_size=30),
    seed=st.integers(0, 2**32 - 1),
    bursty=st.booleans(),
)
def test_window_planner_equals_the_full_scan(
    capacities, segment_readings, max_level, policy, timed, operations, seed, bursty
):
    assert_same_run(
        capacities, segment_readings, max_level, policy, timed, operations, seed, bursty
    )


@pytest.mark.parametrize("timed", [True, False])
@pytest.mark.parametrize("policy", ["greedy_offload", "mcf_offload"])
def test_long_pressured_run(policy, timed):
    # nine sensors alternating 3 and 9 pages: every branch the strategy may
    # miss on a given run — moves, reads on a host, guests coarsened in place
    capacities = [(3 if i % 2 == 0 else 9) * PAGE + 40 * i for i in range(9)]
    operations = []
    for k in range(14):
        operations += [("round", 0, 48), ("read", k, 13 * k % 100), ("evict", 3 * k, 0)]
    coordinator, _archives = assert_same_run(
        capacities, 64, 3, policy, timed, operations, seed=7, bursty=True
    )
    assert coordinator.stats.remote_reads > 0
    assert coordinator.stats.hosted_coarsenings > 0
    assert max(move.hops for move in coordinator.moves) == MAX_OFFLOAD_HOPS


def test_far_host_at_the_window_edge():
    # sensors 1 .. MAX_OFFLOAD_HOPS - 1 are full; only sensor MAX_OFFLOAD_HOPS,
    # exactly at the edge of sensor 0's window, has room, and one past it is
    # out of range however roomy
    capacities = [4 * PAGE] * MAX_OFFLOAD_HOPS + [40 * PAGE, 40 * PAGE]
    fills = [("append", index, 2 * 64) for index in range(1, MAX_OFFLOAD_HOPS)]
    for policy in ("greedy_offload", "mcf_offload"):
        for timed in (True, False):
            coordinator, archives = assert_same_run(
                capacities, 64, 3, policy, timed,
                [*fills, ("append", 0, 6 * 64), ("read", 0, 0)], seed=5, bursty=True,
            )
            assert coordinator.moves
            if policy == "greedy_offload":  # nothing else moves
                assert {move.host for move in coordinator.moves} == {MAX_OFFLOAD_HOPS}
            assert archives[-1].flash.used_pages == 0
