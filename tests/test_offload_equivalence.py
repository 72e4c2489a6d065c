"""Property test: the hop-window offload planner does exactly what the
full-scan planner did.

Two identical fleets are built from the same draw — one registered with
:class:`repro.storage.offload.OffloadCoordinator`, one with the full-scan
``ScanOffloadCoordinator`` kept in ``tests/reference_offload.py`` — and
driven through the same operation stream: bursts of readings (each flush
may offload, coarsen a guest or age), flushes of every archive's partial
segment at one instant (so that several planning rounds share ``now``),
evictions of the oldest segment (local first, hosted once nothing local is
left) and point reads that may resolve on a host.  After every operation
the two must agree with ``==``, never ``approx``: the executed moves, the
coordinator's stats, every device's used pages and
:class:`~repro.storage.flash.FlashStats`, every record's ``(level, pages,
hosted_by)``, the aging history, and every meter's joules by category —
and in each fleet every device's used pages must be exactly the pages of
the records it holds, local and guest.  The strategy draws what the
planners branch on: fleet size (up to 32 sensors; windows clipped at both
ends of the line), capacities and their skew, segment sizes (one page or
several), the aging floor, flat and bursty values, both policies, and
``now_fn`` set or ``None``.

Mutation note: each of these mutants of ``repro.storage.offload`` and the
archive's ``version`` counter must fail this test, and a pinned fleet below
fails each one on its own:

- narrowing the window to ``MAX_OFFLOAD_HOPS - 1`` hops (in
  ``OffloadCoordinator._window``) — ``test_far_host_at_the_window_edge``,
  a fleet whose only host with room is exactly ``MAX_OFFLOAD_HOPS`` away;
- dropping the "only arcs after the one just taken" filter when a freed
  source reopens as a host, or never reopening a freed source —
  ``test_a_freed_source_hosts_in_the_same_round``;
- dropping any one ``version`` bump: the flush's
  (``test_a_round_after_a_flush_sees_the_new_segment``), aging
  ``_coarsen``'s (``test_a_round_after_aging_sees_the_smaller_segment``),
  aging ``_evict_oldest``'s (``test_long_pressured_run``) and ``_move``'s
  (``test_a_round_after_a_move_ranks_the_source_afresh``).
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


def assert_pages_conserved(archives) -> None:
    """Each device's used pages are exactly the pages of the records on it.

    A record is on its owner's flash until it is offloaded, then on its
    host's; either way its pages are what its stored bytes need.
    """
    held = [0] * len(archives)
    for index, archive in enumerate(archives):
        for record in archive.records.values():
            held[index if record.hosted_by is None else record.hosted_by] += record.pages
            assert record.pages == archive.flash.pages_for(record.stored_bytes())
    assert [archive.flash.used_pages for archive in archives] == held


def apply(operation, clock, archives, rng_values) -> None:
    kind, index, amount = operation
    archive = archives[index % len(archives)]
    if kind == "flush":  # every archive writes its partial segment at one instant
        for each in archives:
            each.flush()
    elif kind == "round":  # every sensor samples, in cell order, like one epoch each
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
        assert_pages_conserved(window_archives)
        assert_pages_conserved(scan_archives)
    return fleets[0][1:]


operation = st.one_of(
    st.tuples(st.just("round"), st.just(0), st.integers(1, 200)),
    st.tuples(st.just("append"), st.integers(0, 31), st.integers(1, 160)),
    st.tuples(st.just("evict"), st.integers(0, 31), st.just(0)),
    st.tuples(st.just("read"), st.integers(0, 31), st.integers(0, 100)),
    st.tuples(st.just("flush"), st.just(0), st.just(0)),
)


@st.composite
def capacities(draw):
    """Per-sensor flash sizes: a base size alternately skewed down and up."""
    n_sensors = draw(st.integers(2, 11) | st.integers(12, 32))
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


def moved(coordinator) -> list[tuple[int, int, int]]:
    """``(source, record id, host)`` of every executed move, in order."""
    return [(move.source, move.record_id, move.host) for move in coordinator.moves]


def test_a_freed_source_hosts_in_the_same_round():
    # line B, A, H: B and A are full and H is roomy; segments are one page.
    # B's flush plans one round: A ships its segment to H, which leaves A one
    # page of dead slack, so B's newer segment (its arc to A ordered after
    # A's move) lands on A; B's older one (ordered before it) goes to H
    capacities = [2 * PAGE, PAGE, 12 * PAGE]
    operations = [
        ("append", 0, 20), ("flush", 0, 0),  # B's older segment
        ("append", 2, 60),                    # half an hour passes
        ("append", 1, 20), ("flush", 0, 0),  # A's segment fills A
        ("append", 2, 60),
        ("append", 0, 20), ("flush", 0, 0),  # B's newer segment fills B
        ("append", 0, 20), ("flush", 0, 0),
    ]
    coordinator, _archives = assert_same_run(
        capacities, 64, 3, "mcf_offload", True, operations, seed=1, bursty=False
    )
    assert moved(coordinator) == [(1, 0, 2), (0, 1, 1), (0, 0, 2)]


@pytest.mark.parametrize("timed", [True, False])
def test_a_round_after_a_move_ranks_the_source_afresh(timed):
    # A (index 1) holds five segments, the oldest and the newest one page,
    # the three between two pages.  Its next flush needs two pages: the
    # first round ships the oldest to H, which keeps room for one page more;
    # the second, at the same instant, must rank A again and ship the newest
    operations = [
        ("append", 1, 20), ("flush", 0, 0),
        ("append", 1, 3 * 64),
        ("append", 1, 20), ("flush", 0, 0),
        ("append", 1, 64),
    ]
    coordinator, _archives = assert_same_run(
        [4 * PAGE, 8 * PAGE], 64, 3, "mcf_offload", timed, operations, seed=2, bursty=False
    )
    assert moved(coordinator) == [(1, 0, 0), (1, 4, 0)]


@pytest.mark.parametrize("timed", [True, False])
def test_a_round_after_aging_sees_the_smaller_segment(timed):
    # S holds two two-page segments and Y has one page of dead slack.  On S's
    # third flush the first round moves nothing, aging halves S's oldest
    # segment, and the second round, at the same instant, ships it to Y
    coordinator, _archives = assert_same_run(
        [4 * PAGE, PAGE], 64, 3, "mcf_offload", timed, [("append", 0, 3 * 64)],
        seed=1, bursty=False,
    )
    assert moved(coordinator) == [(0, 0, 1)]


def test_a_round_after_a_flush_sees_the_new_segment():
    # line S, A, X, Y: S, A and X fill with two-page segments, one of S's on
    # A's flash; Y has one page of dead slack.  Then every partial segment is
    # flushed at one instant: S's round moves nothing (S ages), A makes room
    # by coarsening its guest and writes a one-page segment, and X's round
    # must rank that segment and ship it to Y
    operations = [
        ("append", 0, 64), ("append", 0, 64),  # S's first segment moves to A
        ("append", 1, 64), ("append", 2, 64),
        ("append", 0, 20), ("append", 1, 20), ("append", 2, 20),
        ("flush", 0, 0),
    ]
    coordinator, _archives = assert_same_run(
        [2 * PAGE, 4 * PAGE, 2 * PAGE, PAGE], 64, 3, "mcf_offload", True, operations,
        seed=1, bursty=False,
    )
    assert moved(coordinator) == [(0, 0, 1), (1, 1, 3)]
    assert coordinator.stats.hosted_coarsenings == 1
