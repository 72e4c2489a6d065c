"""Property test: the columnar SummaryCache is observationally identical
to the original list-based implementation.

Drives both implementations through the same randomized operation stream —
interleaved pushed/predicted/pulled inserts with duplicate timestamps, deep
backfill and eviction overflow — and asserts every read (``entry_at`` /
``values_on_grid`` / ``entries_in`` / ``arrays_in`` /
``tail_snapshot`` / ``latest`` / ``latest_actual`` / ``coverage_fraction`` /
``size``, and a replica snapshot's ``nearest`` / ``window_slice``) and every
counter agrees, continuously and at the end.  ``insert_batch`` is
additionally checked against sequential single inserts on the reference,
over the run shapes the proxy produces — every one strictly ascending:
silent runs newer than the cached stream, runs that overlap it, and pull
replies that backfill it with gaps.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from reference_cache import ListSummaryCache

from repro.core.cache import (
    _CODE_OF_SOURCE,
    PREDICTED_CODE,
    PUSHED_CODE,
    CacheEntry,
    EntrySource,
    SummaryCache,
    coverage_fraction,
)

SOURCES = (EntrySource.PUSHED, EntrySource.PREDICTED, EntrySource.PULLED)
PERIOD = 3.0


def random_entry(rng: np.random.Generator, step: int) -> CacheEntry:
    """One randomized entry: mostly in-order, some duplicates and backfill."""
    roll = rng.random()
    if roll < 0.6:
        timestamp = step * PERIOD                      # monotone append
    elif roll < 0.8:
        timestamp = float(rng.integers(0, step + 1)) * PERIOD   # backfill / dup
    else:
        timestamp = float(rng.integers(0, 2 * step + 2)) * (PERIOD / 2.0)
    return CacheEntry(
        timestamp=timestamp,
        value=float(rng.normal(20.0, 2.0)),
        std=float(abs(rng.normal(0.0, 0.2))),
        source=SOURCES[int(rng.integers(0, 3))],
    )


def as_entries(times, values, stds, codes) -> list[CacheEntry]:
    """Columns back to rows, for comparison with the list oracle."""
    return [
        CacheEntry(float(t), float(v), float(s), SOURCES[int(c)])
        for t, v, s, c in zip(times, values, stds, codes)
    ]


def as_row(entry: CacheEntry | None) -> tuple | None:
    """An oracle entry as the point read's row, for comparison."""
    if entry is None:
        return None
    return (entry.timestamp, entry.value, entry.std, SOURCES.index(entry.source))


def assert_same_reads(
    new: SummaryCache, old: ListSummaryCache, rng: np.random.Generator
) -> None:
    assert new.size() == old.size()
    assert sorted(new.sensors) == sorted(old.sensors)
    for sensor in [*old.sensors, 99]:  # 99: a sensor with nothing cached
        assert new.size(sensor) == old.size(sensor)
        assert new.entries_in(sensor, -1.0, 1e12) == old.entries_in(sensor, -1.0, 1e12)
        assert new.latest(sensor) == old.latest(sensor)
        assert new.latest_actual(sensor) == old.latest_actual(sensor)
        for count in (1, 3, 64):
            assert list(new.tail_snapshot(sensor, count)) == old.tail(sensor, count)
        # a replica's snapshot holds every live entry from its first on
        snapshot = new.tail_snapshot(sensor, 64)
        first = float(snapshot.timestamps[0]) if snapshot else -np.inf
        # quarter-period lattice points land exactly between entries: ties
        lattice = rng.integers(-4, 2700, size=8) * (PERIOD / 4.0)
        grid = np.sort(np.concatenate([rng.uniform(-10.0, 2000.0, size=8), lattice]))
        tolerance = float(rng.uniform(0.1, 3.0 * PERIOD))
        values, valid = new.values_on_grid(sensor, grid, tolerance)
        for point, value, ok in zip(grid, values, valid):
            expected = old.entry_at(sensor, float(point), tolerance)
            assert ok == (expected is not None), (sensor, point, tolerance)
            if ok:
                assert value == expected.value
        for step in range(8):
            probe = float(rng.uniform(-10.0, 2000.0) if step % 2 else lattice[step])
            tolerance = float(rng.uniform(0.1, 3.0 * PERIOD))
            expected = old.entry_at(sensor, probe, tolerance)
            assert new.entry_at(sensor, probe, tolerance) == as_row(expected), (
                sensor, probe, tolerance
            )
            if probe >= first:
                position = snapshot.nearest(probe, tolerance)
                assert (None if position is None else snapshot[position]) == expected
            lo, hi = sorted(rng.uniform(-10.0, 2000.0, size=2))
            assert new.entries_in(sensor, lo, hi) == old.entries_in(sensor, lo, hi)
            assert as_entries(*new.arrays_in(sensor, lo, hi)) == old.entries_in(
                sensor, lo, hi
            )
            assert list(snapshot)[snapshot.window_slice(lo, hi)] == new.entries_in(
                sensor, max(lo, first), hi
            )
            present = new.arrays_in(sensor, lo, hi)[0].size
            assert coverage_fraction(present, lo, hi, PERIOD) == pytest.approx(
                old.coverage_fraction(sensor, lo, hi, PERIOD)
            )


@pytest.mark.parametrize("seed", range(8))
def test_randomized_operation_stream(seed):
    rng = np.random.default_rng(seed)
    # small capacity so eviction overflow is exercised constantly
    new, old = SummaryCache(48), ListSummaryCache(48)
    for step in range(600):
        sensor = int(rng.integers(0, 3))
        entry = random_entry(rng, step)
        new.insert(sensor, entry)
        old.insert(sensor, entry)
        if step % 149 == 0:
            assert_same_reads(new, old, rng)
    assert_same_reads(new, old, rng)
    assert new.insertions == old.insertions
    assert new.refinements == old.refinements
    assert new.evictions == old.evictions


def random_batch(rng: np.random.Generator, newest_epoch: int) -> np.ndarray:
    """Strictly ascending run timestamps in one of the shapes the proxy
    produces.

    A tracker's silent run (strictly newer than everything cached — the
    append branch), a run of consecutive epochs that overlaps the cached
    stream, or a pull reply: distinct epochs with gaps, backfilling the
    cached stream and reaching past it.
    """
    size = int(rng.integers(1, 24))
    roll = rng.random()
    if roll < 0.4:
        epochs = newest_epoch + 1 + int(rng.integers(0, 3)) + np.arange(size)
    elif roll < 0.6:
        epochs = int(rng.integers(0, newest_epoch + 1)) + np.arange(size)
    else:
        epochs = np.unique(rng.integers(0, newest_epoch + 40, size=size))
    return epochs.astype(np.float64) * PERIOD


@pytest.mark.parametrize("seed", range(4))
def test_batch_insert_equals_sequential(seed):
    """insert_batch ≡ the same cells inserted one by one on the reference."""
    check_batches_against_sequential(seed, capacity=4096)


@pytest.mark.parametrize("seed", range(4))
def test_ascending_batches_equal_sequential_while_evicting(seed):
    """The same with a capacity one batch overflows several times over."""
    check_batches_against_sequential(seed, capacity=32)


def check_batches_against_sequential(seed: int, capacity: int) -> None:
    """Drive both caches through 40 batches interleaved with single inserts."""
    rng = np.random.default_rng(100 + seed)
    new, old = SummaryCache(capacity), ListSummaryCache(capacity)
    # pre-populate both with an identical in-order stream
    for step in range(120):
        entry = CacheEntry(
            timestamp=step * PERIOD,
            value=float(rng.normal(20.0, 2.0)),
            std=0.1,
            source=SOURCES[int(rng.integers(0, 3))],
        )
        new.insert(0, entry)
        old.insert(0, entry)
    appended = 0
    for _ in range(40):
        newest = new.latest(0).timestamp
        source = SOURCES[int(rng.integers(0, 3))]
        timestamps = random_batch(rng, int(round(newest / PERIOD)))
        appended += bool(timestamps[0] > newest and (np.diff(timestamps) > 0).all())
        values = rng.normal(20.0, 2.0, size=timestamps.size)
        std = float(abs(rng.normal(0.0, 0.1)))
        new.insert_batch(0, timestamps, values, std, _CODE_OF_SOURCE[source])
        for timestamp, value in zip(timestamps, values):
            old.insert(
                0,
                CacheEntry(
                    timestamp=float(timestamp),
                    value=float(value),
                    std=std,
                    source=source,
                ),
            )
        assert new.entries_in(0, -1.0, 1e12) == old.entries_in(0, -1.0, 1e12)
        # a single insert at the tail between batches
        single = CacheEntry(
            timestamp=new.latest(0).timestamp + PERIOD,
            value=float(rng.normal(20.0, 2.0)),
            std=0.0,
            source=EntrySource.PUSHED,
        )
        new.insert(0, single)
        old.insert(0, single)
    assert appended >= 8  # the append branch is genuinely exercised
    assert_same_reads(new, old, rng)
    assert new.insertions == old.insertions
    assert new.refinements == old.refinements
    assert new.evictions == old.evictions


def test_eviction_overflow_equivalence():
    """Deep overflow with interleaved backfill stays entry-for-entry equal."""
    rng = np.random.default_rng(7)
    new, old = SummaryCache(16), ListSummaryCache(16)
    for step in range(400):
        entry = random_entry(rng, step)
        new.insert(1, entry)
        old.insert(1, entry)
    assert new.size(1) == old.size(1) == 16
    assert new.entries_in(1, -1.0, 1e12) == old.entries_in(1, -1.0, 1e12)
    assert new.evictions == old.evictions


# -- a push landed with its silent run ---------------------------------------------
#
# A proxy lands a run of PREDICTED rows and the PUSHED reading that ended it
# (std 0 for a push, the quantisation std for a batched reading) as one
# write with per-row codes and stds; it must leave a cache exactly as the
# two writes it replaced: the run as a batch, then the reading alone.  A
# pulled actual ahead of or inside the run sends the write down the merge,
# which marks ``written_from`` at the run's first row even where the actual
# keeps its cell.  The prefix draws single cells and ascending runs.

LATTICE = st.integers(0, 40).map(lambda i: i * PERIOD / 2.0)   # collisions, backfill
SOURCE = st.sampled_from(SOURCES)
VALUE = st.floats(-50.0, 50.0, allow_nan=False)
STD = st.floats(0.0, 2.0, allow_nan=False)
CACHE_OP = st.one_of(
    st.tuples(st.just("insert"), st.integers(0, 1), LATTICE, VALUE, STD, SOURCE),
    st.tuples(st.just("batch"), st.integers(0, 1),
              st.lists(LATTICE, min_size=2, max_size=6, unique=True).map(sorted), STD, SOURCE),
    st.tuples(st.just("export"), st.integers(0, 1)),
)


def apply(cache: SummaryCache, operation: tuple) -> None:
    kind, sensor, *rest = operation
    if kind == "insert":
        timestamp, value, std, source = rest
        cache.insert(sensor, CacheEntry(timestamp, value, std, source))
    elif kind == "batch":
        timestamps, std, source = rest
        cache.insert_batch(sensor, np.asarray(timestamps), np.arange(len(timestamps)) * 0.5,
                           std, _CODE_OF_SOURCE[source])
    else:
        cache.export_tail(sensor, 8, keyframe=False)   # resets written_from


def assert_same_cache(ours: SummaryCache, theirs: SummaryCache, sensor: int) -> None:
    """Same counters, live columns and ``written_from`` for *sensor*."""
    counters = ("insertions", "refinements", "evictions")
    assert [getattr(ours, name) for name in counters] == [
        getattr(theirs, name) for name in counters
    ]
    for column, twin in zip(ours.arrays_in(sensor, -np.inf, np.inf),
                            theirs.arrays_in(sensor, -np.inf, np.inf)):
        assert column.dtype == twin.dtype
        assert np.array_equal(column, twin)
    column, twin = ours._columns.get(sensor), theirs._columns.get(sensor)
    assert (column is None) == (twin is None)
    if column is not None:
        assert column.written_from == twin.written_from


RUN_LENGTH = st.one_of(st.just(0), st.just(1), st.integers(2, 24))   # 24 > capacity


def run_case(sensor=0, count=0, actuals=(), exported=True):
    return example(prefix=[("insert", 0, 0.0, 1.0, 0.1, EntrySource.PUSHED)], sensor=sensor,
                   first=4, count=count, pushed=0.0, actuals=list(actuals),
                   exported=exported, std=0.3, std_as_array=False, reading=1.0)


@settings(max_examples=300, deadline=None)
@run_case(sensor=2)                         # a lone push, empty column
@run_case(count=1, actuals=[0])             # one epoch under an actual
@run_case(count=24)                         # overflow on append
@run_case(count=6, actuals=[0])             # the written_from trap
@run_case(count=6, actuals=[3, 9])          # inside and ahead
@run_case(count=20, actuals=[6])            # the push lands on it
@given(
    prefix=st.lists(CACHE_OP, max_size=40),
    sensor=st.integers(0, 2),                      # 2: a column nothing wrote
    first=st.integers(0, 24),
    count=RUN_LENGTH,
    pushed=st.one_of(st.none(), STD),             # None: no reading ends the run
    actuals=st.lists(st.integers(0, 26), max_size=3),   # epochs past `first`
    exported=st.booleans(),                        # written_from reset after them
    std=STD,
    std_as_array=st.booleans(),
    reading=VALUE,
)
def test_run_with_its_push_is_the_batch_then_the_insert(
    prefix, sensor, first, count, pushed, actuals, exported, std, std_as_array, reading
):
    run, sequence = SummaryCache(16), SummaryCache(16)
    for operation in prefix:
        apply(run, operation)
        apply(sequence, operation)
    for offset in actuals:
        actual = CacheEntry((first + offset) * PERIOD, 100.0 + offset, 0.0,
                            EntrySource.PULLED)
        run.insert(sensor, actual)
        sequence.insert(sensor, actual)
    if exported:
        run.export_tail(sensor, 8, keyframe=False)
        sequence.export_tail(sensor, 8, keyframe=False)
    rows = count + (pushed is not None)
    times = np.arange(first, first + rows) * PERIOD
    values = np.arange(rows) * 0.25 + reading
    stds, codes = np.full(rows, std), np.full(rows, PREDICTED_CODE, dtype=np.int8)
    if pushed is not None:
        stds[-1], codes[-1] = pushed, PUSHED_CODE
    returned = run.insert_batch(sensor, times, values, stds, codes)
    expected = sequence.insert_batch(sensor, times[:count], values[:count],
                                     stds[:count] if std_as_array else std,
                                     PREDICTED_CODE)
    if pushed is not None:
        before = sequence.insertions
        sequence.insert(sensor, CacheEntry(float(times[-1]), float(values[-1]), pushed,
                                           EntrySource.PUSHED))
        expected += sequence.insertions - before
    assert returned == expected
    assert_same_cache(run, sequence, sensor)
