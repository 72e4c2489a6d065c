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
over the batch shapes the proxy produces: strictly-appending silent runs,
sorted runs that overlap the cached stream, and unordered pull replies.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_cache import ListSummaryCache

from repro.core.cache import (
    _CODE_OF_SOURCE,
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


def random_batch(
    rng: np.random.Generator, newest_epoch: int, unordered: bool
) -> np.ndarray:
    """Batch timestamps in one of the shapes the proxy produces.

    A tracker's silent run (ascending, strictly newer than everything
    cached — the append branch), an ascending run that overlaps the cached
    stream (sorted already, but must merge), or — when *unordered* — a
    pull reply with duplicates and backfill.
    """
    size = int(rng.integers(1, 24))
    roll = rng.random()
    if roll < 0.4:
        epochs = newest_epoch + 1 + int(rng.integers(0, 3)) + np.arange(size)
    elif roll < 0.6 or not unordered:
        epochs = int(rng.integers(0, newest_epoch + 1)) + np.arange(size)
    else:
        epochs = rng.integers(0, newest_epoch + 40, size=size)
    return epochs.astype(np.float64) * PERIOD


@pytest.mark.parametrize("seed", range(4))
def test_batch_insert_equals_sequential(seed):
    """insert_batch ≡ the same cells inserted one by one on the reference."""
    check_batches_against_sequential(seed, capacity=4096, unordered=True)


@pytest.mark.parametrize("seed", range(4))
def test_ascending_batches_equal_sequential_while_evicting(seed):
    """The same with a capacity one batch overflows several times over.

    Ascending batches only: an unordered batch is sorted before it merges,
    so once cells are being evicted its counters can legitimately differ
    from arrival-order inserts (a duplicate of an already-evicted cell
    counts twice there).
    """
    check_batches_against_sequential(seed, capacity=32, unordered=False)


def check_batches_against_sequential(seed: int, capacity: int, unordered: bool) -> None:
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
        timestamps = random_batch(rng, int(round(newest / PERIOD)), unordered)
        appended += bool(timestamps[0] > newest and (np.diff(timestamps) > 0).all())
        values = rng.normal(20.0, 2.0, size=timestamps.size)
        std = float(abs(rng.normal(0.0, 0.1)))
        new.insert_batch(0, timestamps, values, std, source)
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


# -- one-row batches ----------------------------------------------------------------
#
# insert_batch takes a one-row batch through the scalar insert instead of
# the vectorized merge; the two must leave a cache in the same state.

LATTICE = st.integers(0, 40).map(lambda i: i * PERIOD / 2.0)   # collisions, backfill
SOURCE = st.sampled_from(SOURCES)
VALUE = st.floats(-50.0, 50.0, allow_nan=False)
STD = st.floats(0.0, 2.0, allow_nan=False)
CACHE_OP = st.one_of(
    st.tuples(st.just("insert"), st.integers(0, 1), LATTICE, VALUE, STD, SOURCE),
    st.tuples(st.just("batch"), st.integers(0, 1), st.lists(LATTICE, min_size=2, max_size=6),
              STD, SOURCE),
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
                           std, source)
    else:
        cache.export_tail(sensor, 8, keyframe=False)   # resets written_from


@settings(max_examples=300, deadline=None)
@given(
    prefix=st.lists(CACHE_OP, max_size=40),
    sensor=st.integers(0, 2),
    row=st.tuples(VALUE, STD, SOURCE),
    std_as_array=st.booleans(),
    data=st.data(),
)
def test_one_row_batch_matches_the_merge(prefix, sensor, row, std_as_array, data):
    scalar, merged = SummaryCache(16), SummaryCache(16)   # 16: overflow is common
    for operation in prefix:
        apply(scalar, operation)
        apply(merged, operation)
    cached = scalar.arrays_in(sensor, -np.inf, np.inf)[0].tolist()
    # half the rows land on a cached instant: refinement, overwrite or skip
    timestamp = data.draw(st.sampled_from(cached) if cached and data.draw(st.booleans())
                          else LATTICE)
    value, std, source = row
    stds = np.asarray([std]) if std_as_array else std
    returned = scalar.insert_batch(sensor, np.asarray([timestamp]), np.asarray([value]),
                                   stds, source)
    expected = merged._merge(sensor, np.asarray([timestamp]), np.asarray([value]),
                             np.asarray([std]), _CODE_OF_SOURCE[source])
    assert returned == expected
    counters = ("insertions", "refinements", "evictions")
    assert [getattr(scalar, name) for name in counters] == [
        getattr(merged, name) for name in counters
    ]
    for column, twin in zip(scalar.arrays_in(sensor, -np.inf, np.inf),
                            merged.arrays_in(sensor, -np.inf, np.inf)):
        assert column.dtype == twin.dtype
        assert np.array_equal(column, twin)
    assert scalar._columns[sensor].written_from == merged._columns[sensor].written_from
