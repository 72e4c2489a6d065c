"""Delta generations fold back to the full export, whatever the cache and hosts did.

Replica sync ships each generation as a delta against the owner's previous
one: per sensor, only the cache rows from the oldest timestamp written
since the last export, plus the tracker's declared state.  The property
below drives one owner's summary cache and trackers through random writes
— appends, batched silent runs, pulls that backfill or refine a
prediction, predictions over cached instants, evictions — and random host
deaths and recoveries between syncs.  After every generation whose chain
is decodable, the reconstructed state must equal what a *full* export
would ship at that instant: each sensor's ``tail_snapshot`` and its
tracker's state.  A second store fed the same payloads folds only at the
end, so folding many generations at once must agree with folding them one
at a time.
"""

from __future__ import annotations

import functools
from types import SimpleNamespace

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_model_step import fitted_family

from repro.coding import FragmentStore
from repro.core.cache import CacheEntry, EntrySource, SummaryCache
from repro.core.federation import _RoutingCore
from repro.core.proxy import PrestoProxy
from repro.core.push import ModelUpdate, ProxyModelTracker

PERIOD = 30.0
OWNER = "wifi0"
HOSTS = ("wired0", "wired1", "wired2")
GLOBAL_IDS = (10, 11, 12)

SENSOR = st.integers(0, len(GLOBAL_IDS) - 1)
OPERATION = st.one_of(
    st.tuples(st.just("append"), SENSOR, st.sampled_from([EntrySource.PUSHED,
                                                          EntrySource.PREDICTED])),
    st.tuples(st.just("batch"), SENSOR, st.integers(1, 6)),
    st.tuples(st.just("pull"), SENSOR, st.integers(0, 10), st.booleans(), st.booleans()),
    st.tuples(st.just("guess"), SENSOR, st.integers(0, 10)),
    st.tuples(st.just("step"), SENSOR, st.booleans()),
    st.tuples(st.just("kill"), st.sampled_from(HOSTS)),
    st.tuples(st.just("revive"), st.sampled_from(HOSTS)),
    st.just(("sync",)),
)


class Owner:
    """One wireless owner's cache and trackers behind the production export."""

    def __init__(self, hot: int, max_entries: int) -> None:
        self.cache = SummaryCache(max_entries)
        rng = np.random.default_rng(4)
        self.states = []
        for local in range(len(GLOBAL_IDS)):
            tracker = None
            if local:   # sensor 0 never gets a model: family tag 0
                model, _ = fitted_family("arima" if local == 1 else "seasonal", rng)
                tracker = ProxyModelTracker(ModelUpdate(model=model, delta=0.2))
            self.states.append(SimpleNamespace(tracker=tracker))
        proxy = SimpleNamespace(cache=self.cache, _states=self.states)
        proxy.export_replica_state = functools.partial(PrestoProxy.export_replica_state, proxy)
        self.core = SimpleNamespace(
            federation=SimpleNamespace(hot_entries_per_sensor=hot),
            _built={OWNER: SimpleNamespace(proxy=proxy)},
            _by_name={OWNER: SimpleNamespace(sensor_ids=list(GLOBAL_IDS))},
        )
        self.clock = [0.0] * len(GLOBAL_IDS)
        self.value = 20.0

    def export(self, keyframe: bool):
        return _RoutingCore._export_owner(self.core, OWNER, keyframe)

    def apply(self, operation) -> None:
        kind, *args = operation
        self.value += 0.37
        if kind == "append":
            sensor, source = args
            self.cache.insert(sensor, CacheEntry(self.clock[sensor], self.value, 0.1, source))
            self.clock[sensor] += PERIOD
        elif kind == "batch":
            sensor, count = args
            times = self.clock[sensor] + PERIOD * np.arange(count)
            self.cache.insert_batch(sensor, times, times / 100.0, 0.2, EntrySource.PREDICTED)
            self.clock[sensor] += PERIOD * count
        elif kind == "pull":
            sensor, back, between, single = args
            at = self.clock[sensor] - PERIOD * (back + 1) + (PERIOD / 2 if between else 0.0)
            if single:
                self.cache.insert(sensor, CacheEntry(at, self.value, 0.0, EntrySource.PULLED))
            else:
                self.cache.insert_batch(sensor, [at], [self.value], 0.0, EntrySource.PULLED)
        elif kind == "guess":
            sensor, back = args
            at = self.clock[sensor] - PERIOD * (back + 1)
            self.cache.insert_batch(sensor, [at], [-self.value], 0.3, EntrySource.PREDICTED)
        elif kind == "step":
            sensor, push = args
            tracker = self.states[sensor].tracker
            if tracker is not None:
                if push:
                    tracker.apply_push(self.value)
                else:
                    tracker.advance_silent()

    def full_export(self, hot: int) -> dict:
        """What a whole-tail export would ship now, per global id."""
        shipped = {}
        for local, global_id in enumerate(GLOBAL_IDS):
            tail = self.cache.tail_snapshot(local, hot)
            tracker = self.states[local].tracker
            if not tail and tracker is None:
                continue
            family, state = tracker.state() if tracker is not None else (0, ())
            shipped[global_id] = view(
                tail.timestamps, tail.values, tail.stds, tail.codes, family, state
            )
        return shipped


def view(timestamps, values, stds, codes, family, state) -> tuple:
    """A comparable, bit-exact rendering of one sensor's replicated state."""
    return (
        np.asarray(timestamps, dtype=np.float64).tobytes(),
        np.asarray(values, dtype=np.float64).tobytes(),
        np.asarray(stds, dtype=np.float64).tobytes(),
        np.asarray(codes, dtype=np.int8).tobytes(),
        family,
        [np.asarray(element, dtype=np.float64).tobytes() for element in state],
    )


def views(merged) -> dict:
    return {
        sensor: view(r.timestamps, r.values, r.stds, r.codes, r.family, r.state)
        for sensor, r in merged.items()
    }


PREDICTED, PUSHED = EntrySource.PREDICTED, EntrySource.PUSHED
#: a refinement, a backfill and a skipped guess, each by a single insert
#: and by a batch, between two syncs over the same live hosts
WRITES_BETWEEN_SYNCS = [
    *[("append", 1, PREDICTED)] * 4,
    ("sync",),
    ("pull", 1, 1, False, True),
    ("sync",),
    ("pull", 1, 2, True, True),
    ("sync",),
    ("pull", 1, 0, False, False),
    ("guess", 1, 0),
    ("sync",),
    ("append", 1, PUSHED),
    ("guess", 1, 0),
    ("step", 1, True),
]


@settings(max_examples=200, deadline=None)
@example(code=(1, 3), hot=8, operations=WRITES_BETWEEN_SYNCS)
@example(code=(2, 3), hot=40, operations=WRITES_BETWEEN_SYNCS)
@given(
    code=st.sampled_from([(1, 3), (2, 3)]),
    hot=st.sampled_from([8, 12, 40]),
    operations=st.lists(OPERATION, min_size=1, max_size=80),
)
def test_reconstruct_equals_a_full_export_at_every_generation(code, hot, operations):
    k, n = code
    owner = Owner(hot, max_entries=16)
    plan = {OWNER: list(HOSTS[:n])}
    store, mirror = FragmentStore(k, n, plan), FragmentStore(k, n, plan)
    dead: set[str] = set()

    def alive(host: str) -> bool:
        return host not in dead

    checked = 0
    for operation in [*operations, ("sync",)]:
        if operation[0] == "kill":
            dead.add(operation[1])
        elif operation[0] == "revive":
            dead.discard(operation[1])
        elif operation[0] != "sync":
            owner.apply(operation)
            continue
        else:
            shipped = []

            def export(keyframe: bool, shipped=shipped):
                shipped.append((keyframe, owner.export(keyframe)))
                return shipped[-1][1]

            def replay(keyframe: bool, shipped=shipped):
                assert keyframe is shipped[0][0]   # same payloads, same decisions
                return shipped[0][1]

            payload, _, hosts = store.sync(OWNER, export, alive)
            mirror.sync(OWNER, replay, alive)
            if not hosts:
                assert payload == 0 and not shipped
                continue
            if hosts >= k:   # the newest chain decodes from its live hosts
                assert views(store.reconstruct(OWNER, alive)) == owner.full_export(hot)
                checked += 1
    ours, theirs = store.reconstruct(OWNER, alive), mirror.reconstruct(OWNER, alive)
    assert (ours is None) == (theirs is None)
    if ours is not None:
        assert views(ours) == views(theirs)
    assert mirror.decodes <= store.decodes
