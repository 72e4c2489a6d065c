"""The ship side of a replica sync writes what the element-by-element oracle writes.

Every generation an owner ships is its records serialized in the wire
layout and striped into a k-of-n code of which the live slots' fragments
are kept.  ``tests/reference_wire.py`` freezes the writer that walks each
declared-state element and the encoder that gathers one product-table row
per coefficient; the production store must ship the same payload bytes and
the same fragments:

* over drawn generations — linear, seasonal and Markov tracker states
  (scalar and array elements), empty to 2 048-row tails, keyframes and
  deltas, k = 1 and k > 1, dead slots;
* over every generation of the five quick perf workloads, checked as each
  is shipped (the records' columns are live cache rows then).
"""

from __future__ import annotations

import dataclasses
import functools
import sys
from pathlib import Path

import numpy as np
import pytest
import reference_wire
from hypothesis import given, settings
from hypothesis import strategies as st
from test_model_step import fitted_family

from repro.coding import FragmentStore, SensorRecord, parse_payload, rs_encode, serialize_payload
from repro.coding import fragments as fragments_module
from repro.core import federation as federation_module
from repro.core.push import ModelUpdate, ProxyModelTracker

PERF = Path(__file__).resolve().parent.parent / "benchmarks" / "perf"

FAMILIES = ("ar", "arima", "sarima", "seasonal", "markov")


@functools.lru_cache(maxsize=None)
def tracker_state(family: str, steps: int) -> tuple[int, tuple]:
    """A tracker of *family*'s declared state after *steps* silent epochs and
    pushes, alternating."""
    model, start = fitted_family(family, np.random.default_rng(len(family) + steps))
    tracker = ProxyModelTracker(ModelUpdate(model=model, delta=0.2))
    for step in range(steps):
        if step % 2:
            tracker.apply_push(start + 0.1 * step)
        else:
            tracker.advance_silent()
    return tracker.state()


#: a hand-made state: int and negative-zero scalars, an empty array
ODD_STATE = (3, (0.3, 7, np.array([1.0, 2.0]), np.array([]), -0.0, np.arange(3.0)))

STATE = st.one_of(
    st.just((0, ())),
    st.just(ODD_STATE),
    st.builds(tracker_state, st.sampled_from(FAMILIES), st.integers(0, 5)),
)


@st.composite
def records(draw) -> SensorRecord:
    rows = draw(st.one_of(st.sampled_from((0, 1, 2_048)), st.integers(0, 40)))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    times = np.cumsum(rng.uniform(1.0, 60.0, rows)) + draw(st.floats(-1e6, 1e6))
    family, state = draw(STATE)
    delta = draw(st.booleans())
    # a hand-built record may hold other dtypes: written as the layout's
    floats, code = draw(st.sampled_from([(np.float64, np.int8), (np.float32, np.int64)]))
    return SensorRecord(
        sensor=draw(st.integers(-(2**40), 2**40)),
        first_s=float(times[0] - 30.0) if delta and rows else 0.0,
        kept=draw(st.integers(1, 2_048)) if delta else 0,
        timestamps=times.astype(floats),
        values=rng.normal(20.0, 5.0, rows).astype(floats),
        stds=rng.uniform(0.0, 2.0, rows),
        codes=rng.integers(0, 4, rows).astype(code),
        family=family,
        state=state,
    )


@st.composite
def codes(draw) -> tuple[int, int, tuple[int, ...]]:
    k = draw(st.integers(1, 4))
    n = draw(st.integers(k, 7))
    live = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
    return k, n, tuple(sorted(live))


def ship(records: list[SensorRecord], k: int, n: int, live: tuple[int, ...]):
    """One generation through the production store: (payload, fragments)."""
    hosts = [f"host{slot}" for slot in range(n)]
    store = FragmentStore(k, n, {"owner": hosts})
    alive = {hosts[slot] for slot in live}
    payload_bytes, shipped, live_hosts = store.sync(
        "owner", lambda keyframe: records, alive.__contains__
    )
    _, fragments = store._newest["owner"].generations[-1]
    assert (live_hosts, shipped) == (len(live), fragments.size)
    return payload_bytes, fragments


@settings(max_examples=150, deadline=None)
@given(st.lists(records(), max_size=4), codes())
def test_drawn_generations_ship_what_the_oracle_ships(generation, code):
    k, n, live = code
    payload = serialize_payload(generation)
    assert payload == reference_wire.serialize_payload(generation)
    assert serialize_payload(parse_payload(payload)) == payload
    length, fragments = ship(generation, k, n, live)
    assert length == len(payload)
    expected = reference_wire.encode(payload, k, n, live)
    assert fragments.dtype == expected.dtype and np.array_equal(fragments, expected)


@pytest.mark.parametrize("k, n", [(1, 1), (1, 3), (2, 3), (4, 6), (5, 9)])
@pytest.mark.parametrize("size", [0, 1, 499, 100_003])
def test_encoder_matches_the_per_coefficient_oracle(k, n, size):
    """Deltas (hundreds of bytes) and keyframes (~100 kB) alike."""
    payload = np.random.default_rng(size + k).integers(0, 256, size, dtype=np.uint8)
    data = reference_wire.payload_matrix(payload.tobytes(), k)
    assert np.array_equal(rs_encode(data, n), reference_wire.rs_encode(data, n))


# -- the perf workloads -------------------------------------------------------------------

WORKLOADS = ("cell_day", "fed_armed", "query_storm", "sync_coded", "flash_pressure")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_perf_workloads_ship_what_the_oracle_ships(workload, monkeypatch):
    """Each generation is checked at its sync, while its rows are live."""
    sys.path.insert(0, str(PERF))
    try:
        import workloads
    finally:
        sys.path.remove(str(PERF))
    shipped: list[bytes] = []
    serialize = fragments_module.serialize_payload
    sync = fragments_module.FragmentStore.sync

    def checked_serialize(generation):
        payload = serialize(generation)
        assert payload == reference_wire.serialize_payload(generation)
        shipped.append(payload)
        return payload

    def checked_sync(self, owner, export, alive):
        before = len(shipped)
        result = sync(self, owner, export, alive)
        if len(shipped) > before:
            chain = self._newest[owner]
            _, fragments = chain.generations[-1]
            expected = reference_wire.encode(shipped[-1], self.k, self.n, chain.slots)
            assert np.array_equal(fragments, expected), (owner, len(shipped))
        return result

    monkeypatch.setattr(fragments_module, "serialize_payload", checked_serialize)
    monkeypatch.setattr(fragments_module.FragmentStore, "sync", checked_sync)
    system, queries, _ = workloads.build(workload, workloads.DEFAULT_SEED, "quick")
    federated = isinstance(system, federation_module.FederatedSystem)
    if federated:
        system.federation = dataclasses.replace(system.federation, partition_backend="inline")
    system.run(queries=queries)
    assert bool(shipped) == federated
