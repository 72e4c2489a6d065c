"""The CDF-table query generators draw exactly what per-query ``choice`` drew.

``repro.traces.workload`` builds each probability table (kind mix, Zipf
law, shard weights, each shard's Zipf law) once and maps uniform draws
through ``bisect_right``; ``tests/reference_workload.py`` keeps the form
that called ``rng.choice(n, p=...)`` and ``rng.uniform`` per query.  From
the same seed both must emit ``==`` query lists *and* leave the generator
in the same ``bit_generator.state`` — which also pins PCG64's buffered
half-word that ``integers(0, 3)`` reads.

A uniform draw lands exactly on a table entry with probability 2**-53, so
random seeds alone would not notice ``bisect_left`` in place of
``bisect_right`` (or ``searchsorted``'s other side).
``test_a_draw_on_a_table_boundary`` plants such a draw by solving PCG64's
state backwards, once per table.  Mutation check: turning any one of the
four ``bisect_right`` calls in ``repro/traces/workload.py`` into
``bisect_left`` must fail it.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_workload import ChoiceShardedWorkloadGenerator, ChoiceWorkloadGenerator

from repro.traces.workload import (
    QueryKind,
    QueryWorkloadConfig,
    QueryWorkloadGenerator,
    ShardedWorkloadGenerator,
)

MIXES = [
    (1.0, 0.0, 0.0, 0.0),
    (0.0, 1.0, 0.0, 0.0),
    (0.0, 0.0, 0.5, 0.5),
    (0.6, 0.2, 0.1, 0.1),
    (0.5, 0.5, 0.0, 0.0),
]


@st.composite
def mixes(draw):
    """Query-kind fractions: fixed corner cases or random integer weights."""
    weights = draw(
        st.sampled_from(MIXES)
        | st.lists(st.integers(0, 5), min_size=4, max_size=4).filter(any)
    )
    total = sum(weights)
    return tuple(weight / total for weight in weights)


@st.composite
def configs(draw):
    now, past_point, past_range, past_agg = draw(mixes())
    return QueryWorkloadConfig(
        arrival_rate_per_s=draw(st.floats(1e-3, 5.0)),
        now_fraction=now,
        past_point_fraction=past_point,
        past_range_fraction=past_range,
        past_agg_fraction=past_agg,
        zipf_exponent=draw(st.sampled_from([0.0, 1.1]) | st.floats(0.0, 3.0)),
        precision_jitter=draw(st.sampled_from([0.0, 0.25, 0.9])),
        past_horizon_s=draw(st.sampled_from([60.0, 3_600.0, 86_400.0])),
        window_s=draw(st.sampled_from([1.0, 3_600.0])),
    )


@st.composite
def shardings(draw):
    """Uneven disjoint shards over shuffled global ids, plus optional weights."""
    sizes = draw(st.lists(st.sampled_from([1, 2, 7]) | st.integers(1, 16), min_size=1,
                          max_size=8))
    ids = draw(st.permutations(range(sum(sizes))))
    shards, at = [], 0
    for size in sizes:
        shards.append(list(ids[at : at + size]))
        at += size
    weights = draw(
        st.none()
        | st.lists(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 5.0),
                   min_size=len(shards), max_size=len(shards)).filter(lambda w: sum(w) > 0)
    )
    return shards, weights


def assert_same_stream(make, make_reference, seed, start_s, end_s):
    generator = make(np.random.default_rng(seed))
    reference = make_reference(np.random.default_rng(seed))
    assert generator.generate(start_s, end_s) == reference.generate(start_s, end_s)
    assert generator._rng.bit_generator.state == reference._rng.bit_generator.state


def interval(config, start_s, expected_queries):
    return start_s, start_s + expected_queries / config.arrival_rate_per_s


@settings(max_examples=80, deadline=None)
@given(
    n_sensors=st.integers(1, 64),
    config=configs(),
    seed=st.integers(0, 2**64 - 1),
    start_s=st.sampled_from([0.0]) | st.floats(0.0, 200_000.0),
    expected_queries=st.floats(0.01, 300.0),
)
def test_cdf_generator_equals_per_query_choice(n_sensors, config, seed, start_s,
                                               expected_queries):
    start_s, end_s = interval(config, start_s, expected_queries)
    assert_same_stream(
        lambda rng: QueryWorkloadGenerator(n_sensors, config, rng),
        lambda rng: ChoiceWorkloadGenerator(n_sensors, config, rng),
        seed, start_s, end_s,
    )


@settings(max_examples=80, deadline=None)
@given(
    sharding=shardings(),
    config=configs(),
    seed=st.integers(0, 2**64 - 1),
    start_s=st.sampled_from([0.0]) | st.floats(0.0, 200_000.0),
    expected_queries=st.floats(0.01, 300.0),
)
def test_sharded_cdf_generator_equals_per_query_choice(sharding, config, seed, start_s,
                                                       expected_queries):
    shards, weights = sharding
    start_s, end_s = interval(config, start_s, expected_queries)
    assert_same_stream(
        lambda rng: ShardedWorkloadGenerator(shards, config, rng, shard_weights=weights),
        lambda rng: ChoiceShardedWorkloadGenerator(shards, config, rng, shard_weights=weights),
        seed, start_s, end_s,
    )


#: PCG64's 128-bit LCG multiplier (numpy's ``PCG_DEFAULT_MULTIPLIER_128``)
PCG_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645
MASK_64 = (1 << 64) - 1
MASK_128 = (1 << 128) - 1


def planted_rng(seed: int, draw: int, raw: int) -> np.random.Generator:
    """A PCG64 generator whose *draw*-th 64-bit output (1-based) is *raw*.

    PCG64 steps ``state = state * multiplier + inc`` and outputs
    ``rotr64(high ^ low, high >> 58)`` of the new state, so a post-step state
    with that output is solved for directly and stepped back *draw* times.
    """
    rng = np.random.default_rng(seed)
    state = rng.bit_generator.state
    increment = state["state"]["inc"]
    high = (seed * 0x9E3779B97F4A7C15) & MASK_64
    rotation = high >> 58
    rotated = ((raw << rotation) | (raw >> (64 - rotation))) & MASK_64 if rotation else raw
    value = (high << 64) | (high ^ rotated)
    inverse = pow(PCG_MULTIPLIER, -1, 1 << 128)
    for _ in range(draw):
        value = ((value - increment) * inverse) & MASK_128
    state["state"]["state"] = value
    rng.bit_generator.state = state
    return rng


def first_entry(weights) -> float:
    """First entry of the table ``choice(n, p=weights)`` searches."""
    cdf = np.asarray(weights, dtype=np.float64).cumsum()
    cdf /= cdf[-1]
    return float(cdf[0])


BOUNDARY_CONFIG = QueryWorkloadConfig(
    arrival_rate_per_s=1.0, now_fraction=0.5, past_point_fraction=0.5,
    past_range_fraction=0.0, past_agg_fraction=0.0,
)
ZIPF_2 = first_entry([1.0, 2.0 ** -BOUNDARY_CONFIG.zipf_exponent])
UNEVEN = [[5], [3, 4], [0, 1, 2]]
PAIRS = [[5, 3], [0, 1]]

#: (reference class, its arguments, 1-based 64-bit draw, the uniform it is
#: planted to, what the reference makes of the first query): the draw after
#: the first arrival's exponential is the kind, then the sensor's draws
BOUNDARIES = {
    "kind": (ChoiceWorkloadGenerator, (6,), {}, 2, 0.5,
             lambda query: query.kind is QueryKind.PAST_POINT),
    "zipf": (ChoiceWorkloadGenerator, (2,), {}, 3, ZIPF_2,
             lambda query: query.sensor == 1),
    "shard": (ChoiceShardedWorkloadGenerator, (UNEVEN,), {"shard_weights": [0.0, 1.0, 2.0]},
              3, 0.0, lambda query: query.sensor in UNEVEN[1]),
    "rank": (ChoiceShardedWorkloadGenerator, (PAIRS,), {}, 4, ZIPF_2,
             lambda query: query.sensor in (PAIRS[0][1], PAIRS[1][1])),
}
CLASSES = {
    ChoiceWorkloadGenerator: QueryWorkloadGenerator,
    ChoiceShardedWorkloadGenerator: ShardedWorkloadGenerator,
}


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("table", list(BOUNDARIES))
def test_a_draw_on_a_table_boundary(table, seed):
    reference_class, args, kwargs, draw, uniform, reading = BOUNDARIES[table]
    # an entry >= 0.5 (or 0.0) is on next_double's 2**-53 grid
    raw = int(uniform * 2**53) << 11
    probe = planted_rng(seed, draw, raw)
    probe.exponential(1.0)  # the first arrival must use one 64-bit draw
    if probe.bit_generator.state != planted_rng(seed, draw - 1, raw).bit_generator.state:
        pytest.skip("ziggurat rejected the planted state's first draw")
    reference = reference_class(*args, BOUNDARY_CONFIG, planted_rng(seed, draw, raw), **kwargs)
    generator = CLASSES[reference_class](
        *args, BOUNDARY_CONFIG, planted_rng(seed, draw, raw), **kwargs
    )
    expected = reference.generate(0.0, 40.0)
    assert reading(expected[0])
    assert generator.generate(0.0, 40.0) == expected
    assert generator._rng.bit_generator.state == reference._rng.bit_generator.state
