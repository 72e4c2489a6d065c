"""Property test: the columnar serving front-end reports exactly what the
per-batch loop reported.

Both front-ends draw the same traffic (same seed, same generator) and must
return equal :class:`ServingReport` objects — ``dataclasses.asdict``
equality, every float bit for bit, never ``approx``.  The strategy covers
what the renewal rule and the queueing recursion branch on: a memo TTL of
zero, exact multiples of the admission interval and values a hair off
them; service times from idle to saturated; one to four partitions; and
fault segments in which some sensors have no live server.

Mutation note: evaluating the TTL comparison in integer batch units
(``covered_to = batch + floor(ttl / ADMISSION_INTERVAL_S) + 1``) instead of
on the ``admit`` floats must fail this test.  The loop compares
``admit[b] + ttl >= admit[b']`` in floats, and mid-run the sum rounds: a TTL
one ulp under ``k`` intervals still answers the ``k``-th later batch there
(the ulp of ``admit`` dwarfs the shortfall), where integer arithmetic says
``k - 1``.  ``test_ttl_a_hair_under_an_interval_multiple`` pins that case;
the strategy draws such TTLs too.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_frontend import LoopServingFrontend

from repro.serving import BackendSegments, ServingConfig, ServingFrontend

INTERVAL_MULTIPLES = (0.0, 0.25, 0.5, 0.75, 1.0, 2.5, 30.0)


def random_segments(
    rng: np.random.Generator, n_sensors: int, n_segments: int, horizon: float
) -> BackendSegments:
    """A fault timeline with random costs and ~a fifth of cells unserved."""
    starts = np.concatenate([[0.0], np.sort(rng.uniform(0.0, horizon, n_segments - 1))])
    return BackendSegments(
        starts=starts,
        latencies=rng.uniform(0.001, 0.4, (n_segments, n_sensors)),
        served=rng.random((n_segments, n_sensors)) > 0.2,
    )


def both_reports(config, n_sensors, n_partitions, n_segments, horizon, seed):
    rng = np.random.default_rng(seed)
    segments = random_segments(rng, n_sensors, n_segments, horizon)
    partition_of_sensor = rng.integers(0, n_partitions, n_sensors).astype(np.int64)
    return tuple(
        frontend(
            config, n_sensors, n_partitions, partition_of_sensor, segments,
            rng=np.random.default_rng(seed),
        ).run(horizon)
        for frontend in (ServingFrontend, LoopServingFrontend)
    )


def assert_identical(columnar, loop) -> None:
    got, want = dataclasses.asdict(columnar), dataclasses.asdict(loop)
    for name, value in want.items():
        # NaN is the one float that is not equal to its own copy
        if isinstance(value, float) and math.isnan(value):
            assert math.isnan(got[name]), name
        else:
            assert got[name] == value, name


@settings(max_examples=60, deadline=None)
@given(
    offered_qps=st.floats(1.0, 400.0),
    duration_s=st.sampled_from([5.0, 30.0, 61.0, 150.0]),
    zipf_s=st.floats(0.0, 2.0),
    memo_ttl_s=st.one_of(
        st.sampled_from(INTERVAL_MULTIPLES),
        st.sampled_from([0.7499, math.nextafter(0.25, 0.0), math.nextafter(0.75, 0.0)]),
        st.floats(0.0, 5.0),
    ),
    service_time_s=st.one_of(
        st.sampled_from([0.0001, 0.004]), st.floats(0.02, 0.5)
    ),
    n_sensors=st.integers(1, 40),
    n_partitions=st.integers(1, 4),
    n_segments=st.integers(1, 4),
    horizon=st.one_of(
        st.sampled_from([20.0, 3_600.0, 17_280.0]), st.floats(10.0, 20_000.0)
    ),
    seed=st.integers(0, 2**32 - 1),
)
def test_columnar_run_equals_the_loop(
    offered_qps, duration_s, zipf_s, memo_ttl_s, service_time_s,
    n_sensors, n_partitions, n_segments, horizon, seed,
):
    config = ServingConfig(
        offered_qps=offered_qps,
        zipf_s=zipf_s,
        memo_ttl_s=memo_ttl_s,
        service_time_s=service_time_s,
        duration_s=duration_s,
    )
    assert_identical(
        *both_reports(config, n_sensors, n_partitions, n_segments, horizon, seed)
    )


def test_ttl_a_hair_under_an_interval_multiple():
    config = ServingConfig(
        offered_qps=300.0, zipf_s=0.9, duration_s=60.0,
        memo_ttl_s=math.nextafter(0.75, 0.0),
    )
    columnar, loop = both_reports(config, 8, 2, 2, 17_280.0, seed=11)
    assert_identical(columnar, loop)
    # at t0 = 8610 s the shortfall rounds away: served exactly as ttl = 0.75
    # is, and better than the two intervals integer batch units would give
    on_multiple, _ = both_reports(
        dataclasses.replace(config, memo_ttl_s=0.75), 8, 2, 2, 17_280.0, seed=11
    )
    two_intervals, _ = both_reports(
        dataclasses.replace(config, memo_ttl_s=0.5), 8, 2, 2, 17_280.0, seed=11
    )
    assert columnar.memo_hit_rate == on_multiple.memo_hit_rate
    assert columnar.memo_hit_rate > two_intervals.memo_hit_rate
