"""Zipf-skewed query traffic from a large simulated user population.

The generator is fully vectorized — a campaign sweep point may draw a
million arrivals, so per-query python loops are off the table.  Sensor
popularity follows a Zipf law over rank (the same family the query
workload generator uses), user identity follows a power-law transform of a
uniform draw (cheap, and only the distinct-user count is reported), and
arrival times are an order-statistics Poisson draw: ``N ~ Poisson(qps *
window)`` uniforms, sorted.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.serving.config import ServingConfig

#: simulated user population the traffic is drawn from
N_USERS = 2_000_000

#: share of value ("now") queries; the rest are window queries
NOW_FRACTION = 0.6


@dataclass
class Traffic:
    """One serving window's arrivals, sorted by time."""

    t0: float                      # serving window start (absolute sim time)
    duration_s: float
    arrival: np.ndarray            # float64, ascending, absolute sim time
    sensor: np.ndarray             # int64 global sensor ids
    is_now: np.ndarray             # bool: value query (vs window query)
    distinct_users: int            # how many users the arrivals came from

    def __len__(self) -> int:
        return int(self.arrival.size)


def zipf_weights(n: int, s: float) -> np.ndarray:
    """Normalized Zipf popularity over ``n`` ranks with exponent ``s``."""
    if n < 1:
        raise ValueError("need at least one sensor")
    ranks = np.arange(1, n + 1, dtype=np.float64)
    weights = ranks ** -float(s)
    return weights / weights.sum()


def generate_traffic(
    config: ServingConfig,
    horizon: float,
    n_sensors: int,
    rng: np.random.Generator,
) -> Traffic:
    """Draw one serving window of traffic against an ``n_sensors`` deployment.

    The window is centred in the run (clamped to it) so the backend serves
    traffic against warmed caches and models rather than the cold start.
    """
    duration = float(min(config.duration_s, horizon))
    t0 = max(0.0, 0.5 * (horizon - duration))
    count = int(rng.poisson(config.offered_qps * duration))
    arrival = np.sort(rng.random(count)) * duration + t0
    sensor = rng.choice(
        n_sensors, size=count, p=zipf_weights(n_sensors, config.zipf_s)
    ).astype(np.int64)
    is_now = rng.random(count) < NOW_FRACTION
    # Power-law transform of a uniform: a small core of heavy users plus a
    # long tail, out of a population of N_USERS.  Only the distinct count is
    # reported, so the ids are counted here (sort, then count the changes)
    # and never kept.
    user = np.minimum(
        (rng.random(count) ** 1.5 * N_USERS).astype(np.int64), N_USERS - 1
    )
    user.sort()
    changes = int(np.count_nonzero(user[1:] != user[:-1]))
    distinct_users = changes + 1 if count else 0
    return Traffic(
        t0=t0,
        duration_s=duration,
        arrival=arrival,
        sensor=sensor,
        is_now=is_now,
        distinct_users=distinct_users,
    )
