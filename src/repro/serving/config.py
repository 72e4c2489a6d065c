"""Configuration and report types for the query-serving front-end tier."""

from __future__ import annotations

from dataclasses import dataclass

from repro.metrics import Metrics, merged


@dataclass(frozen=True)
class ServingConfig:
    """Knobs of the production-traffic front-end layered over a federation.

    The front-end draws ``offered_qps`` queries per second over a
    ``duration_s`` serving window placed mid-run, skews sensor popularity
    by a Zipf law with exponent ``zipf_s``, admits traffic in fixed batches
    against the federated directory, and memoizes answers for
    ``memo_ttl_s`` so overlapping windows are served from the front-end
    instead of the backend.  ``offered_qps``, ``zipf_s``, ``memo_ttl_s``
    and the federation's partition count are sweepable scenario parameters
    — the offered-load-vs-p99 grid charts the saturation knee.  The user
    population, value/window query mix, admission batch and memo-key
    quantization are constants of :mod:`repro.serving.traffic` and
    :mod:`repro.serving.frontend`.
    """

    offered_qps: float = 200.0
    zipf_s: float = 0.9
    memo_ttl_s: float = 30.0
    service_time_s: float = 0.004        # backend CPU per admitted miss
    duration_s: float = 600.0            # serving window length (mid-run)

    def __post_init__(self) -> None:
        if self.offered_qps <= 0:
            raise ValueError("offered qps must be positive")
        if self.zipf_s < 0:
            raise ValueError("zipf exponent must be >= 0")
        if self.memo_ttl_s < 0:
            raise ValueError("memo ttl must be >= 0")
        if self.service_time_s <= 0:
            raise ValueError("service time must be positive")
        if self.duration_s <= 0:
            raise ValueError("serving window must be positive")


@dataclass
class ServingReport(Metrics):
    """What the front-end measured over its serving window.

    Computed once over the whole run, never merged: a non-count field is
    ``given``.
    """

    offered_qps: float = merged("given")
    #: served (non-failed) completions / window
    achieved_qps: float = merged("given")
    n_queries: int
    distinct_users: int
    #: fraction answered from the memo
    memo_hit_rate: float = merged("given")
    p50_latency_s: float = merged("given")
    p95_latency_s: float = merged("given")
    p99_latency_s: float = merged("given")
    mean_latency_s: float = merged("given")
    #: backend busy time / capacity
    utilization: float = merged("given")
    #: no live server for the sensor
    unserved: int
    n_partitions: int = merged("given")
    zipf_s: float = merged("given")
    memo_ttl_s: float = merged("given")

    SUMMARY = (
        "offered_qps",
        "achieved_qps",
        ("queries", "n_queries"),
        "distinct_users",
        "memo_hit_rate",
        ("p50_s", "p50_latency_s"),
        ("p95_s", "p95_latency_s"),
        ("p99_s", "p99_latency_s"),
        "utilization",
        "unserved",
    )
